/**
 * @file
 * Single-job preparation and execution, shared by the batch scheduler
 * and the serve daemon.
 *
 * prepare() turns a JobRequest into a PreparedJob: validated, problem
 * materialized, canonical request text hashed into the job's content
 * fingerprint and child seed.  run() executes a PreparedJob through the
 * solver stack with the artifact cache wired in, honoring an optional
 * cooperative cancel/deadline token, and returns the deterministic
 * JobResult payload.
 *
 * Determinism contract (inherited by every caller): the child seed is
 * mixSeed(fnv1a64(canonicalRequestText) ^ batchSeed) -- a pure function
 * of the job's content and the service seed, never of time, queue
 * position, or the client.  Equal logical work therefore produces
 * byte-identical writeResult() lines whether it runs in a batch, in the
 * daemon, or in a journal replay after a crash.
 *
 * When `checkpointDir` is set, rasengan jobs write segment checkpoints
 * under it (keyed by the content fingerprint) and automatically resume
 * from a compatible checkpoint -- the PR 1 machinery guarantees the
 * resumed result is bit-identical to an uninterrupted run.  The
 * checkpoint is deleted after a successful solve.
 */

#ifndef RASENGAN_SERVE_RUNNER_H
#define RASENGAN_SERVE_RUNNER_H

#include <memory>
#include <string>

#include "exec/cancel.h"
#include "problems/problem.h"
#include "serve/artifact_cache.h"
#include "serve/job.h"

namespace rasengan::serve {

struct RunnerOptions
{
    /** Mixed into every job's child seed (ServeOptions::batchSeed and
     *  the daemon's --batch-seed share this meaning). */
    uint64_t batchSeed = 0;
    /** Directory for per-job segment checkpoints; "" disables them. */
    std::string checkpointDir;
};

/** A validated, materialized job ready to execute. */
struct PreparedJob
{
    JobRequest req;
    /** Shared so queued/journaled copies stay cheap; never null when
     *  the job came from a successful prepare(). */
    std::shared_ptr<const problems::Problem> problem;
    std::string canonicalProblem;
    uint64_t childSeed = 0;
    /** 16-hex digest of the canonical request text: the job's content
     *  identity in the journal and checkpoint filenames. */
    std::string fingerprint;
};

struct PrepareOutcome
{
    bool ok = false;
    std::string error; ///< validation/parse failure when !ok
    PreparedJob job;
};

/**
 * Deterministic 128-bit (32-hex) distributed trace id for @p job: a
 * pure function of the job's child seed and its correlation id, so the
 * cluster coordinator and a single-process scheduler mint the SAME id
 * for the same admitted job -- telemetry stays byte-comparable between
 * cluster and single-process runs -- while two submissions of equal
 * work under different job ids still get distinct traces.  Never
 * folded back into seeds or results (tracing observes, only).
 */
std::string traceIdForJob(const PreparedJob &job);

class JobRunner
{
  public:
    /** @p cache may be shared across runners/schedulers; must not be
     *  null. */
    JobRunner(RunnerOptions options, std::shared_ptr<ArtifactCache> cache);

    /** Validate @p req and materialize its problem; pure (no I/O). */
    PrepareOutcome prepare(const JobRequest &req) const;

    /**
     * Execute @p job and fill the deterministic result payload
     * (solution, objective, hashes, retry telemetry).  Queue-wait and
     * wall-time telemetry are the caller's concern.  @p cancel, when
     * non-null, is checked cooperatively inside the executor and
     * between segment evolutions; a tripped token yields ok=false with
     * telemetry.deadlineHit set.  Thread-safe for distinct jobs.
     */
    JobResult run(const PreparedJob &job,
                  const exec::CancelToken *cancel = nullptr) const;

    ArtifactCache &cache() { return *cache_; }
    std::shared_ptr<ArtifactCache> sharedCache() const { return cache_; }
    const RunnerOptions &options() const { return options_; }

  private:
    JobResult solveRasengan(const PreparedJob &job,
                            ArtifactCache::LookupCounters &counters,
                            const exec::CancelToken *cancel) const;
    JobResult solveBaseline(const PreparedJob &job,
                            const exec::CancelToken *cancel) const;

    RunnerOptions options_;
    std::shared_ptr<ArtifactCache> cache_;
};

} // namespace rasengan::serve

#endif // RASENGAN_SERVE_RUNNER_H
