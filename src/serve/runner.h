/**
 * @file
 * The one job core: single-job preparation and execution, shared by
 * batch serve, the daemon and the cluster worker.
 *
 * prepare() turns a JobRequest into a PreparedJob: validated, problem
 * materialized, canonical request text hashed into the job's content
 * fingerprint and child seed, and the job's trace id minted.  serve()
 * is the per-job envelope every front end calls: it opens the job span,
 * arms the cancel token from timeout_ms and the caller's deadline, runs
 * the job through run(), and fills the envelope telemetry (cost units,
 * trace id, queue wait, wall time) and the serve_job* metrics.  The
 * callers keep only what is theirs: the batch scheduler its stop flag
 * and result slot, the daemon its drain, journal and replay, the
 * cluster worker its wire.  run() is the bare solve inside the
 * envelope, for callers that time layers themselves.
 *
 * Determinism contract (inherited by every caller): the child seed is
 * mixSeed(fnv1a64(canonicalRequestText) ^ batchSeed) -- a pure function
 * of the job's content and the service seed, never of time, queue
 * position, or the client.  Equal logical work therefore produces
 * byte-identical writeResult() lines whether it runs in a batch, in the
 * daemon, on a cluster worker, or in a journal replay after a crash.
 *
 * When `checkpointDir` is set, rasengan jobs write segment checkpoints
 * under it (keyed by the content fingerprint) and automatically resume
 * from a compatible checkpoint -- the segment-checkpoint machinery
 * guarantees the resumed result is bit-identical to an uninterrupted
 * run.  The checkpoint is deleted after a successful solve.
 */

#ifndef RASENGAN_SERVE_RUNNER_H
#define RASENGAN_SERVE_RUNNER_H

#include <memory>
#include <string>

#include "exec/cancel.h"
#include "obs/trace.h"
#include "problems/problem.h"
#include "serve/artifact_cache.h"
#include "serve/job.h"

namespace rasengan::serve {

struct RunnerOptions
{
    /** Mixed into every job's child seed (ServiceOptions::batchSeed and
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

/** Where and when one serve() call runs; the callers' only inputs to
 *  the envelope besides the job and its cancel token. */
struct JobContext
{
    /** Category of the job span: "serve" for batch and cluster jobs,
     *  "daemon" for the daemon's. */
    const char *spanCategory = "serve";
    /** Parent of the job span (SpanContext rules); serve() supplies
     *  the job's trace id. */
    obs::SpanContext parent;
    /** obs-clock time the job was accepted; queue wait counts from it. */
    obs::TimeNanos acceptedAt = 0;
    /** Absolute obs-clock deadline; 0 = none. */
    obs::TimeNanos deadline = 0;
};

class JobRunner
{
  public:
    /** @p cache may be shared across runners/schedulers; must not be
     *  null. */
    JobRunner(RunnerOptions options, std::shared_ptr<ArtifactCache> cache);

    /**
     * Validate @p req and materialize its problem; pure (no I/O).  A
     * request without a trace hint gets its deterministic trace id
     * here: a pure function of the child seed and the job id, so the
     * batch scheduler, the cluster coordinator and the daemon mint the
     * same id for the same job.  It never reaches seeds or results.
     */
    PrepareOutcome prepare(const JobRequest &req) const;

    /**
     * The serving envelope around run().  Opens the job span under
     * @p ctx.parent, arms @p cancel with the tighter of the request's
     * timeout_ms and @p ctx.deadline (an already-passed deadline trips
     * at the first checkpoint), runs the job, and fills costUnits
     * (estimateJobCost), the trace id, queueWaitMs (from
     * @p ctx.acceptedAt) and wallMs, and observes the serve_job*
     * metrics.  A token already cancelled on
     * entry skips the solve: the job completes as accepted-but-
     * interrupted.  Thread-safe for distinct jobs.
     */
    JobResult serve(const PreparedJob &job, const JobContext &ctx,
                    exec::CancelToken &cancel) const;

    /**
     * Execute @p job and fill the deterministic result payload
     * (solution, objective, hashes, retry telemetry); envelope
     * telemetry is serve()'s concern.  @p cancel, when non-null, is
     * checked cooperatively inside the executor and between segment
     * evolutions; a tripped token yields ok=false with
     * telemetry.deadlineHit set.  Thread-safe for distinct jobs.
     */
    JobResult run(const PreparedJob &job,
                  const exec::CancelToken *cancel = nullptr) const;

    ArtifactCache &cache() { return *cache_; }

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
