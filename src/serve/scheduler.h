/**
 * @file
 * Batch scheduler: runs many solve jobs concurrently on the shared
 * simulation thread pool with deterministic per-job seeds and a
 * content-addressed artifact cache.
 *
 * Determinism contract.  Every job's RNG seed is derived from the hash
 * of its canonical request text (canonicalRequestText: configuration +
 * canonical problem bytes, NOT the job id) mixed with the batch seed --
 * never from queue position or timing.  Jobs are dispatched with
 * parallel::parallelForDynamic (atomic work claiming, nondeterministic
 * ORDER), but each job writes only its own pre-allocated result slot
 * and seeds only from its content hash, so the deterministic result
 * lines are byte-identical at any thread count and any submission
 * order.  Cache hits return values that are deterministic functions of
 * their keys, so a warm cache changes latency, never results.
 *
 * Per-job preparation and execution live in serve::JobRunner (shared
 * with the always-on daemon); this class adds the batch-shaped parts:
 * serial admission, slot allocation, and the parallel dispatch loop.
 *
 * Worker jobs run inside a pool task, therefore their solvers must not
 * reconfigure the pool: the runner forces resilience.threads = 0 on
 * every job and applies ServeOptions::threads once, before dispatch.
 */

#ifndef RASENGAN_SERVE_SCHEDULER_H
#define RASENGAN_SERVE_SCHEDULER_H

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h" // SpanId + the obs clock
#include "serve/admission.h"
#include "serve/artifact_cache.h"
#include "serve/job.h"
#include "serve/runner.h"

namespace rasengan::serve {

struct ServeOptions
{
    /**
     * Worker threads for the batch (applied via
     * parallel::setThreadCount before dispatch).  0 keeps the
     * current/env-derived pool configuration.
     */
    int threads = 0;
    /** Mixed into every job's child seed; same batch seed + same
     *  requests -> same results. */
    uint64_t batchSeed = 0;
    /** Artifact cache LRU budget in bytes; 0 disables caching. */
    uint64_t cacheBudgetBytes = 64ull << 20;
    AdmissionLimits limits;
    /**
     * Cooperative stop flag (SIGTERM/SIGINT in the CLI).  When it
     * becomes true mid-batch, jobs already running finish normally;
     * jobs not yet started complete immediately as accepted-but-
     * interrupted failures instead of executing.  nullptr disables.
     */
    const std::atomic<bool> *stopFlag = nullptr;
    /**
     * Invoked from the pool thread that finished a job, right after its
     * result slot is written, with the slot index and the final result.
     * Callbacks for different jobs run CONCURRENTLY; the callee
     * serializes its own side effects (a cluster worker streams result
     * frames under a socket mutex).  Rejected submissions never reach
     * this hook -- their slots complete inside submit().
     */
    std::function<void(size_t, const JobResult &)> onJobComplete;
    /**
     * Distributed-trace wiring for cluster workers.  When
     * traceRemoteParent is nonzero, per-job spans open under that
     * REMOTE parent (the coordinator's batch span id, propagated at
     * hello) instead of the local batch span, flagged as crossing a
     * process boundary.  suppressBatchSpan drops the local
     * "serve:batch" span entirely: the coordinator owns the batch-level
     * span, and a per-worker batch span would make the merged span
     * forest depend on the worker count.
     */
    obs::SpanId traceRemoteParent = 0;
    bool suppressBatchSpan = false;
};

/**
 * The serial submit-phase decision for one request: validate + prepare,
 * then cost + admit against @p admission.  Shared by BatchScheduler and
 * the cluster coordinator so both produce byte-identical rejection
 * result lines for the same request stream (admission is stateful and
 * order-dependent, so callers must screen in submission order).
 */
struct ScreenedJob
{
    bool admitted = false;
    /** Completed rejection result (id/reason/code/cost) when !admitted. */
    JobResult rejection;
    PreparedJob prepared; ///< valid when admitted
    double costUnits = 0.0;
};

ScreenedJob screenRequest(const JobRunner &runner,
                          AdmissionController &admission,
                          const JobRequest &req);

class BatchScheduler
{
  public:
    /**
     * @p cache lets several schedulers (e.g. a cold batch and a warm
     * batch, or repeated batches of a long-lived service) share one
     * artifact cache; nullptr creates a private cache sized by
     * @p options.cacheBudgetBytes.
     */
    explicit BatchScheduler(ServeOptions options,
                            std::shared_ptr<ArtifactCache> cache = nullptr);

    /**
     * Validate, cost, and admit @p req; allocates the job's result slot
     * immediately (rejected jobs get a completed rejection result).
     * Returns the slot index.  Not thread-safe; submission is a
     * single-producer phase.
     */
    size_t submit(const JobRequest &req);

    /**
     * Run every admitted job; blocks until the batch drains.  Must be
     * called from outside any parallel region.  Safe to call once.
     */
    void runAll();

    /** Result slots, in submission order (complete after runAll). */
    const std::vector<JobResult> &results() const { return results_; }

    ArtifactCache &cache() { return runner_.cache(); }
    const AdmissionController &admission() const { return admission_; }

    /** Jobs admitted (== jobs runAll will execute). */
    size_t admittedJobs() const { return pending_.size(); }

    /** Jobs skipped because the stop flag tripped mid-batch. */
    size_t interruptedJobs() const
    {
        return interrupted_.load(std::memory_order_relaxed);
    }

  private:
    struct PendingJob
    {
        PreparedJob prepared;
        double costUnits = 0.0;
        size_t resultIndex = 0;
        obs::TimeNanos submitTime = 0;
    };

    void runJob(PendingJob &job, obs::SpanId batch_span);

    ServeOptions options_;
    JobRunner runner_;
    AdmissionController admission_;
    std::vector<PendingJob> pending_;
    std::vector<JobResult> results_;
    std::atomic<size_t> interrupted_{0};
    bool ran_ = false;
};

} // namespace rasengan::serve

#endif // RASENGAN_SERVE_SCHEDULER_H
