/**
 * @file
 * Batch scheduler: runs many solve jobs concurrently on the job pool
 * with deterministic per-job seeds and a content-addressed artifact
 * cache.
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
 * Every job runs through JobRunner::serve, the envelope batch serve
 * shares with the daemon and the cluster worker; this class adds the
 * batch-shaped parts: serial admission, slot allocation, the stop
 * flag, and the parallel dispatch loop.
 *
 * The job pool is the only thing that runs threads: runAll applies
 * ServiceOptions::threads once, before dispatch, and the simulators
 * inside each job run serial loops.
 */

#ifndef RASENGAN_SERVE_SCHEDULER_H
#define RASENGAN_SERVE_SCHEDULER_H

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "obs/trace.h" // the obs clock
#include "serve/admission.h"
#include "serve/artifact_cache.h"
#include "serve/job.h"
#include "serve/runner.h"

namespace rasengan::serve {

struct ServeOptions : ServiceOptions
{
    /**
     * Cooperative stop flag (SIGTERM/SIGINT in the CLI).  When it
     * becomes true mid-batch, jobs already running finish normally;
     * jobs not yet started complete immediately as accepted-but-
     * interrupted failures instead of executing.  nullptr disables.
     */
    const std::atomic<bool> *stopFlag = nullptr;
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
