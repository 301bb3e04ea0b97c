/**
 * @file
 * Admission control and backpressure for the batch solve service.
 *
 * Every request is costed before it enters the queue.  The cost model
 * is a deliberately coarse work estimate in abstract "cost units"
 * (roughly: optimizer evaluations x per-evaluation simulation effort);
 * it exists to bound the batch, not to predict wall time.  A job is
 * rejected -- with a human-readable reason echoed into its result line
 * -- when the queue is full, the instance exceeds the simulable qubit
 * cap, a per-field limit is violated, or the job/batch cost budget
 * would be exceeded.  Rejection is deterministic: it depends only on
 * the request stream, never on timing.
 */

#ifndef RASENGAN_SERVE_ADMISSION_H
#define RASENGAN_SERVE_ADMISSION_H

#include <atomic>
#include <cstdint>
#include <string>

#include "serve/job.h"

namespace rasengan::serve {

struct AdmissionLimits
{
    size_t maxQueuedJobs = 1024;    ///< bounded queue (backpressure)
    int maxQubits = 26;             ///< dense/sparse simulability cap
    uint64_t maxShotsPerJob = 1u << 20;
    int maxIterationsPerJob = 5000;
    double maxJobCostUnits = 5e7;   ///< single-job ceiling
    double maxBatchCostUnits = 5e8; ///< sum over admitted jobs
};

/**
 * The knobs every serving front end shares -- the batch scheduler, the
 * daemon and the cluster coordinator embed this as their base, so each
 * driver binds --threads, --batch-seed, --cache-mb and the --max-*
 * limits once.
 */
struct ServiceOptions
{
    /** Job-pool threads, applied once before jobs run (by the batch
     *  scheduler, or by each cluster worker at hello); 0 keeps the
     *  current (RASENGAN_THREADS / hardware) configuration.  The
     *  daemon runs one job at a time and ignores it. */
    int threads = 0;
    /** Mixed into every job's child seed; same batch seed + same
     *  requests -> same results. */
    uint64_t batchSeed = 0;
    /** Artifact cache LRU budget in bytes; 0 disables caching. */
    uint64_t cacheBudgetBytes = 64ull << 20;
    AdmissionLimits limits;
};

/**
 * Coarse work estimate for @p req on a problem with @p num_vars
 * variables.  Exact execution pays the sparse-state footprint
 * (bounded by 2^n); shot-based execution pays shots; gate-level noisy
 * execution additionally pays statevector trajectories (2^n amplitudes
 * per trajectory).  All scaled by the optimizer evaluation budget.
 */
double estimateJobCost(const JobRequest &req, int num_vars);

/** Outcome of one admission decision. */
struct AdmissionDecision
{
    bool admitted = false;
    std::string reason; ///< set when !admitted
    double costUnits = 0.0;
};

/**
 * Stateful gate: tracks queued-job count and admitted batch cost.
 * admit() is single-producer (the scheduler's serial submit phase);
 * release() is called concurrently from pool threads as jobs finish,
 * so the queued-job count is atomic.
 */
class AdmissionController
{
  public:
    explicit AdmissionController(AdmissionLimits limits);

    /** Decide on @p req; admission reserves queue + cost capacity. */
    AdmissionDecision admit(const JobRequest &req, int num_vars);

    /**
     * Swap the limits (daemon SIGHUP policy reload).  Must be called
     * from the thread that calls admit() -- in the daemon both run on
     * the IO thread -- because limits_ is read without a lock there.
     * Committed batch cost and queue occupancy carry over unchanged.
     */
    void updateLimits(const AdmissionLimits &limits) { limits_ = limits; }

    /** Release one queue slot (job finished); cost stays reserved. */
    void release();

    /**
     * Return @p cost_units to the budget (daemon mode: a finished job
     * frees its share, so maxBatchCostUnits bounds cost *in flight*
     * rather than cost-ever-admitted).  Batch mode never calls this,
     * keeping its cost-per-batch semantics.  Thread-safe.
     */
    void releaseCost(double cost_units);

    size_t
    queuedJobs() const
    {
        return queuedJobs_.load(std::memory_order_relaxed);
    }

    double
    batchCostUnits() const
    {
        return batchCost_.load(std::memory_order_relaxed);
    }

    const AdmissionLimits &limits() const { return limits_; }

  private:
    AdmissionLimits limits_;
    std::atomic<size_t> queuedJobs_{0};
    /** Atomic: the daemon admits on its IO thread while the worker
     *  releases cost as jobs finish. */
    std::atomic<double> batchCost_{0.0};
};

} // namespace rasengan::serve

#endif // RASENGAN_SERVE_ADMISSION_H
