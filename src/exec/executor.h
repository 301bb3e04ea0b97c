/**
 * @file
 * Resilient executor: retry/backoff + circuit breaker + degradation.
 *
 * Wraps an ExecBackend chain (simulator, optionally behind a fault
 * injector) and executes jobs with:
 *
 *  1. bounded retries with exponential backoff + deterministic jitter,
 *     spent on a Clock (virtual by default, so tests are instant and
 *     the accumulated delay feeds the quantum-latency estimate);
 *  2. a circuit breaker that fails fast out of a retry loop after
 *     `failureThreshold` consecutive attempt failures;
 *  3. a graceful-degradation ladder consulted by the solvers when an
 *     execution still fails after retries: reduce per-segment shots ->
 *     disable purification -> fall back to the clean simulator (bypass
 *     the faulty backend).  Each demotion is logged and counted.
 *
 * The executor is deliberately solver-agnostic: it owns the ladder
 * *state*; the solver applies the level's meaning (shots, purification)
 * when it rebuilds the job.
 */

#ifndef RASENGAN_EXEC_EXECUTOR_H
#define RASENGAN_EXEC_EXECUTOR_H

#include <memory>

#include "exec/backend.h"
#include "exec/breaker.h"
#include "exec/cancel.h"
#include "exec/clock.h"
#include "exec/faults.h"
#include "exec/retry.h"

namespace rasengan::exec {

/** Degradation ladder, in demotion order. */
enum class DegradationLevel {
    Full = 0,          ///< nominal execution
    ReducedShots = 1,  ///< per-segment shots scaled down
    NoPurification = 2,///< purification disabled from here on
    CleanFallback = 3, ///< bypass the faulty backend entirely
};

const char *degradationLevelName(DegradationLevel level);

struct ResilienceOptions
{
    RetryPolicy retry;
    CircuitBreaker::Options breaker;
    FaultProfile faults;         ///< rate 0 disables injection
    bool degradation = true;     ///< enable the ladder
    double shotsDemotionFactor = 0.5; ///< ReducedShots multiplier
    uint64_t jitterSeed = 0x8ACC0FF;  ///< backoff jitter stream
    bool wallClock = false;      ///< real sleeps instead of virtual time
    /**
     * Unread: the simulators run serial loops, so a single solve has
     * no threads to set.  Kept only because the end-to-end harness
     * still assigns it; deleted together with that assignment.
     */
    int threads = 0;
    /**
     * Cooperative cancellation/deadline token, checked before every
     * backend attempt (the solvers add further checkpoints between
     * segment evolutions).  Non-owning: the serve daemon keeps one
     * token per in-flight job; nullptr disables the checks.  A tripped
     * token fails the job with ErrorCode::DeadlineExceeded or
     * ErrorCode::Cancelled -- neither is retryable.
     */
    const CancelToken *cancel = nullptr;
};

struct ExecStats
{
    uint64_t executions = 0; ///< logical jobs submitted
    uint64_t attempts = 0;   ///< backend attempts (>= executions)
    uint64_t retries = 0;    ///< attempts beyond the first
    uint64_t failures = 0;   ///< jobs that exhausted retries/breaker
    uint64_t fallbacks = 0;  ///< jobs served by the clean-fallback path
    uint64_t deadlineHits = 0; ///< jobs stopped by a deadline/cancel token
    int demotions = 0;       ///< ladder steps taken
    uint64_t breakerTrips = 0;
    double backoffSeconds = 0.0; ///< clock time spent sleeping
};

class ResilientExecutor
{
  public:
    /**
     * Builds the backend chain: a SimulatorBackend, decorated by a
     * FaultInjector when `options.faults.rate > 0`.
     */
    explicit ResilientExecutor(ResilienceOptions options = {});

    /** Execute with retries; never aborts. */
    Expected<qsim::Counts> run(const ShotJob &job);
    Expected<double> expectation(const ValueJob &job);

    /// @name Degradation ladder
    /// @{
    DegradationLevel level() const { return level_; }
    bool canDemote() const;
    /** Step the ladder down one level; returns the new level. */
    DegradationLevel demote(const std::string &reason);
    /** Effective shots for a nominal request at the current level. */
    uint64_t degradedShots(uint64_t nominal) const;
    /** Has the ladder disabled purification? */
    bool purificationDisabled() const;
    /// @}

    const ExecStats &stats() const { return stats_; }
    const FaultStats *faultStats() const;
    const ResilienceOptions &options() const { return options_; }

    /**
     * Modeled seconds accumulated on the clock (attempt durations,
     * injected timeouts, and backoff sleeps); the solvers add this to
     * their quantum-latency estimate.
     */
    double elapsedSeconds() const { return clock_->now(); }

    Clock &clock() { return *clock_; }

  private:
    template <typename Result, typename Job, typename Call>
    Expected<Result> attemptLoop(const Job &job, const Call &call);

    /**
     * Cooperative deadline/cancel checkpoint.  When the options' token
     * has tripped, records the failure and fills @p err (attempts set
     * to @p attempts_spent) and returns true.
     */
    bool stopCheck(const std::string &tag, int attempts_spent,
                   ExecError *err);

    ResilienceOptions options_;
    std::unique_ptr<Clock> clock_;
    SimulatorBackend simulator_;
    std::unique_ptr<FaultInjector> injector_;
    ExecBackend *backend_; ///< top of the decorator chain
    CircuitBreaker breaker_;
    Rng jitterRng_;
    DegradationLevel level_ = DegradationLevel::Full;
    ExecStats stats_;
};

} // namespace rasengan::exec

#endif // RASENGAN_EXEC_EXECUTOR_H
