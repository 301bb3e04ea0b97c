#include "exec/executor.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace rasengan::exec {

namespace {

/** Process-wide mirrors of the per-executor ExecStats counters. */
struct ExecCounters
{
    obs::Counter &executions = obs::Registry::global().counter(
        "exec_executions_total", "Jobs submitted to the executor");
    obs::Counter &attempts = obs::Registry::global().counter(
        "exec_attempts_total", "Backend attempts including retries");
    obs::Counter &retries = obs::Registry::global().counter(
        "exec_retries_total", "Attempts after the first for a job");
    obs::Counter &failures = obs::Registry::global().counter(
        "exec_failures_total", "Jobs that exhausted every attempt");
    obs::Counter &breakerTrips = obs::Registry::global().counter(
        "exec_breaker_trips_total", "Circuit breaker Closed->Open trips");
    obs::Counter &demotions = obs::Registry::global().counter(
        "exec_demotions_total", "Degradation ladder steps taken");
    obs::Counter &fallbacks = obs::Registry::global().counter(
        "exec_fallbacks_total", "Jobs served by the clean fallback");
    obs::Counter &deadlineHits = obs::Registry::global().counter(
        "exec_deadline_hits_total",
        "Jobs stopped by a deadline or cancellation token");
    obs::Gauge &backoffSeconds = obs::Registry::global().gauge(
        "exec_backoff_seconds", "Total backoff delay (virtual or wall)");
};

ExecCounters &
execCounters()
{
    static ExecCounters counters;
    return counters;
}

} // namespace

const char *
degradationLevelName(DegradationLevel level)
{
    switch (level) {
      case DegradationLevel::Full: return "full";
      case DegradationLevel::ReducedShots: return "reduced-shots";
      case DegradationLevel::NoPurification: return "no-purification";
      case DegradationLevel::CleanFallback: return "clean-fallback";
    }
    return "unknown";
}

ResilientExecutor::ResilientExecutor(ResilienceOptions options)
    : options_(options), breaker_(options.breaker),
      jitterRng_(options.jitterSeed)
{
    if (options_.wallClock)
        clock_ = std::make_unique<WallClock>();
    else
        clock_ = std::make_unique<VirtualClock>();
    backend_ = &simulator_;
    if (options_.faults.enabled()) {
        injector_ = std::make_unique<FaultInjector>(
            simulator_, options_.faults, clock_.get());
        backend_ = injector_.get();
    }
}

bool
ResilientExecutor::stopCheck(const std::string &tag, int attempts_spent,
                             ExecError *err)
{
    const CancelToken *token = options_.cancel;
    if (token == nullptr || !token->stopRequested())
        return false;
    ++stats_.failures;
    ++stats_.deadlineHits;
    execCounters().failures.inc();
    execCounters().deadlineHits.inc();
    obs::instantEvent("exec", "deadline", tag);
    const bool expired = token->deadlineExpired();
    *err = ExecError{expired ? ErrorCode::DeadlineExceeded
                             : ErrorCode::Cancelled,
                     tag + (expired ? ": wall-clock deadline passed"
                                    : ": cancelled"),
                     attempts_spent};
    return true;
}

template <typename Result, typename Job, typename Call>
Expected<Result>
ResilientExecutor::attemptLoop(const Job &job, const Call &call)
{
    ++stats_.executions;
    execCounters().executions.inc();
    const int max_attempts = std::max(options_.retry.maxAttempts, 1);
    ExecError last{ErrorCode::RetriesExhausted, job.tag};

    for (int attempt = 1; attempt <= max_attempts; ++attempt) {
        // Cooperative deadline/cancel checkpoint: checked before every
        // attempt so a retry loop cannot outlive the job's budget.
        if (ExecError stop; stopCheck(job.tag, attempt - 1, &stop))
            return stop;
        if (!breaker_.allow(clock_->now())) {
            ++stats_.failures;
            execCounters().failures.inc();
            return ExecError{ErrorCode::BreakerOpen,
                             job.tag + ": circuit breaker open",
                             attempt - 1};
        }
        ++stats_.attempts;
        execCounters().attempts.inc();
        if (attempt > 1) {
            ++stats_.retries;
            execCounters().retries.inc();
            obs::instantEvent("exec", "retry", job.tag);
        }
        if (job.attemptSeconds > 0.0) {
            if (auto *vc = dynamic_cast<VirtualClock *>(clock_.get()))
                vc->advance(job.attemptSeconds);
        }
        Expected<Result> result = call(job);
        if (result.ok()) {
            breaker_.recordSuccess();
            return result;
        }
        last = result.error();
        last.attempts = attempt;
        const uint64_t trips_before = breaker_.trips();
        breaker_.recordFailure(clock_->now());
        if (breaker_.trips() > trips_before) {
            execCounters().breakerTrips.inc(breaker_.trips() -
                                            trips_before);
            obs::instantEvent("exec", "breaker-trip", job.tag);
        }
        stats_.breakerTrips = breaker_.trips();
        debugLog("exec: {} attempt {}/{} failed ({})", job.tag.c_str(),
                 attempt, max_attempts, last.toString().c_str());
        if (!last.retryable())
            break;
        if (attempt < max_attempts) {
            double delay =
                options_.retry.delaySeconds(attempt, jitterRng_);
            stats_.backoffSeconds += delay;
            execCounters().backoffSeconds.add(delay);
            clock_->sleep(delay);
        }
    }

    ++stats_.failures;
    execCounters().failures.inc();
    stats_.breakerTrips = breaker_.trips();
    return ExecError{ErrorCode::RetriesExhausted,
                     job.tag + ": " + last.toString(), last.attempts};
}

Expected<qsim::Counts>
ResilientExecutor::run(const ShotJob &job)
{
    if (level_ == DegradationLevel::CleanFallback) {
        // Bypass the flaky chain entirely: the clean simulator is the
        // local, trusted stand-in a hybrid stack falls back to.
        ++stats_.executions;
        execCounters().executions.inc();
        if (ExecError stop; stopCheck(job.tag, 0, &stop))
            return stop;
        ++stats_.attempts;
        ++stats_.fallbacks;
        execCounters().attempts.inc();
        execCounters().fallbacks.inc();
        return simulator_.run(job);
    }
    return attemptLoop<qsim::Counts>(
        job, [&](const ShotJob &j) { return backend_->run(j); });
}

Expected<double>
ResilientExecutor::expectation(const ValueJob &job)
{
    if (level_ == DegradationLevel::CleanFallback) {
        ++stats_.executions;
        execCounters().executions.inc();
        if (ExecError stop; stopCheck(job.tag, 0, &stop))
            return stop;
        ++stats_.attempts;
        ++stats_.fallbacks;
        execCounters().attempts.inc();
        execCounters().fallbacks.inc();
        return simulator_.expectation(job);
    }
    return attemptLoop<double>(
        job, [&](const ValueJob &j) { return backend_->expectation(j); });
}

bool
ResilientExecutor::canDemote() const
{
    return options_.degradation &&
           level_ != DegradationLevel::CleanFallback;
}

DegradationLevel
ResilientExecutor::demote(const std::string &reason)
{
    panic_if(!canDemote(), "demote() beyond the ladder");
    level_ = static_cast<DegradationLevel>(static_cast<int>(level_) + 1);
    ++stats_.demotions;
    execCounters().demotions.inc();
    obs::instantEvent("exec", "demote", degradationLevelName(level_));
    stats_.breakerTrips = breaker_.trips();
    breaker_.reset();
    warn(LogTail()
             .kv("level", degradationLevelName(level_))
             .kvText("reason", reason),
         "exec: degrading");
    return level_;
}

uint64_t
ResilientExecutor::degradedShots(uint64_t nominal) const
{
    if (level_ == DegradationLevel::Full ||
        level_ == DegradationLevel::CleanFallback) {
        return nominal;
    }
    double scaled = static_cast<double>(nominal) *
                    std::clamp(options_.shotsDemotionFactor, 0.01, 1.0);
    return std::max<uint64_t>(1, static_cast<uint64_t>(scaled));
}

bool
ResilientExecutor::purificationDisabled() const
{
    return level_ == DegradationLevel::NoPurification;
}

const FaultStats *
ResilientExecutor::faultStats() const
{
    return injector_ ? &injector_->stats() : nullptr;
}

} // namespace rasengan::exec
