/**
 * @file
 * Structured execution errors for the resilient execution engine.
 *
 * Library code below `src/exec/` never aborts on a backend failure:
 * every circuit execution returns `Expected<T, ExecError>` and the
 * caller decides whether to retry, degrade, or surface the error.  The
 * error taxonomy mirrors the transient failures of a cloud QPU stack:
 * job timeouts, backend outages, partial shot loss, corrupted count
 * histograms flagged by backend-side validation, and non-finite
 * expectation values.
 */

#ifndef RASENGAN_EXEC_ERROR_H
#define RASENGAN_EXEC_ERROR_H

#include <string>

namespace rasengan::exec {

enum class ErrorCode {
    Timeout,            ///< the execution exceeded its deadline
    BackendUnavailable, ///< transient outage / queue rejection
    ShotLoss,           ///< histogram returned fewer shots than requested
    CorruptedCounts,    ///< backend-side validation flagged the histogram
    NonFiniteValue,     ///< expectation evaluated to NaN/Inf
    BreakerOpen,        ///< circuit breaker rejected the call
    RetriesExhausted,   ///< bounded retry budget spent without success
    InvalidJob,         ///< malformed job description (not retryable)
    CheckpointCorrupt,  ///< checkpoint file failed to parse/validate
    DeadlineExceeded,   ///< per-job wall-clock deadline passed
    Cancelled,          ///< cooperative cancellation (drain, client gone)
};

/** Human-readable name of @p code (stable, used in logs and tests). */
const char *errorCodeName(ErrorCode code);

struct ExecError
{
    ErrorCode code = ErrorCode::BackendUnavailable;
    std::string message;
    int attempts = 1; ///< attempts spent before this error was returned

    /** Transient errors may be retried; structural ones may not. */
    bool
    retryable() const
    {
        return code != ErrorCode::InvalidJob &&
               code != ErrorCode::RetriesExhausted &&
               code != ErrorCode::CheckpointCorrupt &&
               code != ErrorCode::DeadlineExceeded &&
               code != ErrorCode::Cancelled;
    }

    /** The job's cancel token tripped: a deadline or a cancellation. */
    bool
    stopped() const
    {
        return code == ErrorCode::DeadlineExceeded ||
               code == ErrorCode::Cancelled;
    }

    std::string toString() const;
};

} // namespace rasengan::exec

#endif // RASENGAN_EXEC_ERROR_H
