/**
 * @file
 * Deadline/SLO-aware dispatch for the serve daemon.
 *
 * The daemon runs jobs serially on one worker (each job's simulation is
 * serial too), so "scheduling" reduces to two
 * decisions made here:
 *
 *  1. *Ordering*: which queued job runs next.  Strict priority classes
 *     (interactive > batch > best-effort); within a class, earliest
 *     deadline first; jobs without deadlines after those with, FIFO by
 *     arrival as the final tiebreak.  Arrival order -- not wall time --
 *     breaks ties, so dispatch order is a pure function of the request
 *     stream.
 *
 *  2. *Shedding*: whether to reject a job whose deadline the backlog
 *     already makes unmeetable.  The predictor converts the admission
 *     cost model's abstract units into seconds via a calibrated
 *     `costUnitsPerSecond` rate and compares (backlog + job) time
 *     against the deadline with a safety margin.  A hopeless job is
 *     rejected at accept time with reject_code "deadline-unmeetable"
 *     instead of burning worker time to miss anyway.
 *
 * Scheduling metadata never feeds the result bytes: priority and
 * deadline are excluded from the canonical request text, so a job that
 * *does* run produces the same result line regardless of urgency.
 */

#ifndef RASENGAN_SERVE_SLO_H
#define RASENGAN_SERVE_SLO_H

#include <cstdint>
#include <deque>
#include <string>

namespace rasengan::serve {

/** Priority classes, highest first.  Wire names in priorityName(). */
enum class Priority { Interactive = 0, Batch = 1, BestEffort = 2 };

/** Parse a wire name ("interactive" | "batch" | "best-effort");
 *  returns false on anything else. */
bool parsePriority(const std::string &name, Priority *out);

const char *priorityName(Priority p);

/** Tuning for the shed predictor. */
struct SloPolicy
{
    /**
     * Calibrated throughput of the worker in admission cost units per
     * second.  The default is deliberately generous (sheds only
     * hopeless jobs); operators calibrate it from the
     * serve_job_wall_ms / cost-unit telemetry of their own hardware.
     */
    double costUnitsPerSecond = 1e6;
    /** Fraction of the deadline kept as safety margin: a job is shed
     *  when predicted completion exceeds deadline * (1 - margin). */
    double shedMargin = 0.1;
};

/** One queued job as the dispatcher sees it. */
struct SloJob
{
    uint64_t seq = 0;        ///< journal sequence (identity + FIFO order)
    Priority priority = Priority::Batch;
    double deadlineMs = 0.0; ///< relative to acceptance; 0 = none
    double costUnits = 0.0;  ///< admission cost estimate
    uint64_t arrival = 0;    ///< monotone acceptance counter (FIFO key)
};

/** Outcome of a shed decision. */
struct ShedDecision
{
    bool shed = false;
    std::string reason; ///< structured, human-readable (set when shed)
    double predictedMs = 0.0; ///< predicted completion, ms from now
};

/**
 * Priority + EDF + FIFO ready queue.  Not thread-safe: the daemon
 * mutates it only under its queue mutex.
 */
class DeadlineQueue
{
  public:
    void push(const SloJob &job);

    bool empty() const { return jobs_.empty(); }
    size_t size() const { return jobs_.size(); }

    /** Remove and return the next job to run (queue must be non-empty). */
    SloJob pop();

    /** Smallest deadline over queued jobs, or 0 when none have one. */
    double earliestDeadlineMs() const;

    /** Sum of queued cost units (the backlog the predictor charges). */
    double backlogCostUnits() const;

    /** Drop every queued job, returning them (daemon shutdown path). */
    std::deque<SloJob> drain();

  private:
    bool before(const SloJob &a, const SloJob &b) const;

    std::deque<SloJob> jobs_;
};

/**
 * Predict whether @p job can meet its deadline given @p backlog_cost
 * units queued ahead of it (plus @p running_cost still executing), and
 * shed it if not.  Jobs without a deadline are never shed.
 */
ShedDecision shedDecision(const SloJob &job, double backlog_cost,
                          double running_cost, const SloPolicy &policy);

} // namespace rasengan::serve

#endif // RASENGAN_SERVE_SLO_H
