/**
 * @file
 * Batch solve service job schema: JobRequest (one JSONL line in),
 * JobResult (one deterministic JSONL line out + one telemetry line).
 *
 * A request names a problem (suite benchmark id + case, or an inline
 * problems::io text) and a solver configuration (rasengan or one of the
 * baseline VQAs).  canonicalRequestText() renders every semantically
 * relevant field -- and the canonical problem text, but NOT the job id
 * -- in a fixed order; the scheduler hashes it to derive the job's
 * child seed and result identity, so two requests for the same work
 * produce bit-identical results regardless of id, submission order, or
 * scheduling.
 *
 * writeResult() is deterministic (no timing fields); telemetry (queue
 * wait, wall time, cache hits, retries) goes to a separate line via
 * writeTelemetry() so result files can be byte-compared across thread
 * counts in CI.
 */

#ifndef RASENGAN_SERVE_JOB_H
#define RASENGAN_SERVE_JOB_H

#include <cstdint>
#include <string>

namespace rasengan::serve {

struct JobRequest
{
    std::string id; ///< caller's correlation id; excluded from hashing

    /// @name Problem selection (exactly one of benchmark/problemText)
    /// @{
    std::string benchmark;   ///< suite id (problems::isBenchmarkId)
    uint64_t caseIndex = 0;  ///< benchmark case selector
    std::string problemText; ///< inline problems::io serialization
    /// @}

    /// @name Solver configuration
    /// @{
    std::string algorithm = "rasengan"; ///< rasengan|chocoq|pqaoa|hea
    int iterations = 60;
    uint64_t seed = 7; ///< folded into the batch child-seed derivation
    std::string optimizer = "cobyla"; ///< cobyla|nelder-mead|spsa|adam-spsa
    std::string execution = "exact";  ///< exact|sampled|noisy|gate
    std::string noise = "none";       ///< none|kyiv|brisbane
    uint64_t shots = 1024;
    /// @}

    /// @name Rasengan pipeline knobs (ignored by the baselines)
    /// @{
    int transitionsPerSegment = 3;
    bool simplify = true;
    bool prune = true;
    bool purify = true;
    double shotGrowth = 1.0;
    /// @}

    /// @name Baseline knobs (ignored by rasengan)
    /// @{
    double penaltyLambda = -1.0; ///< <0: family default
    int layers = 3;
    /// @}

    /// @name Resilience
    /// @{
    double faultRate = 0.0;
    int maxAttempts = 5;
    /// @}

    /// @name Scheduling metadata (daemon SLO layer)
    ///
    /// Deliberately EXCLUDED from canonicalRequestText: priority and
    /// deadlines shape when a job runs, never what it computes, so two
    /// requests for the same work keep the same child seed (and thus
    /// byte-identical results) regardless of urgency.  A journal replay
    /// after a crash re-runs jobs without their long-expired deadlines
    /// for the same reason.
    /// @{
    std::string priority = "batch"; ///< interactive|batch|best-effort
    double deadlineMs = 0.0; ///< accept-to-done SLO target; 0 = none
    double timeoutMs = 0.0;  ///< per-job wall-clock cap; 0 = none
    /// @}

    /// @name Distributed-trace hint (cluster coordinator -> worker)
    ///
    /// The job's 32-hex 128-bit trace id, minted deterministically at
    /// admission, carried so worker spans stitch under the same trace.
    /// Like priority it is EXCLUDED from canonicalRequestText:
    /// tracing observes what a job does, never changes it, so the
    /// child seed and result bytes cannot depend on it.  Empty = mint
    /// locally at admission.
    /// @{
    std::string traceHint; ///< request key "trace"
    /// @}
};

struct JobTelemetry
{
    double queueWaitMs = 0.0; ///< submit -> job start
    double wallMs = 0.0;      ///< job start -> job end
    uint64_t cacheHits = 0;
    uint64_t cacheMisses = 0;
    uint64_t retries = 0;
    uint64_t attempts = 0;
    std::string degradation = "Full";
    bool deadlineHit = false; ///< stopped by the wall-clock timeout
    std::string priority = "batch";

    /// @name Per-domain artifact-cache attribution
    ///
    /// Hits/misses split by cache domain (pipeline/circuit), the
    /// per-job counterpart of the registry's labeled domain counters --
    /// the global hit rate hides which layer of reuse a job exercised.
    /// @{
    uint64_t cachePipelineHits = 0, cachePipelineMisses = 0;
    uint64_t cacheCircuitHits = 0, cacheCircuitMisses = 0;
    /// @}

    /** Peak sparse-simulator support observed (support-growth
     *  summary). */
    uint64_t supportMax = 0;

    /** Distributed trace id this job ran under ("" when untraced). */
    std::string traceId;
};

struct JobResult
{
    std::string id;

    /// @name Admission
    /// @{
    bool accepted = false;
    std::string rejectReason; ///< set when !accepted
    /** Machine-readable rejection class when !accepted: "validation",
     *  "admission", or "deadline-unmeetable" (load shed). */
    std::string rejectCode;
    double costUnits = 0.0;   ///< admission cost estimate
    /// @}

    /// @name Solve outcome (meaningful when accepted)
    /// @{
    bool ok = false;
    std::string error; ///< set when accepted && !ok
    std::string problemId;
    int numVars = 0;
    std::string solution; ///< best feasible bitstring ("" on failure)
    double objective = 0.0;
    double expectedObjective = 0.0;
    double inConstraintsRate = 0.0;
    int chainLength = 0; ///< rasengan only
    int numSegments = 0; ///< rasengan only
    int numParams = 0;
    uint64_t childSeed = 0;
    std::string resultHash; ///< 16-hex digest of the payload fields
    /// @}

    JobTelemetry telemetry;
};

struct RequestParseResult
{
    bool ok = false;
    std::string error;
    JobRequest request;
};

/** Parse one request line; unknown keys are an error (typo guard). */
RequestParseResult parseRequest(const std::string &line);

/** Render @p req as a request line (workload generator, round-trips). */
std::string writeRequest(const JobRequest &req);

/**
 * Check enumeration fields and basic ranges; returns false and sets
 * @p error on the first violation.  Does not touch the problem.
 */
bool validateRequest(const JobRequest &req, std::string *error);

/**
 * Fixed-order canonical rendering of every semantically relevant field
 * of @p req plus @p canonical_problem (problems::canonicalProblemText).
 * Excludes the job id.  Equal logical work -> equal bytes.
 */
std::string canonicalRequestText(const JobRequest &req,
                                 const std::string &canonical_problem);

/** Deterministic result line: no timing or telemetry fields. */
std::string writeResult(const JobResult &result);

/** Telemetry line for @p result (timings, cache counters, retries). */
std::string writeTelemetry(const JobResult &result);

} // namespace rasengan::serve

#endif // RASENGAN_SERVE_JOB_H
