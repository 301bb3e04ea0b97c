#include "serve/job.h"

#include <cmath>
#include <cstdio>
#include <set>
#include <sstream>

#include "serve/jsonl.h"

namespace rasengan::serve {

namespace {

const std::set<std::string> kAlgorithms = {"rasengan", "chocoq", "pqaoa",
                                           "hea"};
const std::set<std::string> kOptimizers = {"cobyla", "nelder-mead", "spsa",
                                           "adam-spsa"};
const std::set<std::string> kExecutions = {"exact", "sampled", "noisy",
                                            "gate"};
const std::set<std::string> kNoises = {"none", "kyiv", "brisbane"};
const std::set<std::string> kPriorities = {"interactive", "batch",
                                           "best-effort"};

const std::set<std::string> kKnownKeys = {
    "id",         "benchmark",  "case",       "problem",
    "algorithm",  "iterations", "seed",       "optimizer",
    "execution",  "noise",      "shots",      "transitions_per_segment",
    "simplify",   "prune",      "purify",     "shot_growth",
    "penalty_lambda", "layers", "fault_rate", "max_attempts",
    "priority",   "deadline_ms", "timeout_ms", "trace",
};

bool
getString(const JsonObject &obj, const std::string &key, std::string &out,
          std::string &err)
{
    auto it = obj.find(key);
    if (it == obj.end())
        return true;
    if (it->second.kind != JsonValue::Kind::String) {
        err = "\"" + key + "\" must be a string";
        return false;
    }
    out = it->second.str;
    return true;
}

bool
getNumber(const JsonObject &obj, const std::string &key, double &out,
          std::string &err)
{
    auto it = obj.find(key);
    if (it == obj.end())
        return true;
    if (it->second.kind != JsonValue::Kind::Number) {
        err = "\"" + key + "\" must be a number";
        return false;
    }
    out = it->second.num;
    return true;
}

bool
getBool(const JsonObject &obj, const std::string &key, bool &out,
        std::string &err)
{
    auto it = obj.find(key);
    if (it == obj.end())
        return true;
    if (it->second.kind != JsonValue::Kind::Bool) {
        err = "\"" + key + "\" must be a boolean";
        return false;
    }
    out = it->second.flag;
    return true;
}

bool
toInt(double v, int &out, const char *what, std::string &err)
{
    if (v != std::floor(v) || v < -2147483648.0 || v > 2147483647.0) {
        err = std::string(what) + " must be an integer";
        return false;
    }
    out = static_cast<int>(v);
    return true;
}

bool
toU64(double v, uint64_t &out, const char *what, std::string &err)
{
    if (v != std::floor(v) || v < 0.0 || v > 9.0e15) {
        err = std::string(what) + " must be a non-negative integer";
        return false;
    }
    out = static_cast<uint64_t>(v);
    return true;
}

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

RequestParseResult
parseRequest(const std::string &line)
{
    RequestParseResult result;
    JsonParseResult parsed = parseFlatJson(line);
    if (!parsed.ok) {
        result.error = "bad request JSON at byte " +
                       std::to_string(parsed.errorOffset) + ": " +
                       parsed.error;
        return result;
    }
    for (const auto &[key, value] : parsed.object) {
        (void)value;
        if (kKnownKeys.find(key) == kKnownKeys.end()) {
            result.error = "unknown request key \"" + key + "\"";
            return result;
        }
    }

    JobRequest &req = result.request;
    std::string &err = result.error;
    double num;

    if (!getString(parsed.object, "id", req.id, err) ||
        !getString(parsed.object, "benchmark", req.benchmark, err) ||
        !getString(parsed.object, "problem", req.problemText, err) ||
        !getString(parsed.object, "algorithm", req.algorithm, err) ||
        !getString(parsed.object, "optimizer", req.optimizer, err) ||
        !getString(parsed.object, "execution", req.execution, err) ||
        !getString(parsed.object, "noise", req.noise, err) ||
        !getBool(parsed.object, "simplify", req.simplify, err) ||
        !getBool(parsed.object, "prune", req.prune, err) ||
        !getBool(parsed.object, "purify", req.purify, err))
        return result;

    num = static_cast<double>(req.caseIndex);
    if (!getNumber(parsed.object, "case", num, err) ||
        !toU64(num, req.caseIndex, "\"case\"", err))
        return result;
    num = static_cast<double>(req.iterations);
    if (!getNumber(parsed.object, "iterations", num, err) ||
        !toInt(num, req.iterations, "\"iterations\"", err))
        return result;
    num = static_cast<double>(req.seed);
    if (!getNumber(parsed.object, "seed", num, err) ||
        !toU64(num, req.seed, "\"seed\"", err))
        return result;
    num = static_cast<double>(req.shots);
    if (!getNumber(parsed.object, "shots", num, err) ||
        !toU64(num, req.shots, "\"shots\"", err))
        return result;
    num = static_cast<double>(req.transitionsPerSegment);
    if (!getNumber(parsed.object, "transitions_per_segment", num, err) ||
        !toInt(num, req.transitionsPerSegment,
               "\"transitions_per_segment\"", err))
        return result;
    num = static_cast<double>(req.layers);
    if (!getNumber(parsed.object, "layers", num, err) ||
        !toInt(num, req.layers, "\"layers\"", err))
        return result;
    num = static_cast<double>(req.maxAttempts);
    if (!getNumber(parsed.object, "max_attempts", num, err) ||
        !toInt(num, req.maxAttempts, "\"max_attempts\"", err))
        return result;
    if (!getNumber(parsed.object, "shot_growth", req.shotGrowth, err) ||
        !getNumber(parsed.object, "penalty_lambda", req.penaltyLambda,
                   err) ||
        !getNumber(parsed.object, "fault_rate", req.faultRate, err))
        return result;
    if (!getString(parsed.object, "priority", req.priority, err) ||
        !getNumber(parsed.object, "deadline_ms", req.deadlineMs, err) ||
        !getNumber(parsed.object, "timeout_ms", req.timeoutMs, err) ||
        !getString(parsed.object, "trace", req.traceHint, err))
        return result;

    result.ok = true;
    return result;
}

std::string
writeRequest(const JobRequest &req)
{
    JsonWriter w;
    w.field("id", req.id);
    if (!req.benchmark.empty()) {
        w.field("benchmark", req.benchmark);
        w.field("case", req.caseIndex);
    }
    if (!req.problemText.empty())
        w.field("problem", req.problemText);
    w.field("algorithm", req.algorithm)
        .field("iterations", req.iterations)
        .field("seed", req.seed)
        .field("optimizer", req.optimizer)
        .field("execution", req.execution)
        .field("noise", req.noise)
        .field("shots", req.shots)
        .field("transitions_per_segment", req.transitionsPerSegment);
    w.boolean("simplify", req.simplify)
        .boolean("prune", req.prune)
        .boolean("purify", req.purify);
    w.field("shot_growth", req.shotGrowth)
        .field("penalty_lambda", req.penaltyLambda)
        .field("layers", req.layers)
        .field("fault_rate", req.faultRate)
        .field("max_attempts", req.maxAttempts);
    // Scheduling metadata: defaults are omitted so pre-daemon request
    // files round-trip byte-identically.
    if (req.priority != "batch")
        w.field("priority", req.priority);
    if (req.deadlineMs > 0.0)
        w.field("deadline_ms", req.deadlineMs);
    if (req.timeoutMs > 0.0)
        w.field("timeout_ms", req.timeoutMs);
    // Trace hint: observability metadata (never hashed), omitted when
    // empty so untraced request files round-trip byte-identically.
    if (!req.traceHint.empty())
        w.field("trace", req.traceHint);
    return w.str();
}

bool
validateRequest(const JobRequest &req, std::string *error)
{
    auto fail = [error](const std::string &why) {
        if (error)
            *error = why;
        return false;
    };
    if (req.benchmark.empty() == req.problemText.empty())
        return fail("exactly one of \"benchmark\" and \"problem\" must "
                    "be set");
    if (kAlgorithms.find(req.algorithm) == kAlgorithms.end())
        return fail("unknown algorithm \"" + req.algorithm + "\"");
    if (kOptimizers.find(req.optimizer) == kOptimizers.end())
        return fail("unknown optimizer \"" + req.optimizer + "\"");
    if (kExecutions.find(req.execution) == kExecutions.end())
        return fail("unknown execution \"" + req.execution + "\"");
    if (kNoises.find(req.noise) == kNoises.end())
        return fail("unknown noise model \"" + req.noise + "\"");
    if (req.iterations < 1)
        return fail("iterations must be >= 1");
    if (req.shots < 1)
        return fail("shots must be >= 1");
    if (req.layers < 1)
        return fail("layers must be >= 1");
    if (req.maxAttempts < 1)
        return fail("max_attempts must be >= 1");
    if (!(req.shotGrowth >= 1.0) || !std::isfinite(req.shotGrowth))
        return fail("shot_growth must be >= 1");
    if (!(req.faultRate >= 0.0) || !(req.faultRate < 1.0))
        return fail("fault_rate must be in [0, 1)");
    if (!std::isfinite(req.penaltyLambda))
        return fail("penalty_lambda must be finite");
    if (kPriorities.find(req.priority) == kPriorities.end())
        return fail("unknown priority \"" + req.priority + "\"");
    if (!(req.deadlineMs >= 0.0) || !std::isfinite(req.deadlineMs))
        return fail("deadline_ms must be >= 0");
    if (!(req.timeoutMs >= 0.0) || !std::isfinite(req.timeoutMs))
        return fail("timeout_ms must be >= 0");
    return true;
}

std::string
canonicalRequestText(const JobRequest &req,
                     const std::string &canonical_problem)
{
    // Line-per-field, fixed order, canonical problem bytes appended
    // last.  The id is deliberately absent: it is correlation metadata,
    // not part of the work.
    std::ostringstream out;
    out << "algorithm=" << req.algorithm << "\n"
        << "iterations=" << req.iterations << "\n"
        << "seed=" << req.seed << "\n"
        << "optimizer=" << req.optimizer << "\n"
        << "execution=" << req.execution << "\n"
        << "noise=" << req.noise << "\n"
        << "shots=" << req.shots << "\n"
        << "transitions_per_segment=" << req.transitionsPerSegment << "\n"
        << "simplify=" << (req.simplify ? 1 : 0) << "\n"
        << "prune=" << (req.prune ? 1 : 0) << "\n"
        << "purify=" << (req.purify ? 1 : 0) << "\n"
        << "shot_growth=" << fmtDouble(req.shotGrowth) << "\n"
        << "penalty_lambda=" << fmtDouble(req.penaltyLambda) << "\n"
        << "layers=" << req.layers << "\n"
        << "fault_rate=" << fmtDouble(req.faultRate) << "\n"
        << "max_attempts=" << req.maxAttempts << "\n"
        << "problem:\n"
        << canonical_problem;
    return out.str();
}

std::string
writeResult(const JobResult &result)
{
    JsonWriter w;
    w.field("id", result.id);
    w.boolean("accepted", result.accepted);
    if (!result.accepted) {
        w.field("reject_reason", result.rejectReason);
        if (!result.rejectCode.empty())
            w.field("reject_code", result.rejectCode);
        w.field("cost_units", result.costUnits);
        return w.str();
    }
    w.field("cost_units", result.costUnits);
    w.boolean("ok", result.ok);
    if (!result.ok)
        w.field("error", result.error);
    w.field("problem_id", result.problemId)
        .field("num_vars", result.numVars)
        .field("solution", result.solution)
        .field("objective", result.objective)
        .field("expected_objective", result.expectedObjective)
        .field("in_constraints_rate", result.inConstraintsRate)
        .field("chain_length", result.chainLength)
        .field("num_segments", result.numSegments)
        .field("num_params", result.numParams)
        .field("child_seed", result.childSeed)
        .field("result_hash", result.resultHash);
    return w.str();
}

std::string
writeTelemetry(const JobResult &result)
{
    JsonWriter w;
    w.field("id", result.id);
    w.boolean("accepted", result.accepted);
    w.field("queue_wait_ms", result.telemetry.queueWaitMs)
        .field("wall_ms", result.telemetry.wallMs)
        .field("cache_hits", result.telemetry.cacheHits)
        .field("cache_misses", result.telemetry.cacheMisses)
        .field("retries", result.telemetry.retries)
        .field("attempts", result.telemetry.attempts)
        .field("degradation", result.telemetry.degradation)
        .field("priority", result.telemetry.priority);
    w.boolean("deadline_hit", result.telemetry.deadlineHit);
    // Per-domain cache attribution (global hits/misses above persist
    // for compatibility; these split them by artifact domain).
    w.field("cache_pipeline_hits", result.telemetry.cachePipelineHits)
        .field("cache_pipeline_misses", result.telemetry.cachePipelineMisses)
        .field("cache_circuit_hits", result.telemetry.cacheCircuitHits)
        .field("cache_circuit_misses", result.telemetry.cacheCircuitMisses);
    w.field("support_max", result.telemetry.supportMax);
    if (!result.telemetry.traceId.empty())
        w.field("trace_id", result.telemetry.traceId);
    return w.str();
}

} // namespace rasengan::serve
