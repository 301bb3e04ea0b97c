#include "serve/runner.h"

#include <cstdio>
#include <optional>
#include <sstream>
#include <utility>

#include "baselines/chocoq.h"
#include "baselines/hea.h"
#include "baselines/pqaoa.h"
#include "circuit/transpile.h"
#include "common/logging.h"
#include "core/rasengan.h"
#include "device/device.h"
#include "problems/io.h"
#include "obs/metrics.h"
#include "problems/suite.h"
#include "serve/admission.h"
#include "serve/cachekey.h"

namespace rasengan::serve {

namespace {

std::optional<opt::Method>
parseOptimizer(const std::string &name)
{
    if (name == "cobyla")
        return opt::Method::Cobyla;
    if (name == "nelder-mead")
        return opt::Method::NelderMead;
    if (name == "spsa")
        return opt::Method::Spsa;
    if (name == "adam-spsa")
        return opt::Method::AdamSpsa;
    return std::nullopt;
}

qsim::NoiseModel
parseNoiseModel(const std::string &name)
{
    if (name == "kyiv")
        return device::DeviceModel::ibmKyiv().toNoiseModel();
    if (name == "brisbane")
        return device::DeviceModel::ibmBrisbane().toNoiseModel();
    return qsim::NoiseModel{};
}

uint64_t
estimatePipelineBytes(const core::PipelineArtifacts &artifacts)
{
    uint64_t bytes = 256;
    for (const auto &t : artifacts.transitions)
        bytes += 64 + static_cast<uint64_t>(t.numVars()) * 40;
    bytes += (artifacts.chain.steps.size() +
              artifacts.chain.unprunedSteps.size()) *
             24;
    bytes += (artifacts.chain.coverage.size() +
              artifacts.chain.unprunedCoverage.size()) *
             8;
    bytes += artifacts.segments.size() * 16;
    bytes += artifacts.segmentCosts.size() * sizeof(core::SegmentCost);
    return bytes;
}

uint64_t
estimateCircuitBytes(const circuit::Circuit &circ)
{
    return 64 + static_cast<uint64_t>(circ.size()) * 80;
}

std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
hex16(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Content digest of the deterministic payload of @p r (16 hex). */
std::string
hashResult(const JobResult &r)
{
    std::ostringstream s;
    s << r.solution << "|" << fmtDouble(r.objective) << "|"
      << fmtDouble(r.expectedObjective) << "|"
      << fmtDouble(r.inConstraintsRate) << "|" << r.chainLength << "|"
      << r.numSegments << "|" << r.numParams << "|" << r.childSeed << "|"
      << (r.ok ? 1 : 0);
    return hex16(fnv1a64(s.str()));
}

exec::ResilienceOptions
makeResilience(const JobRequest &req, uint64_t child_seed,
               const exec::CancelToken *cancel)
{
    exec::ResilienceOptions r;
    r.faults.rate = req.faultRate;
    r.faults.seed = child_seed ^ 0xFA17;
    r.retry.maxAttempts = req.maxAttempts;
    r.jitterSeed = mixSeed(child_seed ^ 0x8ACC0FF);
    r.wallClock = false; // virtual backoff: no timing nondeterminism
    r.cancel = cancel;
    return r;
}

/**
 * Deterministic 128-bit (32-hex) distributed trace id for @p job: a
 * pure function of the job's child seed and its correlation id, so two
 * submissions of equal work under different job ids still get distinct
 * traces.  The domain constant keeps trace ids disjoint from every
 * seed-derivation stream.
 */
std::string
traceIdForJob(const PreparedJob &job)
{
    uint64_t hi = mixSeed(job.childSeed ^ 0x7261636554726163ull);
    uint64_t lo = mixSeed(hi ^ fnv1a64(job.req.id));
    return hex16(hi) + hex16(lo);
}

struct JobMetrics
{
    obs::Counter &completed = obs::Registry::global().counter(
        "serve_jobs_completed_total", "Jobs finished by the scheduler");
    obs::Histogram &wallMs = obs::Registry::global().histogram(
        "serve_job_wall_ms", "Per-job run time in milliseconds");
    obs::Histogram &queueWaitMs = obs::Registry::global().histogram(
        "serve_job_queue_wait_ms",
        "Submission-to-start wait in milliseconds");
};

JobMetrics &
jobMetrics()
{
    static JobMetrics metrics;
    return metrics;
}

} // namespace

JobRunner::JobRunner(RunnerOptions options,
                     std::shared_ptr<ArtifactCache> cache)
    : options_(std::move(options)), cache_(std::move(cache))
{
    panic_if(cache_ == nullptr, "JobRunner requires an artifact cache");
}

PrepareOutcome
JobRunner::prepare(const JobRequest &req) const
{
    PrepareOutcome out;
    std::string err;
    if (!validateRequest(req, &err)) {
        out.error = err;
        return out;
    }

    // Materialize the problem up front: a malformed problem should be
    // a rejection at the door, not a mid-flight failure.
    std::optional<problems::Problem> problem;
    if (!req.benchmark.empty()) {
        if (!problems::isBenchmarkId(req.benchmark)) {
            out.error = "unknown benchmark \"" + req.benchmark + "\"";
            return out;
        }
        problem.emplace(problems::makeBenchmark(req.benchmark,
                                                req.caseIndex));
    } else {
        problems::ProblemParseResult parsed =
            problems::parseProblem(req.problemText);
        if (!parsed.problem) {
            out.error = "problem parse error (line " +
                        std::to_string(parsed.errorLine) +
                        "): " + parsed.error;
            return out;
        }
        problem.emplace(std::move(*parsed.problem));
    }
    if (parseOptimizer(req.optimizer) == std::nullopt) {
        out.error = "unknown optimizer \"" + req.optimizer + "\"";
        return out;
    }

    out.job.req = req;
    out.job.canonicalProblem = problems::canonicalProblemText(*problem);
    out.job.problem =
        std::make_shared<const problems::Problem>(std::move(*problem));
    const uint64_t contentHash =
        fnv1a64(canonicalRequestText(req, out.job.canonicalProblem));
    out.job.childSeed = mixSeed(contentHash ^ options_.batchSeed);
    out.job.fingerprint = hex16(contentHash);
    // Minting is unconditional and deterministic, so telemetry lines
    // stay byte-identical whether tracing is on or off; a request's own
    // hint (a client's, or the coordinator's on a worker) wins.
    if (out.job.req.traceHint.empty())
        out.job.req.traceHint = traceIdForJob(out.job);
    out.ok = true;
    return out;
}

JobResult
JobRunner::serve(const PreparedJob &job, const JobContext &ctx,
                 exec::CancelToken &cancel) const
{
    const JobRequest &req = job.req;
    obs::SpanContext span_ctx = ctx.parent;
    span_ctx.traceId = req.traceHint;
    obs::Span span(ctx.spanCategory, "job", req.id, span_ctx);
    const obs::TimeNanos start = obs::nowNanos();

    JobResult result;
    if (cancel.cancelled()) {
        // Stopped before it started: cheap and side-effect free, so a
        // stopping batch drains at once while running jobs finish.
        result.ok = false;
        result.error = "interrupted: batch stopped before this job "
                       "started";
        result.id = req.id;
        result.accepted = true;
        result.problemId = job.problem->id();
        result.numVars = job.problem->numVars();
        result.childSeed = job.childSeed;
        result.telemetry.priority = req.priority;
    } else {
        // The tighter of the per-job timeout and the caller's deadline;
        // a deadline already passed trips at the first checkpoint.
        double budget_ms = req.timeoutMs;
        if (ctx.deadline != 0) {
            const double left_ms =
                ctx.deadline > start
                    ? static_cast<double>(ctx.deadline - start) * 1e-6
                    : 1e-3;
            if (budget_ms <= 0.0 || left_ms < budget_ms)
                budget_ms = left_ms;
        }
        if (budget_ms > 0.0)
            cancel.setDeadlineSeconds(budget_ms * 1e-3);
        result = run(job, &cancel);
    }

    result.costUnits = estimateJobCost(req, job.problem->numVars());
    result.telemetry.traceId = req.traceHint;
    const obs::TimeNanos end = obs::nowNanos();
    result.telemetry.queueWaitMs =
        start > ctx.acceptedAt
            ? static_cast<double>(start - ctx.acceptedAt) * 1e-6
            : 0.0;
    result.telemetry.wallMs = static_cast<double>(end - start) * 1e-6;

    JobMetrics &metrics = jobMetrics();
    metrics.completed.inc();
    metrics.wallMs.observe(result.telemetry.wallMs);
    metrics.queueWaitMs.observe(result.telemetry.queueWaitMs);
    return result;
}

JobResult
JobRunner::run(const PreparedJob &job,
               const exec::CancelToken *cancel) const
{
    ArtifactCache::LookupCounters counters;
    JobResult result = job.req.algorithm == "rasengan"
                           ? solveRasengan(job, counters, cancel)
                           : solveBaseline(job, cancel);
    result.id = job.req.id;
    result.accepted = true;
    result.problemId = job.problem->id();
    result.numVars = job.problem->numVars();
    result.childSeed = job.childSeed;
    result.resultHash = hashResult(result);
    result.telemetry.cacheHits = counters.hits;
    result.telemetry.cacheMisses = counters.misses;
    auto domain = [&counters](const char *name)
        -> ArtifactCache::LookupCounters::DomainLookup {
        auto it = counters.domains.find(name);
        return it == counters.domains.end()
                   ? ArtifactCache::LookupCounters::DomainLookup{}
                   : it->second;
    };
    result.telemetry.cachePipelineHits = domain("pipeline").hits;
    result.telemetry.cachePipelineMisses = domain("pipeline").misses;
    result.telemetry.cacheCircuitHits = domain("circuit").hits;
    result.telemetry.cacheCircuitMisses = domain("circuit").misses;
    result.telemetry.priority = job.req.priority;
    return result;
}

JobResult
JobRunner::solveRasengan(const PreparedJob &job,
                         ArtifactCache::LookupCounters &counters,
                         const exec::CancelToken *cancel) const
{
    const JobRequest &req = job.req;
    core::RasenganOptions opts;
    opts.simplify = req.simplify;
    opts.prune = req.prune;
    opts.purify = req.purify;
    opts.transitionsPerSegment = req.transitionsPerSegment;
    opts.maxIterations = req.iterations;
    opts.seed = job.childSeed;
    opts.optimizer = *parseOptimizer(req.optimizer);
    opts.shotsPerSegment = req.shots;
    opts.shotGrowth = req.shotGrowth;
    opts.noise = parseNoiseModel(req.noise);
    opts.resilience = makeResilience(req, job.childSeed, cancel);
    if (!options_.checkpointDir.empty())
        opts.checkpointPath = options_.checkpointDir + "/job-" +
                              job.fingerprint + ".ckpt";

    using Execution = core::RasenganOptions::Execution;
    if (req.execution == "exact")
        opts.execution = Execution::ExactSparse;
    else if (req.execution == "sampled")
        opts.execution = Execution::SampledSparse;
    else if (req.execution == "noisy")
        opts.execution = Execution::NoisyInjected;
    else
        opts.execution = Execution::NoisyGateLevel;
    // Fault injection needs shot jobs; mirror the CLI's promotion.
    if (req.faultRate > 0.0 && opts.execution == Execution::ExactSparse)
        opts.execution = Execution::SampledSparse;

    // Pipeline artifacts: keyed by the canonical problem plus exactly
    // the options buildPipelineArtifacts depends on -- the ones that
    // shape the chain and its segments, and the transpile mode, nominal
    // time and latency-device durations behind the segment costs -- so
    // jobs differing only in shots/seed/execution share one pipeline.
    {
        const device::DeviceModel &dev = opts.latencyDevice;
        std::ostringstream cfg;
        cfg << "simplify=" << (opts.simplify ? 1 : 0)
            << ";prune=" << (opts.prune ? 1 : 0)
            << ";tps=" << opts.transitionsPerSegment
            << ";rounds=" << opts.rounds
            << ";maxTracked=" << opts.maxTrackedStates
            << ";transpile=" << static_cast<int>(opts.transpileMode)
            << ";t0=" << fmtDouble(opts.initialTime)
            << ";latency=" << dev.name << "/" << fmtDouble(dev.gate1qNs)
            << "/" << fmtDouble(dev.gate2qNs) << "/"
            << fmtDouble(dev.readoutNs) << "\n"
            << job.canonicalProblem;
        CacheKey key = makeKey("pipeline", cfg.str());
        const problems::Problem &problem = *job.problem;
        const core::RasenganOptions &optsRef = opts;
        opts.pipeline =
            cache_->getOrCompute<core::PipelineArtifacts>(
                key,
                [&problem, &optsRef]()
                    -> std::pair<
                        std::shared_ptr<const core::PipelineArtifacts>,
                        uint64_t> {
                    auto built =
                        std::make_shared<core::PipelineArtifacts>(
                            core::buildPipelineArtifacts(problem,
                                                         optsRef));
                    uint64_t bytes = estimatePipelineBytes(*built);
                    return {built, bytes};
                },
                &counters, "pipeline");
    }

    // Transpiled segment circuits of the gate-level noisy backend (the
    // others read the pipeline's segment costs): content-addressed by
    // the input circuit's fingerprint + lowering options, shared across
    // jobs.
    {
        std::shared_ptr<ArtifactCache> cache = cache_;
        ArtifactCache::LookupCounters *ctr = &counters;
        opts.lowerCircuit =
            [cache, ctr](const circuit::Circuit &circ,
                         const circuit::TranspileOptions &topts) {
                char payload[64];
                std::snprintf(payload, sizeof(payload), "%016llx|%d|%d",
                              static_cast<unsigned long long>(
                                  circ.fingerprint()),
                              static_cast<int>(topts.mode),
                              topts.lowerToCx ? 1 : 0);
                CacheKey key = makeKey("circuit", payload);
                auto lowered = cache->getOrCompute<circuit::Circuit>(
                    key,
                    [&circ, &topts]()
                        -> std::pair<
                            std::shared_ptr<const circuit::Circuit>,
                            uint64_t> {
                        auto built = std::make_shared<circuit::Circuit>(
                            circuit::transpile(circ, topts));
                        return {built, estimateCircuitBytes(*built)};
                    },
                    ctr, "circuit");
                return *lowered;
            };
    }

    core::RasenganSolver solver(*job.problem, opts);
    core::RasenganResult r = solver.run();

    JobResult out;
    out.ok = !r.failed;
    if (r.failed)
        out.error = r.deadlineHit
                        ? "deadline: execution stopped at a cooperative "
                          "checkpoint (wall-clock budget exhausted)"
                        : "execution failed (purification emptied the "
                          "output or the backend exhausted retries)";
    else
        out.solution = r.solution.toString(job.problem->numVars());
    out.objective = r.objectiveValue;
    out.expectedObjective = r.expectedObjective;
    out.inConstraintsRate = r.inConstraintsRate;
    out.chainLength = r.chainLength;
    out.numSegments = r.numSegments;
    out.numParams = r.numParams;
    out.telemetry.retries = r.execStats.retries;
    out.telemetry.attempts = r.execStats.attempts;
    out.telemetry.deadlineHit = r.deadlineHit;
    out.telemetry.degradation =
        exec::degradationLevelName(r.degradation);
    out.telemetry.supportMax = solver.maxObservedSupport();
    if (out.ok && !opts.checkpointPath.empty()) {
        // The job is done; a stale checkpoint would only confuse the
        // next crash-replay of the same content.
        std::remove(opts.checkpointPath.c_str());
    }
    return out;
}

JobResult
JobRunner::solveBaseline(const PreparedJob &job,
                         const exec::CancelToken *cancel) const
{
    const JobRequest &req = job.req;
    baselines::VqaResult r;
    int numVars = job.problem->numVars();

    auto fill = [&](auto &vqaOpts) {
        vqaOpts.layers = req.layers;
        vqaOpts.maxIterations = req.iterations;
        vqaOpts.shots = req.shots;
        vqaOpts.seed = job.childSeed;
        vqaOpts.penaltyLambda = req.penaltyLambda;
        vqaOpts.optimizer = *parseOptimizer(req.optimizer);
        vqaOpts.noise = parseNoiseModel(req.noise);
        vqaOpts.resilience = makeResilience(req, job.childSeed, cancel);
    };

    if (req.algorithm == "chocoq") {
        baselines::ChocoqOptions o;
        fill(o);
        r = baselines::Chocoq(*job.problem, o).run();
    } else if (req.algorithm == "pqaoa") {
        baselines::PqaoaOptions o;
        fill(o);
        r = baselines::Pqaoa(*job.problem, o).run();
    } else { // hea
        baselines::HeaOptions o;
        fill(o);
        r = baselines::Hea(*job.problem, o).run();
    }

    JobResult out;
    out.ok = !r.counts.empty();
    if (!out.ok) {
        const bool tripped = cancel != nullptr && cancel->stopRequested();
        out.telemetry.deadlineHit = tripped;
        out.error = tripped
                        ? "deadline: execution stopped at a cooperative "
                          "checkpoint (wall-clock budget exhausted)"
                        : "baseline produced an empty distribution";
    }
    out.expectedObjective = r.expectedObjective;
    out.inConstraintsRate = r.inConstraintsRate;
    out.numParams = r.numParams;
    out.telemetry.retries = r.execStats.retries;
    out.telemetry.attempts = r.execStats.attempts;
    out.telemetry.degradation =
        exec::degradationLevelName(r.degradation);

    // Best feasible outcome.  Walking Counts::sorted() makes the
    // objective tie-break deterministic for free: the first outcome
    // seen at the best objective is the smallest bitstring.
    bool found = false;
    for (const auto &[outcome, n] : r.counts.sorted()) {
        (void)n;
        if (!job.problem->isFeasible(outcome))
            continue;
        double obj = job.problem->objective(outcome);
        if (!found || obj < out.objective) {
            found = true;
            out.solution = outcome.toString(numVars);
            out.objective = obj;
        }
    }
    return out;
}

} // namespace rasengan::serve
