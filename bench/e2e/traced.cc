#include "traced.h"

#include <cstdio>
#include <map>
#include <memory>
#include <sstream>

#include "baselines/chocoq.h"
#include "baselines/hea.h"
#include "baselines/pqaoa.h"
#include "circuit/transpile.h"
#include "cluster/protocol.h"
#include "common/parallel.h"
#include "core/rasengan.h"
#include "device/device.h"
#include "serve/cachekey.h"
#include "serve/journal.h"
#include "serve/jsonl.h"
#include "serve/scheduler.h"

namespace e2e {

namespace {

namespace core = rasengan::core;
namespace serve = rasengan::serve;
namespace baselines = rasengan::baselines;

/** In-memory span recorder; one "thread" lane per pass. */
class SpanLog
{
  public:
    static constexpr int kServeLane = 1;
    static constexpr int kAttributionLane = 2;

    /** Open a span and return its index (the parent of later spans). */
    int
    open(const std::string &name, int lane, size_t job, int parent = -1)
    {
        spans_.push_back({name, lane, job, parent, nowMs(), -1.0});
        return static_cast<int>(spans_.size()) - 1;
    }

    void close(int span) { spans_[span].endMs = nowMs(); }

    /** Seconds covered by spans named @p name in @p lane. */
    double
    busy(const std::string &name, int lane) const
    {
        double ms = 0.0;
        for (const auto &s : spans_)
            if (s.lane == lane && s.name == name)
                ms += s.endMs - s.startMs;
        return ms * 1e-3;
    }

    size_t
    calls(const std::string &name, int lane) const
    {
        size_t n = 0;
        for (const auto &s : spans_)
            n += s.lane == lane && s.name == name;
        return n;
    }

    /** Duration in ms of the first span named @p name for @p job. */
    double
    durationMs(const std::string &name, int lane, size_t job) const
    {
        for (const auto &s : spans_)
            if (s.lane == lane && s.job == job && s.name == name)
                return s.endMs - s.startMs;
        return 0.0;
    }

    /** Chrome trace-event JSON (Perfetto loads it). */
    bool
    write(const std::string &path, const std::string &workload) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (f == nullptr)
            return false;
        const double t0 = spans_.empty() ? 0.0 : spans_.front().startMs;
        std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        std::fprintf(f,
                     "{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\","
                     "\"args\":{\"name\":\"e2e %s\"}},\n"
                     "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":"
                     "\"thread_name\",\"args\":{\"name\":\"serve pass\"}},\n"
                     "{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":"
                     "\"thread_name\",\"args\":{\"name\":\"attribution "
                     "pass\"}}",
                     workload.c_str(), kServeLane, kAttributionLane);
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::fprintf(f,
                         ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                         "\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,"
                         "\"args\":{\"span\":%zu,\"parent\":%d,"
                         "\"job\":%zu}}",
                         s.lane, s.name.c_str(), (s.startMs - t0) * 1e3,
                         (s.endMs - s.startMs) * 1e3, i, s.parent, s.job);
        }
        std::fprintf(f, "\n]}\n");
        return std::fclose(f) == 0;
    }

  private:
    struct Span
    {
        std::string name;
        int lane;
        size_t job;
        int parent;
        double startMs, endMs;
    };
    std::vector<Span> spans_;
};

/** Closes a span at scope exit. */
class Scoped
{
  public:
    Scoped(SpanLog &log, const std::string &name, int lane, size_t job,
           int parent)
        : log_(log), span_(log.open(name, lane, job, parent))
    {
    }
    ~Scoped() { log_.close(span_); }
    Scoped(const Scoped &) = delete;
    Scoped &operator=(const Scoped &) = delete;

    int index() const { return span_; }

  private:
    SpanLog &log_;
    int span_;
};

/** Admission limits of the workload's single-process driver flags. */
serve::AdmissionLimits
limitsFor(const Workload &w)
{
    serve::AdmissionLimits limits;
    for (size_t i = 0; i + 1 < w.serveArgs.size(); ++i)
        if (w.serveArgs[i] == "--max-qubits")
            limits.maxQubits = std::stoi(w.serveArgs[i + 1]);
    return limits;
}

/** Numeric field of a flat JSON line (0 when absent). */
double
field(const serve::JsonObject &obj, const std::string &key)
{
    auto it = obj.find(key);
    return it == obj.end() ? 0.0 : it->second.num;
}

/** A job of the serve pass, kept for the attribution pass. */
struct ServedJob
{
    size_t index = 0;
    serve::PreparedJob prepared;
    serve::JobResult result;
};

struct ServePass
{
    std::string bytes; ///< writeResult lines, newline-terminated
    std::vector<serve::JsonObject> telemetry;
    std::vector<ServedJob> admitted;
    size_t failed = 0;
    std::string error;
};

/** One request's cluster wire round trip: job frame out, result frame
 *  back, both decoded and parsed as a coordinator and worker would. */
bool
frameRoundTrip(size_t index, const serve::JobRequest &req,
               const std::string &resultLine, const std::string &telLine)
{
    namespace cluster = rasengan::cluster;
    cluster::Message job;
    job.type = "job";
    job.index = index;
    job.request = serve::writeRequest(req);
    cluster::Message result;
    result.type = "result";
    result.index = index;
    result.result = resultLine;
    result.telemetry = telLine;
    const std::string wire = cluster::frame(cluster::encodeMessage(job)) +
                             cluster::frame(cluster::encodeMessage(result));
    cluster::FrameDecoder decoder;
    decoder.feed(wire.data(), wire.size());
    std::string payload;
    std::vector<cluster::MessageParseResult> decoded;
    while (decoder.next(payload))
        decoded.push_back(cluster::parseMessage(payload));
    return decoded.size() == 2 && decoded[0].ok && decoded[1].ok &&
           decoded[1].msg.result == resultLine;
}

ServePass
servePass(const Workload &w, const Paths &paths, SpanLog &spans)
{
    ServePass pass;
    serve::JobRunner runner(serve::RunnerOptions{},
                            std::make_shared<serve::ArtifactCache>(64ull
                                                                   << 20));
    serve::AdmissionController admission(limitsFor(w));
    serve::Journal journal;
    const std::string journalPath = paths.work + "/traced.journal";
    std::remove(journalPath.c_str());
    if (!journal.open(journalPath, 1, &pass.error))
        return pass;

    const int lane = SpanLog::kServeLane;
    for (size_t i = 0; i < w.requests.size(); ++i) {
        Scoped job(spans, "job", lane, i, -1);
        const int parent = job.index();
        serve::RequestParseResult parsed;
        {
            Scoped s(spans, "serve.parse", lane, i, parent);
            parsed = serve::parseRequest(w.requests[i]);
        }
        if (!parsed.ok) {
            pass.error = "request " + std::to_string(i) +
                         " does not parse: " + parsed.error;
            return pass;
        }
        serve::ScreenedJob screened;
        {
            Scoped s(spans, "serve.admit", lane, i, parent);
            screened = serve::screenRequest(runner, admission,
                                            parsed.request);
        }
        serve::JobResult result;
        if (screened.admitted) {
            Scoped s(spans, "serve.run", lane, i, parent);
            result = runner.run(screened.prepared);
            result.costUnits = screened.costUnits;
            admission.release();
        } else {
            result = screened.rejection;
        }
        std::string line, tel;
        {
            Scoped s(spans, "serve.write", lane, i, parent);
            line = serve::writeResult(result);
            tel = serve::writeTelemetry(result);
        }
        {
            Scoped s(spans, "serve.journal", lane, i, parent);
            const uint64_t seq = journal.appendAccepted(
                parsed.request, screened.prepared.fingerprint);
            journal.appendRunning(seq, parsed.request.id);
            journal.appendDone(seq, parsed.request.id, line);
        }
        {
            Scoped s(spans, "cluster.frame", lane, i, parent);
            if (!frameRoundTrip(i, parsed.request, line, tel)) {
                pass.error = "cluster frame round trip lost job " +
                             parsed.request.id;
                return pass;
            }
        }
        pass.bytes += line + "\n";
        pass.telemetry.push_back(serve::parseFlatJson(tel).object);
        if (!result.accepted || !result.ok)
            ++pass.failed;
        if (screened.admitted)
            pass.admitted.push_back(
                {i, std::move(screened.prepared), std::move(result)});
    }
    journal.close();
    std::remove(journalPath.c_str());
    return pass;
}

rasengan::opt::Method
optimizerMethod(const std::string &name)
{
    using rasengan::opt::Method;
    if (name == "nelder-mead")
        return Method::NelderMead;
    if (name == "spsa")
        return Method::Spsa;
    if (name == "adam-spsa")
        return Method::AdamSpsa;
    return Method::Cobyla;
}

rasengan::qsim::NoiseModel
noiseModel(const std::string &name)
{
    using rasengan::device::DeviceModel;
    if (name == "kyiv")
        return DeviceModel::ibmKyiv().toNoiseModel();
    if (name == "brisbane")
        return DeviceModel::ibmBrisbane().toNoiseModel();
    return {};
}

/** The resilience settings the serve runner gives every job. */
rasengan::exec::ResilienceOptions
resilience(const serve::JobRequest &req, uint64_t childSeed)
{
    rasengan::exec::ResilienceOptions r;
    r.faults.rate = req.faultRate;
    r.faults.seed = childSeed ^ 0xFA17;
    r.retry.maxAttempts = req.maxAttempts;
    r.jitterSeed = serve::mixSeed(childSeed ^ 0x8ACC0FF);
    r.wallClock = false;
    r.threads = 0;
    return r;
}

/** The solver options the serve runner builds for @p job, minus the
 *  cross-job caches (the attribution pass supplies its own). */
core::RasenganOptions
rasenganOptions(const serve::PreparedJob &job)
{
    using Execution = core::RasenganOptions::Execution;
    const serve::JobRequest &req = job.req;
    core::RasenganOptions opts;
    opts.simplify = req.simplify;
    opts.prune = req.prune;
    opts.purify = req.purify;
    opts.transitionsPerSegment = req.transitionsPerSegment;
    opts.maxIterations = req.iterations;
    opts.seed = job.childSeed;
    opts.optimizer = optimizerMethod(req.optimizer);
    opts.shotsPerSegment = req.shots;
    opts.shotGrowth = req.shotGrowth;
    opts.noise = noiseModel(req.noise);
    opts.resilience = resilience(req, job.childSeed);
    if (req.execution == "exact")
        opts.execution = Execution::ExactSparse;
    else if (req.execution == "sampled")
        opts.execution = Execution::SampledSparse;
    else if (req.execution == "noisy")
        opts.execution = Execution::NoisyInjected;
    else
        opts.execution = Execution::NoisyGateLevel;
    if (req.faultRate > 0.0 && opts.execution == Execution::ExactSparse)
        opts.execution = Execution::SampledSparse;
    return opts;
}

struct AttributionPass
{
    std::string error;
    double quantumS = 0.0;   ///< modelled quantum seconds (Fig. 12)
    double classicalS = 0.0; ///< measured classical seconds (Fig. 12)
    double cpuS = 0.0;       ///< process CPU over the pass
    double evaluations = 0.0;
};

/**
 * Re-run every admitted job with its layers timed apart.  Pipelines and
 * lowered segment circuits are memoized across jobs under the same keys
 * the serve cache uses, so layer calls match what one driver process
 * computes; rotation plans stay per job.
 */
AttributionPass
attributionPass(const ServePass &served, SpanLog &spans)
{
    AttributionPass pass;
    const int lane = SpanLog::kAttributionLane;
    std::map<std::string, std::shared_ptr<const core::PipelineArtifacts>>
        pipelines;
    std::map<std::string, rasengan::circuit::Circuit> lowered;
    const double cpu0 = selfCpuSeconds();

    for (const ServedJob &job : served.admitted) {
        const serve::JobRequest &req = job.prepared.req;
        const rasengan::problems::Problem &problem = *job.prepared.problem;
        const int parent = spans.open("job", lane, job.index);
        bool same = false;
        if (req.algorithm == "rasengan") {
            core::RasenganOptions opts = rasenganOptions(job.prepared);
            std::ostringstream key;
            key << "simplify=" << opts.simplify << ";prune=" << opts.prune
                << ";tps=" << opts.transitionsPerSegment
                << ";rounds=" << opts.rounds
                << ";maxTracked=" << opts.maxTrackedStates << "\n"
                << job.prepared.canonicalProblem;
            auto &pipeline = pipelines[key.str()];
            if (!pipeline) {
                Scoped s(spans, "core.pipeline", lane, job.index, parent);
                pipeline = std::make_shared<const core::PipelineArtifacts>(
                    core::buildPipelineArtifacts(problem, opts));
            }
            opts.pipeline = pipeline;
            opts.lowerCircuit =
                [&lowered](const rasengan::circuit::Circuit &circ,
                           const rasengan::circuit::TranspileOptions &t) {
                    const std::string k =
                        std::to_string(circ.fingerprint()) + "|" +
                        std::to_string(static_cast<int>(t.mode)) + "|" +
                        std::to_string(t.lowerToCx);
                    auto it = lowered.find(k);
                    if (it == lowered.end())
                        it = lowered
                                 .emplace(k, rasengan::circuit::transpile(
                                                 circ, t))
                                 .first;
                    return it->second;
                };
            core::RasenganSolver solver(problem, opts);
            {
                Scoped s(spans, "circuit.lower", lane, job.index, parent);
                solver.maxSegmentCost();
            }
            core::RasenganResult r;
            {
                Scoped s(spans, "core.train", lane, job.index, parent);
                r = solver.run();
            }
            {
                Scoped s(spans, "core.execute", lane, job.index, parent);
                rasengan::Rng rng(opts.seed + 1);
                solver.execute(r.training.x, rng);
            }
            pass.quantumS += r.quantumSeconds;
            pass.classicalS += r.classicalSeconds;
            pass.evaluations += r.training.evaluations;
            same = r.failed ? !job.result.ok
                            : job.result.ok &&
                                  r.solution.toString(problem.numVars()) ==
                                      job.result.solution &&
                                  r.objectiveValue == job.result.objective;
        } else {
            baselines::VqaResult r;
            auto fill = [&](baselines::VqaOptions &o) {
                o.layers = req.layers;
                o.maxIterations = req.iterations;
                o.shots = req.shots;
                o.seed = job.prepared.childSeed;
                o.penaltyLambda = req.penaltyLambda;
                o.optimizer = optimizerMethod(req.optimizer);
                o.noise = noiseModel(req.noise);
                o.resilience = resilience(req, job.prepared.childSeed);
            };
            {
                Scoped s(spans, "baselines.run", lane, job.index, parent);
                if (req.algorithm == "chocoq") {
                    baselines::ChocoqOptions o;
                    fill(o);
                    r = baselines::Chocoq(problem, o).run();
                } else if (req.algorithm == "pqaoa") {
                    baselines::PqaoaOptions o;
                    fill(o);
                    r = baselines::Pqaoa(problem, o).run();
                } else {
                    baselines::HeaOptions o;
                    fill(o);
                    r = baselines::Hea(problem, o).run();
                }
            }
            pass.quantumS += r.quantumSeconds;
            pass.classicalS += r.classicalSeconds;
            pass.evaluations += r.training.evaluations;
            same = r.expectedObjective == job.result.expectedObjective &&
                   r.inConstraintsRate == job.result.inConstraintsRate;
        }
        spans.close(parent);
        if (!same) {
            pass.error = "attribution pass disagrees with serve.run on " +
                         req.id;
            return pass;
        }
    }
    pass.cpuS = selfCpuSeconds() - cpu0;
    return pass;
}

/** Medians of the alternating overhead/tax probe, in seconds. */
struct Probe
{
    bool ok = false;
    std::string error;
    double plainS = 0.0, tracedS = 0.0, clusterS = 0.0;
};

Probe
probeOverheads(const Workload &w, const Paths &paths, int alternations)
{
    Probe probe;
    std::vector<double> plain, traced, cluster;
    const std::string traceFile = paths.work + "/probe.trace.json";
    // The suite-cluster shape: two single-threaded workers.
    std::vector<std::string> clusterArgs = {"--workers", "2", "--threads",
                                            "1"};
    for (size_t i = 0; i < w.serveArgs.size(); i += 2)
        if (w.serveArgs[i] != "--threads")
            clusterArgs.insert(clusterArgs.end(), {w.serveArgs[i],
                                                   w.serveArgs[i + 1]});
    for (int i = 0; i < alternations; ++i) {
        Round p = batchRound(paths, Driver::Serve, w.serveArgs, "plain");
        Round t = batchRound(paths, Driver::Serve, w.serveArgs, "traced",
                             {"--trace", traceFile});
        std::remove(traceFile.c_str());
        Round c =
            batchRound(paths, Driver::Cluster, clusterArgs, "cluster");
        for (const Round *r : {&p, &t, &c})
            if (!r->ok) {
                probe.error = r->error;
                return probe;
            }
        if (t.bytes != p.bytes || c.bytes != p.bytes) {
            probe.error = "traced or cluster batch bytes differ from the "
                          "plain batch";
            return probe;
        }
        plain.push_back(p.wallS);
        traced.push_back(t.wallS);
        cluster.push_back(c.wallS);
    }
    probe.plainS = median(plain);
    probe.tracedS = median(traced);
    probe.clusterS = median(cluster);
    probe.ok = true;
    return probe;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

Outcome
measureTraced(const Workload &w, const Paths &paths,
              const std::string &expectedDigest, int alternations,
              const std::string &spanFile)
{
    Outcome out;
    out.attempted = w.requests.size();
    writeRequests(w, paths);

    // The real driver once: its bytes anchor every identity check.
    const std::string telPath = paths.work + "/driver.telemetry";
    Round driver =
        w.driver == Driver::Daemon
            ? daemonRound(w, paths, "driver")
            : batchRound(paths, w.driver, w.driverArgs, "driver",
                         {"--telemetry", telPath});
    if (!driver.ok) {
        out.fail(driver.error);
        return out;
    }
    Check check = checkRound(w, driver.bytes);
    if (!check.ok) {
        out.fail(check.error);
        return out;
    }
    out.digest = digest(driver.bytes);
    if (!expectedDigest.empty() && out.digest != expectedDigest) {
        out.fail("result digest " + out.digest + " != committed " +
                 expectedDigest);
        return out;
    }

    rasengan::parallel::setThreadCount(2);
    SpanLog spans;
    ServePass served = servePass(w, paths, spans);
    if (!served.error.empty()) {
        out.fail(served.error);
        return out;
    }
    out.failed = served.failed;
    if (served.bytes != driver.bytes) {
        out.fail("in-process writeResult lines differ from the driver's");
        return out;
    }
    AttributionPass attributed = attributionPass(served, spans);
    if (!attributed.error.empty()) {
        out.fail(attributed.error);
        return out;
    }
    Probe probe = probeOverheads(w, paths, alternations);
    if (!probe.ok) {
        out.fail(probe.error);
        return out;
    }
    if (!spans.write(spanFile, w.name)) {
        out.fail("cannot write " + spanFile);
        return out;
    }

    // Layer table.  Each pass's share denominator is its job time.
    const int sl = SpanLog::kServeLane, al = SpanLog::kAttributionLane;
    const double serveJobS = spans.busy("job", sl);
    const double attrJobS = spans.busy("job", al);
    for (const char *layer : {"serve.parse", "serve.admit", "serve.run",
                              "serve.write", "serve.journal",
                              "cluster.frame"}) {
        const double busy = spans.busy(layer, sl);
        out.metric(std::string(layer) + ".busy_s", busy, "s");
        out.metric(std::string(layer) + ".share", ratio(busy, serveJobS),
                   "ratio");
    }
    // The other serve layers run once per request.
    out.metric("serve.run.calls",
               static_cast<double>(spans.calls("serve.run", sl)), "count");
    // Layers a workload may not run at all report share and calls only:
    // a busy time pinned at zero carries no measurement.
    for (const char *layer : {"core.pipeline", "circuit.lower",
                              "core.train", "core.execute",
                              "baselines.run"}) {
        out.metric(std::string(layer) + ".calls",
                   static_cast<double>(spans.calls(layer, al)), "count");
        out.metric(std::string(layer) + ".share",
                   ratio(spans.busy(layer, al), attrJobS), "ratio");
    }
    out.metric("opt.overhead.share", ratio(attributed.classicalS, attrJobS),
               "ratio");

    // Counters: the batch drivers' own telemetry, or for the daemon
    // (which writes none) the serve pass's identical job path.
    std::vector<serve::JsonObject> telemetry = served.telemetry;
    if (w.driver != Driver::Daemon) {
        std::string text;
        readFile(telPath, text);
        telemetry.clear();
        std::istringstream lines(text);
        for (std::string line; std::getline(lines, line);)
            telemetry.push_back(serve::parseFlatJson(line).object);
    }
    const double jobs = static_cast<double>(telemetry.size());
    for (const char *domain : {"pipeline", "circuit", "spplan"}) {
        double hits = 0.0, misses = 0.0;
        for (const auto &t : telemetry) {
            hits += field(t, std::string("cache_") + domain + "_hits");
            misses += field(t, std::string("cache_") + domain + "_misses");
        }
        out.metric(std::string("serve.cache_hit_ratio.") + domain,
                   ratio(hits, hits + misses), "ratio");
    }
    double misses = 0.0, retries = 0.0, supportMax = 0.0;
    double replayed = 0.0, planned = 0.0;
    std::vector<double> waitMs;
    for (size_t i = 0; i < served.telemetry.size(); ++i) {
        const serve::JsonObject &t = served.telemetry[i];
        retries += field(t, "retries");
        supportMax = std::max(supportMax, field(t, "support_max"));
        replayed += field(t, "plan_replayed");
        planned += field(t, "plan_replayed") + field(t, "plan_recorded") +
                   field(t, "plan_aborted") + field(t, "plan_invalidated");
    }
    for (const auto &t : telemetry) {
        misses += field(t, "cache_misses");
        if (w.driver != Driver::Daemon)
            waitMs.push_back(field(t, "queue_wait_ms"));
    }
    if (w.driver == Driver::Daemon) {
        // Time a request spent in the daemon beyond its own run.
        for (size_t i = 0; i < w.requests.size(); ++i)
            waitMs.push_back(
                driver.latencyMsById[lineId(w.requests[i])] -
                spans.durationMs("serve.run", sl, i));
        out.note("gen_late_ms_max", driver.genLateMsMax, "ms");
    }
    out.metric("serve.cache_misses_per_job", ratio(misses, jobs), "count");
    out.metric("serve.wait_ms_p50", median(waitMs), "ms");
    out.metric("opt.evals_per_job",
               ratio(attributed.evaluations,
                     static_cast<double>(served.admitted.size())),
               "count");
    out.metric("qsim.support_max", supportMax, "count");
    out.metric("qsim.plan_replay_ratio", ratio(replayed, planned), "ratio");
    out.metric("exec.retries_per_job",
               ratio(retries, static_cast<double>(served.telemetry.size())),
               "count");
    out.metric("cluster.tax_ms_per_job",
               ratio((probe.clusterS - probe.plainS) * 1e3,
                     static_cast<double>(check.okJobs)),
               "ms");
    out.metric("obs.trace_overhead_pct",
               ratio(probe.tracedS - probe.plainS, probe.plainS) * 100.0,
               "%");
    // Paper Fig. 12: modelled quantum time beside measured classical
    // time and the CPU the attribution pass actually burned.  The model
    // is deterministic, so it is printed rather than scored.
    out.note("fig12.quantum_s", attributed.quantumS, "s");
    out.metric("fig12.classical_s", attributed.classicalS, "s");
    out.metric("fig12.cpu_s", attributed.cpuS, "s");
    return out;
}

} // namespace e2e
