#include "drivers.h"

#include <cstdio>
#include <fstream>

#include "exec/faults.h"
#include "serve/jsonl.h"
#include "serve/workload.h"

namespace rasengan::tools {

namespace {

OptionTable
concat(std::initializer_list<OptionTable> groups)
{
    OptionTable out;
    for (const OptionTable &group : groups)
        out.insert(out.end(), group.begin(), group.end());
    return out;
}

/** --cache-mb M stored as bytes; budgets past 2^64 saturate. */
Option
cacheMbOption(uint64_t *bytes)
{
    auto store = [bytes](const std::string &v) {
        uint64_t mb = 0;
        std::string error = parseNumber<uint64_t>(
            "--cache-mb", v, 0, UINT64_MAX, &mb);
        if (error.empty())
            *bytes = mb > (UINT64_MAX >> 20) ? UINT64_MAX : mb << 20;
        return error;
    };
    return {"--cache-mb", "M",
            "artifact cache budget in MiB (default 64; 0 disables it)", "",
            std::move(store)};
}

/** --fault SPEC, checked with exec::parseProcessFaultPlan. */
Option
faultOption(std::string *spec)
{
    auto store = [spec](const std::string &v) {
        exec::ProcessFaultParseResult plan = exec::parseProcessFaultPlan(v);
        if (plan.ok)
            *spec = v;
        return plan.ok ? std::string() : plan.error;
    };
    return withEnv({"--fault", "SPEC",
                    "fault plan for one worker: kill-after:N | "
                    "disconnect-after:N",
                    "", std::move(store)},
                   "RASENGAN_CLUSTER_FAULT");
}

bool
writeLines(const std::string &path, size_t count,
           const std::function<std::string(size_t)> &line)
{
    std::FILE *out = path.empty() ? stdout : std::fopen(path.c_str(), "w");
    if (out == nullptr) {
        std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
        return false;
    }
    for (size_t i = 0; i < count; ++i)
        std::fprintf(out, "%s\n", line(i).c_str());
    if (out != stdout)
        std::fclose(out);
    return true;
}

} // namespace

OptionTable
obsOptions(ObsCliOptions &obs, bool tracing)
{
    OptionTable table = {
        choice("--simd", {"auto", "avx2", "neon", "scalar"},
               "amplitude kernel ISA (default: RASENGAN_SIMD, then auto); "
               "results are identical for every choice",
               &obs.simd),
        text("--flight", "on|off|N|PATH",
             "flight recorder: on, off, N ring entries, or a dump path "
             "(default: RASENGAN_FLIGHT)",
             &obs.flightSpec),
    };
    if (tracing) {
        table.push_back(text("--trace", "FILE",
                             "write a Chrome trace-event JSON of the run",
                             &obs.tracePath));
        table.push_back(text("--metrics", "FILE",
                             "write the metrics registry: Prometheus "
                             "text, or flat JSON when FILE ends in .json",
                             &obs.metricsPath));
    }
    return table;
}

OptionTable
serviceOptions(serve::ServiceOptions &service)
{
    serve::AdmissionLimits &limits = service.limits;
    return {
        number("--threads", "N",
               "job-pool threads of the batch drivers (0 = "
               "RASENGAN_THREADS, then hardware concurrency); the daemon "
               "runs one job at a time",
               &service.threads),
        number("--batch-seed", "S",
               "mixed into every job's child seed (default 0)",
               &service.batchSeed),
        cacheMbOption(&service.cacheBudgetBytes),
        number("--max-queue", "N", "admission: max queued jobs",
               &limits.maxQueuedJobs),
        number("--max-qubits", "N", "admission: max problem variables",
               &limits.maxQubits),
        number("--max-shots", "N", "admission: max shots per job",
               &limits.maxShotsPerJob),
        number("--max-cost", "UNITS", "admission: per-job cost ceiling",
               &limits.maxJobCostUnits),
    };
}

OptionTable
batchOptions(BatchArgs &batch)
{
    return {
        text("--requests", "FILE", "request JSONL, one job per line",
             &batch.requests),
        number("--workload", "N", "generate an N-job mixed workload",
               &batch.workload),
        number("--workload-seed", "S",
               "seed of the generated workload (default 1)",
               &batch.workloadSeed),
        text("--out", "FILE", "result JSONL (default: stdout)", &batch.out),
        text("--telemetry", "FILE", "per-job telemetry JSONL",
             &batch.telemetry),
    };
}

CommandLine
solveCommandLine(SolveArgs &args)
{
    OptionTable table = {
        text("--benchmark", "ID", "suite instance: F1-F4, K1-K4, J1-J4, "
                                  "S1-S4, G1-G4",
             &args.benchmark),
        text("--file", "PATH", "instance file to solve", &args.file),
        text("--dump", "ID", "print a suite instance as a file and exit",
             &args.dump),
        choice("--algorithm", {"rasengan", "chocoq", "pqaoa", "hea"},
               "solver (default rasengan)", &args.algorithm),
        number("--iterations", "N", "optimizer budget (default 200)",
               &args.iterations, 1),
        number("--seed", "S", "RNG seed (default 7)", &args.seed),
        choice("--noise", {"none", "kyiv", "brisbane"},
               "device noise model (default none)", &args.noise),
        choice("--optimizer", {"cobyla", "nelder-mead", "spsa", "adam-spsa"},
               "classical optimizer (default cobyla)", &args.optimizer),
        toggle("--draw", "ASCII-draw the first segment", &args.draw),
        toggle("--qasm", "print the first segment as QASM", &args.qasm),
        number("--faults", "RATE",
               "inject transient faults at RATE per execution",
               &args.faults, 0.0, 1.0),
        number("--retries", "N", "retry budget per execution (default 5)",
               &args.retries, 1),
        text("--checkpoint", "PATH",
             "checkpoint the solve to PATH; a rerun resumes from it",
             &args.checkpoint),
    };
    return {"rasengan_solve", "(--benchmark ID | --file PATH | --dump ID) "
                              "[options]",
            concat({table, obsOptions(args.obs)})};
}

CommandLine
serveCommandLine(ServeArgs &args)
{
    OptionTable table = {
        toggle("--dump-workload", "print the requests and exit",
               &args.dumpWorkload),
    };
    return {"rasengan_serve", "(--requests FILE | --workload N) [options]",
            concat({batchOptions(args.batch), serviceOptions(args.service),
                    table, obsOptions(args.obs)})};
}

CommandLine
servedCommandLine(ServedArgs &args)
{
    serve::DaemonOptions &d = args.daemon;
    OptionTable table = {
        text("--listen", "unix:PATH|tcp:[HOST:]PORT",
             "socket to serve on (required)", &d.listen),
        text("--journal", "FILE", "write-ahead job journal (crash recovery)",
             &d.journalPath),
        text("--results", "FILE", "append every result line (audit mirror)",
             &d.resultsPath),
        text("--checkpoint-dir", "DIR",
             "segment checkpoints for drain/crash resume", &d.checkpointDir),
        text("--policy", "FILE",
             "admission/SLO policy file; re-read on SIGHUP", &d.policyPath),
    };
    OptionTable slo = {
        number("--cost-rate", "UNITS_PER_S",
               "SLO: worker throughput in cost units per second",
               &d.slo.costUnitsPerSecond),
        number("--shed-margin", "FRACTION",
               "SLO: share of a deadline kept as margin (default 0.1)",
               &d.slo.shedMargin, 0.0, 1.0),
    };
    return {"rasengan_served", "--listen (unix:PATH | tcp:[HOST:]PORT) "
                               "[options]",
            concat({table, serviceOptions(d), slo,
                    obsOptions(args.obs, /*tracing=*/false)})};
}

CommandLine
clusterdCommandLine(ClusterdArgs &args)
{
    cluster::CoordinatorOptions &c = args.coordinator;
    OptionTable transport = {
        withEnv(number("--workers", "N", "fork N local workers",
                       &args.workers),
                "RASENGAN_CLUSTER_WORKERS"),
        number("--listen", "PORT", "accept remote workers on TCP PORT",
               &args.listenPort, 0, 65535),
        number("--expect-workers", "N",
               "remote workers to wait for with --listen",
               &args.expectWorkers, 1),
        toggle("--worker", "run as a remote worker (needs --connect)",
               &args.workerMode),
        text("--connect", "HOST:PORT", "coordinator a --worker joins",
             &args.connect),
    };
    OptionTable cluster = {
        number("--max-placements", "N",
               "placement attempts per job across worker deaths "
               "(default 3)",
               &c.retry.maxAttempts, 1),
        faultOption(&c.faultSpec),
        number("--fault-worker", "W", "worker that gets --fault (default 0)",
               &c.faultWorker),
        text("--trace-signature", "FILE",
             "write the merged span-tree signature (needs --trace)",
             &args.traceSignature),
    };
    return {"rasengan_clusterd",
            "(--requests FILE | --workload N)\n"
            "         (--workers N | --listen PORT --expect-workers N) "
            "[options]\n"
            "   or: rasengan_clusterd --worker --connect HOST:PORT",
            concat({transport, batchOptions(args.batch), serviceOptions(c),
                    cluster, obsOptions(args.obs)})};
}

std::string
batchSourceError(const BatchArgs &batch)
{
    if (batch.requests.empty() == (batch.workload < 0))
        return "exactly one of --requests and --workload is required";
    return "";
}

bool
loadRequests(const BatchArgs &batch, std::vector<serve::JobRequest> *requests)
{
    if (batch.requests.empty()) {
        *requests = serve::generateWorkload(
            static_cast<size_t>(batch.workload), batch.workloadSeed);
        return true;
    }
    std::ifstream in(batch.requests);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", batch.requests.c_str());
        return false;
    }
    serve::LineReader reader(in);
    serve::LineReader::Line line;
    while (reader.next(line)) {
        // Request files are operator input: a defective line is an
        // error, not something to skip silently.
        if (!line.ok) {
            const char *why =
                line.hasNul      ? "request line contains a NUL byte"
                : line.oversized ? "request line exceeds the length cap"
                                 : "truncated final line (no newline)";
            std::fprintf(stderr, "%s:%zu: %s\n", batch.requests.c_str(),
                         line.number, why);
            return false;
        }
        serve::RequestParseResult parsed = serve::parseRequest(line.text);
        if (!parsed.ok) {
            std::fprintf(stderr, "%s:%zu: %s\n", batch.requests.c_str(),
                         line.number, parsed.error.c_str());
            return false;
        }
        if (parsed.request.id.empty())
            parsed.request.id = "line-" + std::to_string(line.number);
        requests->push_back(std::move(parsed.request));
    }
    return true;
}

bool
writeBatchLines(const BatchArgs &batch, size_t count,
                const std::function<std::string(size_t)> &result,
                const std::function<std::string(size_t)> &telemetry)
{
    if (!writeLines(batch.out, count, result))
        return false;
    return batch.telemetry.empty() ||
           writeLines(batch.telemetry, count, telemetry);
}

} // namespace rasengan::tools
