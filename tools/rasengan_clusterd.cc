/**
 * @file
 * Distributed solve cluster driver.
 *
 * Three modes share one binary:
 *
 *  - Local fork mode (default): `--workers N` forks N worker processes
 *    connected over socketpairs, shards the batch across them, and
 *    merges the streamed results.  The merged result file is
 *    byte-identical to a single-process `rasengan_serve` run over the
 *    same requests and batch seed -- at any worker count, any
 *    completion order, and across worker crashes (orphaned jobs are
 *    re-placed onto survivors and reproduce the same bytes).
 *
 *  - Worker mode: `--worker --connect HOST:PORT` runs one remote
 *    worker against a listening coordinator.
 *
 *  - Listen mode: `--listen PORT --expect-workers N` accepts N remote
 *    workers, then coordinates exactly like fork mode.
 *
 * Usage:
 *   rasengan_clusterd (--requests FILE | --workload N [--workload-seed S])
 *                     [--workers N | --listen PORT --expect-workers N]
 *   rasengan_clusterd --worker --connect HOST:PORT
 *
 * Options (coordinator modes):
 *   --out FILE, --telemetry FILE, --threads N, --batch-seed S,
 *   --cache-mb M, --max-queue N, --max-qubits N, --max-shots N,
 *   --max-cost UNITS        (same meanings as rasengan_serve)
 *   --max-placements N      placement attempts per job across worker
 *                           deaths (default 3)
 *   --fault SPEC            fault plan forwarded to one worker:
 *                           kill-after:N | disconnect-after:N
 *   --fault-worker W        which worker gets --fault (default 0)
 *   --simd ISA, --trace FILE, --metrics FILE, --flight SPEC
 *
 * Distributed tracing: with --trace the coordinator propagates a
 * per-job 128-bit trace id inside every forwarded request, workers
 * ship their span forests back in batch_done, and FILE receives ONE
 * merged Chrome trace (coordinator + every worker under per-worker
 * pids, clock-aligned).  --trace-signature FILE additionally writes
 * the canonical merged span-tree signature, which is byte-identical
 * across worker counts and thread counts for a deterministic batch.
 *
 * Environment:
 *   RASENGAN_CLUSTER_WORKERS    default for --workers
 *   RASENGAN_CLUSTER_FAULT      default for --fault
 *   RASENGAN_CLUSTER_MAX_FRAME  wire frame size cap in bytes
 *   RASENGAN_FLIGHT             default for --flight
 *
 * Exit status: 0 all jobs ok, 1 usage/I-O/cluster failure, 2 some
 * admitted job failed (rejections alone are reported outcomes).
 */

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/protocol.h"
#include "cluster/worker.h"
#include "exec/faults.h"
#include "obs_cli.h"
#include "serve/job.h"
#include "serve/jsonl.h"
#include "serve/workload.h"

using namespace rasengan;

namespace {

struct Args
{
    // Transport selection
    long workers = -1; ///< fork mode worker count
    bool workerMode = false;
    std::string connect; ///< HOST:PORT (worker mode)
    long listenPort = -1;
    long expectWorkers = -1;

    // Batch (mirrors rasengan_serve)
    std::string requests;
    long workload = -1;
    uint64_t workloadSeed = 1;
    std::string out;
    std::string telemetry;
    int threads = 0;
    uint64_t batchSeed = 0;
    long cacheMb = 64;
    long maxQueue = -1;
    long maxQubits = -1;
    long maxShots = -1;
    double maxCost = -1.0;
    long maxPlacements = 3;
    std::string fault;
    long faultWorker = 0;
    std::string simd;
    tools::ObsCliOptions obs;
    std::string traceSignature; ///< merged signature output path
};

void
usage()
{
    std::fprintf(
        stderr,
        "usage: rasengan_clusterd (--requests FILE | --workload N "
        "[--workload-seed S])\n"
        "  [--workers N | --listen PORT --expect-workers N]\n"
        "  [--out FILE] [--telemetry FILE] [--threads N] "
        "[--batch-seed S]\n"
        "  [--cache-mb M] [--max-queue N] [--max-qubits N] "
        "[--max-shots N] [--max-cost UNITS]\n"
        "  [--max-placements N] [--fault SPEC] [--fault-worker W]\n"
        "  [--simd auto|avx2|neon|scalar] [--trace FILE] "
        "[--trace-signature FILE]\n"
        "  [--metrics FILE] [--flight on|off|N|PATH]\n"
        "   or: rasengan_clusterd --worker --connect HOST:PORT\n");
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    if (const char *env = std::getenv("RASENGAN_CLUSTER_WORKERS"))
        args.workers = std::strtol(env, nullptr, 10);
    if (const char *env = std::getenv("RASENGAN_CLUSTER_FAULT"))
        args.fault = env;

    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (flag == "--workers" && (v = next()))
            args.workers = std::strtol(v, nullptr, 10);
        else if (flag == "--worker")
            args.workerMode = true;
        else if (flag == "--connect" && (v = next()))
            args.connect = v;
        else if (flag == "--listen" && (v = next()))
            args.listenPort = std::strtol(v, nullptr, 10);
        else if (flag == "--expect-workers" && (v = next()))
            args.expectWorkers = std::strtol(v, nullptr, 10);
        else if (flag == "--requests" && (v = next()))
            args.requests = v;
        else if (flag == "--workload" && (v = next()))
            args.workload = std::strtol(v, nullptr, 10);
        else if (flag == "--workload-seed" && (v = next()))
            args.workloadSeed = std::strtoull(v, nullptr, 10);
        else if (flag == "--out" && (v = next()))
            args.out = v;
        else if (flag == "--telemetry" && (v = next()))
            args.telemetry = v;
        else if (flag == "--threads" && (v = next()))
            args.threads = static_cast<int>(std::strtol(v, nullptr, 10));
        else if (flag == "--batch-seed" && (v = next()))
            args.batchSeed = std::strtoull(v, nullptr, 10);
        else if (flag == "--cache-mb" && (v = next()))
            args.cacheMb = std::strtol(v, nullptr, 10);
        else if (flag == "--max-queue" && (v = next()))
            args.maxQueue = std::strtol(v, nullptr, 10);
        else if (flag == "--max-qubits" && (v = next()))
            args.maxQubits = std::strtol(v, nullptr, 10);
        else if (flag == "--max-shots" && (v = next()))
            args.maxShots = std::strtol(v, nullptr, 10);
        else if (flag == "--max-cost" && (v = next()))
            args.maxCost = std::strtod(v, nullptr);
        else if (flag == "--max-placements" && (v = next()))
            args.maxPlacements = std::strtol(v, nullptr, 10);
        else if (flag == "--fault" && (v = next()))
            args.fault = v;
        else if (flag == "--fault-worker" && (v = next()))
            args.faultWorker = std::strtol(v, nullptr, 10);
        else if (flag == "--simd" && (v = next()))
            args.simd = v;
        else if (flag == "--trace" && (v = next()))
            args.obs.tracePath = v;
        else if (flag == "--trace-signature" && (v = next()))
            args.traceSignature = v;
        else if (flag == "--metrics" && (v = next()))
            args.obs.metricsPath = v;
        else if (flag == "--flight" && (v = next()))
            args.obs.flightSpec = v;
        else {
            std::fprintf(stderr, "unknown or incomplete flag: %s\n",
                         flag.c_str());
            return false;
        }
    }

    if (args.workerMode) {
        if (args.connect.empty()) {
            std::fprintf(stderr, "--worker requires --connect\n");
            return false;
        }
        return true;
    }
    bool haveRequests = !args.requests.empty();
    bool haveWorkload = args.workload >= 0;
    if (haveRequests == haveWorkload) {
        std::fprintf(stderr, "exactly one of --requests and --workload "
                             "is required\n");
        return false;
    }
    bool forkMode = args.workers > 0;
    bool listenMode = args.listenPort >= 0;
    if (forkMode == listenMode) {
        std::fprintf(stderr, "exactly one of --workers and --listen is "
                             "required\n");
        return false;
    }
    if (listenMode && args.expectWorkers <= 0) {
        std::fprintf(stderr, "--listen requires --expect-workers N\n");
        return false;
    }
    if (args.maxPlacements < 1) {
        std::fprintf(stderr, "--max-placements must be >= 1\n");
        return false;
    }
    if (args.cacheMb < 0) {
        std::fprintf(stderr, "--cache-mb must be >= 0\n");
        return false;
    }
    exec::ProcessFaultParseResult fault =
        exec::parseProcessFaultPlan(args.fault);
    if (!fault.ok) {
        std::fprintf(stderr, "--fault: %s\n", fault.error.c_str());
        return false;
    }
    return true;
}

/** Parse HOST:PORT and connect a TCP stream; -1 on failure. */
int
connectTo(const std::string &target)
{
    size_t colon = target.rfind(':');
    if (colon == std::string::npos || colon == 0 ||
        colon + 1 >= target.size()) {
        std::fprintf(stderr, "--connect expects HOST:PORT\n");
        return -1;
    }
    std::string host = target.substr(0, colon);
    std::string port = target.substr(colon + 1);
    addrinfo hints{};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    if (::getaddrinfo(host.c_str(), port.c_str(), &hints, &res) != 0 ||
        res == nullptr) {
        std::fprintf(stderr, "cannot resolve %s\n", target.c_str());
        return -1;
    }
    int fd = -1;
    for (addrinfo *ai = res; ai != nullptr; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
        if (fd < 0)
            continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        ::close(fd);
        fd = -1;
    }
    ::freeaddrinfo(res);
    if (fd < 0)
        std::fprintf(stderr, "cannot connect to %s\n", target.c_str());
    return fd;
}

/** Accept @p count worker connections on 127.0.0.1:@p port. */
bool
acceptWorkers(long port, long count, std::vector<int> &fds)
{
    int listener = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listener < 0) {
        std::fprintf(stderr, "cannot create listen socket\n");
        return false;
    }
    int one = 1;
    ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    if (::bind(listener, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0 ||
        ::listen(listener, static_cast<int>(count)) != 0) {
        std::fprintf(stderr, "cannot listen on port %ld\n", port);
        ::close(listener);
        return false;
    }
    std::fprintf(stderr, "cluster: waiting for %ld workers on port %ld\n",
                 count, port);
    for (long i = 0; i < count; ++i) {
        int fd = ::accept(listener, nullptr, nullptr);
        if (fd < 0) {
            std::fprintf(stderr, "accept failed\n");
            ::close(listener);
            return false;
        }
        fds.push_back(fd);
    }
    ::close(listener);
    return true;
}

/**
 * Fork @p count workers connected over socketpairs.  Forking happens
 * before the coordinator touches the simulation pool, so children never
 * inherit live pool threads.  Each child closes the coordinator ends it
 * inherited (a stray duplicate would defeat EOF-based death detection).
 */
bool
forkWorkers(long count, std::vector<int> &coordinatorFds,
            std::vector<pid_t> &children)
{
    for (long i = 0; i < count; ++i) {
        int pair[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) {
            std::fprintf(stderr, "socketpair failed\n");
            return false;
        }
        pid_t pid = ::fork();
        if (pid < 0) {
            std::fprintf(stderr, "fork failed\n");
            ::close(pair[0]);
            ::close(pair[1]);
            return false;
        }
        if (pid == 0) {
            ::close(pair[0]);
            for (int fd : coordinatorFds)
                ::close(fd);
            cluster::WorkerOutcome outcome = cluster::runWorker(pair[1]);
            if (!outcome.ok)
                std::fprintf(stderr, "worker %ld: %s\n", i,
                             outcome.error.c_str());
            std::fflush(nullptr);
            ::_exit(outcome.ok ? 0 : 1);
        }
        ::close(pair[1]);
        coordinatorFds.push_back(pair[0]);
        children.push_back(pid);
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        usage();
        return 1;
    }
    if (!args.traceSignature.empty() && args.obs.tracePath.empty()) {
        std::fprintf(stderr,
                     "--trace-signature requires --trace (the signature "
                     "is computed over the merged trace)\n");
        return 1;
    }

    if (args.workerMode) {
        if (!tools::applySimdFlag(args.simd))
            return 1;
        int fd = connectTo(args.connect);
        if (fd < 0)
            return 1;
        cluster::WorkerOutcome outcome = cluster::runWorker(fd);
        if (!outcome.ok) {
            std::fprintf(stderr, "worker: %s\n", outcome.error.c_str());
            return 1;
        }
        std::fprintf(stderr, "worker: %zu jobs run\n", outcome.jobsRun);
        return 0;
    }

    // Workers first: fork mode must spawn before any pool/simd setup so
    // children start from a clean, thread-free process image.
    std::vector<int> workerFds;
    std::vector<pid_t> children;
    if (args.workers > 0) {
        if (!forkWorkers(args.workers, workerFds, children))
            return 1;
    } else if (!acceptWorkers(args.listenPort, args.expectWorkers,
                              workerFds)) {
        return 1;
    }

    // Assemble the request list (same defaulting as rasengan_serve, so
    // the merged output is comparable line for line).
    std::vector<serve::JobRequest> requests;
    if (!args.requests.empty()) {
        std::ifstream in(args.requests);
        if (!in) {
            std::fprintf(stderr, "cannot open %s\n",
                         args.requests.c_str());
            return 1;
        }
        serve::LineReader reader(in);
        serve::LineReader::Line line;
        while (reader.next(line)) {
            if (!line.ok) {
                const char *why =
                    line.hasNul ? "request line contains a NUL byte"
                    : line.oversized
                        ? "request line exceeds the length cap"
                        : "truncated final line (no newline)";
                std::fprintf(stderr, "%s:%zu: %s\n",
                             args.requests.c_str(), line.number, why);
                return 1;
            }
            serve::RequestParseResult parsed =
                serve::parseRequest(line.text);
            if (!parsed.ok) {
                std::fprintf(stderr, "%s:%zu: %s\n",
                             args.requests.c_str(), line.number,
                             parsed.error.c_str());
                return 1;
            }
            if (parsed.request.id.empty())
                parsed.request.id = "line-" + std::to_string(line.number);
            requests.push_back(std::move(parsed.request));
        }
    } else {
        requests = serve::generateWorkload(
            static_cast<size_t>(args.workload), args.workloadSeed);
    }

    cluster::CoordinatorOptions options;
    options.batchSeed = args.batchSeed;
    options.threads = args.threads;
    options.cacheBudgetBytes = static_cast<uint64_t>(args.cacheMb) << 20;
    if (args.maxQueue >= 0)
        options.limits.maxQueuedJobs = static_cast<size_t>(args.maxQueue);
    if (args.maxQubits >= 0)
        options.limits.maxQubits = static_cast<int>(args.maxQubits);
    if (args.maxShots >= 0)
        options.limits.maxShotsPerJob =
            static_cast<uint64_t>(args.maxShots);
    if (args.maxCost >= 0.0)
        options.limits.maxJobCostUnits = args.maxCost;
    options.maxFrameBytes = cluster::maxFrameBytesFromEnv();
    options.faultSpec = args.fault;
    options.faultWorker = static_cast<int>(args.faultWorker);
    options.retry.maxAttempts = static_cast<int>(args.maxPlacements);

    if (!tools::applySimdFlag(args.simd))
        return 1;
    tools::obsCliStart(args.obs);

    cluster::Coordinator coordinator(options, std::move(workerFds));
    for (const auto &req : requests)
        coordinator.submit(req);
    std::string error;
    bool ok = coordinator.runAll(&error);
    if (!ok)
        std::fprintf(stderr, "cluster: %s\n", error.c_str());

    // Merged result stream, submission order.
    std::FILE *out = stdout;
    if (!args.out.empty()) {
        out = std::fopen(args.out.c_str(), "w");
        if (!out) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         args.out.c_str());
            return 1;
        }
    }
    for (const auto &line : coordinator.resultLines())
        std::fprintf(out, "%s\n", line.c_str());
    if (out != stdout)
        std::fclose(out);

    if (!args.telemetry.empty()) {
        std::FILE *tel = std::fopen(args.telemetry.c_str(), "w");
        if (!tel) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         args.telemetry.c_str());
            return 1;
        }
        for (const auto &line : coordinator.telemetryLines())
            std::fprintf(tel, "%s\n", line.c_str());
        std::fclose(tel);
    }

    // Outcome accounting from the merged lines themselves.
    size_t accepted = 0, rejected = 0, failed = 0;
    for (const auto &line : coordinator.resultLines()) {
        serve::JsonParseResult parsed = serve::parseFlatJson(line);
        if (!parsed.ok) {
            ++failed;
            continue;
        }
        auto boolOf = [&](const char *key) {
            auto it = parsed.object.find(key);
            return it != parsed.object.end() &&
                   it->second.kind == serve::JsonValue::Kind::Bool &&
                   it->second.flag;
        };
        if (!boolOf("accepted"))
            ++rejected;
        else if (!boolOf("ok"))
            ++failed;
        else
            ++accepted;
    }

    const cluster::CoordinatorStats &stats = coordinator.stats();
    std::fprintf(stderr,
                 "cluster: %zu jobs (%zu ok, %zu failed, %zu rejected) "
                 "on %zu workers (%zu died, %zu jobs re-placed, %zu "
                 "abandoned)\n",
                 coordinator.resultLines().size(), accepted, failed,
                 rejected, stats.workers, stats.workersDead,
                 stats.jobsReplaced, stats.jobsSynthesized);
    std::fprintf(stderr,
                 "cluster cache: %llu hits, %llu misses, %llu evictions "
                 "across surviving workers\n",
                 static_cast<unsigned long long>(stats.cacheHits),
                 static_cast<unsigned long long>(stats.cacheMisses),
                 static_cast<unsigned long long>(stats.cacheEvictions));

    // Reap fork-mode children (a faulted worker died by SIGKILL; that
    // is the experiment, not an error).
    for (pid_t pid : children) {
        int status = 0;
        ::waitpid(pid, &status, 0);
    }

    // The cluster trace is stitched from every worker's shipped spans,
    // so the merged writer replaces the plain per-process export that
    // obsCliFinish() would produce.
    if (!args.obs.tracePath.empty()) {
        obs::stopTracing();
        std::string traceError;
        if (!coordinator.writeMergedTrace(args.obs.tracePath,
                                          &traceError)) {
            std::fprintf(stderr, "cluster trace: %s\n",
                         traceError.c_str());
            return 1;
        }
        size_t foreign = 0;
        for (const auto &f : coordinator.foreignSpans())
            foreign += f.events.size();
        std::fprintf(stderr,
                     "cluster trace: %zu coordinator events + %zu "
                     "worker events -> %s\n",
                     obs::traceEventCount(), foreign,
                     args.obs.tracePath.c_str());
        if (uint64_t dropped = coordinator.shippedSpansDropped())
            std::fprintf(
                stderr,
                "cluster trace: %llu worker spans dropped (frame cap)\n",
                static_cast<unsigned long long>(dropped));
        args.obs.tracePath.clear(); // merged trace already written
    }
    if (!args.traceSignature.empty()) {
        const std::string sig = coordinator.mergedSignature() + "\n";
        if (!obs::writeTextFile(args.traceSignature, sig)) {
            std::fprintf(stderr, "cannot write trace signature to '%s'\n",
                         args.traceSignature.c_str());
            return 1;
        }
    }

    if (!tools::obsCliFinish(args.obs))
        return 1;
    if (!ok)
        return 1;
    return failed > 0 ? 2 : 0;
}
