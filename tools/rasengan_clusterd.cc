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
 * Run it with no arguments for the option list; --workers and --fault
 * fall back to RASENGAN_CLUSTER_WORKERS and RASENGAN_CLUSTER_FAULT,
 * and RASENGAN_CLUSTER_MAX_FRAME caps the wire frame size in bytes.
 *
 * Distributed tracing: with --trace the coordinator propagates a
 * per-job 128-bit trace id inside every forwarded request, workers
 * ship their span forests back in batch_done, and FILE receives ONE
 * merged Chrome trace (coordinator + every worker under per-worker
 * pids, clock-aligned).  --trace-signature FILE additionally writes
 * the canonical merged span-tree signature, which is byte-identical
 * across worker counts and thread counts for a deterministic batch.
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
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/protocol.h"
#include "cluster/worker.h"
#include "drivers.h"
#include "serve/jsonl.h"

using namespace rasengan;

namespace {

/** The mode checks the option table cannot express; "" when valid. */
std::string
modeError(const tools::ClusterdArgs &args)
{
    if (args.workerMode)
        return args.connect.empty() ? "--worker requires --connect" : "";
    if (std::string error = tools::batchSourceError(args.batch);
        !error.empty())
        return error;
    if ((args.workers > 0) == (args.listenPort >= 0))
        return "exactly one of --workers and --listen is required";
    if (args.listenPort >= 0 && args.expectWorkers < 0)
        return "--listen requires --expect-workers N";
    if (!args.traceSignature.empty() && args.obs.tracePath.empty())
        return "--trace-signature requires --trace (the signature is "
               "computed over the merged trace)";
    return "";
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
acceptWorkers(int port, long count, std::vector<int> &fds)
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
        std::fprintf(stderr, "cannot listen on port %d\n", port);
        ::close(listener);
        return false;
    }
    std::fprintf(stderr, "cluster: waiting for %ld workers on port %d\n",
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
forkWorkers(int count, std::vector<int> &coordinatorFds,
            std::vector<pid_t> &children)
{
    for (int i = 0; i < count; ++i) {
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
                std::fprintf(stderr, "worker %d: %s\n", i,
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
    tools::ClusterdArgs args;
    const tools::CommandLine cli = tools::clusterdCommandLine(args);
    tools::parseOrExit(cli, argc, argv);
    if (std::string error = modeError(args); !error.empty()) {
        tools::printUsageError(cli, error);
        return 1;
    }

    if (args.workerMode) {
        if (!tools::applySimdFlag(args.obs.simd))
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

    // The same request list rasengan_serve builds, so the merged output
    // is comparable line for line.
    std::vector<serve::JobRequest> requests;
    if (!tools::loadRequests(args.batch, &requests))
        return 1;

    cluster::CoordinatorOptions &options = args.coordinator;
    options.maxFrameBytes = cluster::maxFrameBytesFromEnv();

    if (!tools::applySimdFlag(args.obs.simd))
        return 1;
    tools::obsCliStart(args.obs);

    cluster::Coordinator coordinator(options, std::move(workerFds));
    for (const auto &req : requests)
        coordinator.submit(req);
    std::string error;
    bool ok = coordinator.runAll(&error);
    if (!ok)
        std::fprintf(stderr, "cluster: %s\n", error.c_str());

    // Merged result stream, submission order, then telemetry.
    const std::vector<std::string> &results = coordinator.resultLines();
    const std::vector<std::string> &telemetry =
        coordinator.telemetryLines();
    if (!tools::writeBatchLines(
            args.batch, results.size(), [&](size_t i) { return results[i]; },
            [&](size_t i) { return telemetry[i]; }))
        return 1;

    // Outcome accounting from the merged lines themselves.
    size_t accepted = 0, rejected = 0, failed = 0;
    for (const auto &line : results) {
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
                 results.size(), accepted, failed,
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
