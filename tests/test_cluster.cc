/**
 * @file
 * Distributed solve cluster tests: wire-protocol framing (round trips,
 * incremental feeds, poisoning, random-bytes fuzz), message schema
 * validation, deterministic placement, process-fault-plan parsing,
 * coordinator/scheduler screening parity, and loopback end-to-end runs
 * -- including a worker lost mid-batch -- whose merged output must be
 * byte-identical to a single-process BatchScheduler (and, for one mixed
 * request set, to the serve daemon's responses).
 *
 * End-to-end cases run real workers as in-process threads over
 * socketpairs: the shared simulation pool serializes concurrent batch
 * runs behind its run mutex, so loopback workers are safe (and
 * TSan-clean) without forking.  Process-level SIGKILL coverage lives in
 * the CI cluster-smoke job, which drives the rasengan_clusterd binary.
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.h"
#include "cluster/placement.h"
#include "cluster/protocol.h"
#include "cluster/worker.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "obs/trace.h"
#include "exec/faults.h"
#include "serve/admission.h"
#include "serve/daemon.h"
#include "serve/job.h"
#include "serve/jsonl.h"
#include "serve/scheduler.h"
#include "serve/workload.h"

using namespace rasengan;
using namespace rasengan::cluster;

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

TEST(Framing, RoundTripsPayloadsIncludingBinary)
{
    std::vector<std::string> payloads = {
        "", "x", "{\"type\":\"bye\"}", std::string("nul\0inside", 10),
        std::string(100000, 'q') + "\n\n\n"};
    std::string stream;
    for (const auto &p : payloads)
        stream += frame(p);

    // Feed one byte at a time: the decoder must never need lookahead.
    FrameDecoder decoder;
    std::vector<std::string> decoded;
    std::string payload;
    for (char c : stream) {
        decoder.feed(&c, 1);
        while (decoder.next(payload))
            decoded.push_back(payload);
    }
    EXPECT_FALSE(decoder.corrupt());
    EXPECT_EQ(decoded, payloads);
    EXPECT_EQ(decoder.framesDecoded(), payloads.size());
    EXPECT_EQ(decoder.bufferedBytes(), 0u);
}

TEST(Framing, OversizedLengthPoisonsBeforeBuffering)
{
    FrameDecoder decoder(1024);
    std::string header = "99999999\n";
    decoder.feed(header.data(), header.size());
    std::string payload;
    EXPECT_FALSE(decoder.next(payload));
    EXPECT_TRUE(decoder.corrupt());
    EXPECT_NE(decoder.corruptReason().find("exceeds"), std::string::npos);

    // Poison is permanent: even a valid frame afterwards is refused.
    std::string good = frame("{}");
    decoder.feed(good.data(), good.size());
    EXPECT_FALSE(decoder.next(payload));
}

TEST(Framing, MalformedHeadersPoison)
{
    {
        FrameDecoder decoder;
        std::string bad = "12a\n";
        decoder.feed(bad.data(), bad.size());
        std::string payload;
        EXPECT_FALSE(decoder.next(payload));
        EXPECT_TRUE(decoder.corrupt());
    }
    {
        FrameDecoder decoder;
        std::string bad = "\npayload";
        decoder.feed(bad.data(), bad.size());
        std::string payload;
        EXPECT_FALSE(decoder.next(payload));
        EXPECT_TRUE(decoder.corrupt());
    }
    {
        // Payload not terminated by newline: a torn or corrupt write.
        FrameDecoder decoder;
        std::string bad = "2\nabX";
        decoder.feed(bad.data(), bad.size());
        std::string payload;
        EXPECT_FALSE(decoder.next(payload));
        EXPECT_TRUE(decoder.corrupt());
    }
}

TEST(Framing, RandomBytesFuzzNeverOverBuffers)
{
    // Random garbage must either decode or poison -- never crash, and
    // never buffer more than the frame cap plus a small header.
    Rng rng(20260809);
    for (int round = 0; round < 200; ++round) {
        FrameDecoder decoder(4096);
        std::string chunk;
        for (int i = 0; i < 512; ++i)
            chunk.push_back(
                static_cast<char>(rng.uniformInt(0, 255)));
        decoder.feed(chunk.data(), chunk.size());
        std::string payload;
        while (decoder.next(payload)) {
        }
        EXPECT_LE(decoder.bufferedBytes(), 4096u + 16u);
    }
}

TEST(Framing, FuzzedFrameStreamsRoundTrip)
{
    // Frames of random binary payloads, fed in random-size chunks, must
    // reproduce the payload sequence exactly.
    Rng rng(7);
    for (int round = 0; round < 50; ++round) {
        std::vector<std::string> payloads;
        std::string stream;
        int count = static_cast<int>(rng.uniformInt(1, 8));
        for (int i = 0; i < count; ++i) {
            std::string p;
            int len = static_cast<int>(rng.uniformInt(0, 300));
            for (int b = 0; b < len; ++b)
                p.push_back(static_cast<char>(rng.uniformInt(0, 255)));
            payloads.push_back(p);
            stream += frame(p);
        }
        FrameDecoder decoder;
        std::vector<std::string> decoded;
        size_t pos = 0;
        std::string payload;
        while (pos < stream.size()) {
            size_t n = static_cast<size_t>(rng.uniformInt(
                1, static_cast<int64_t>(stream.size() - pos)));
            decoder.feed(stream.data() + pos, n);
            pos += n;
            while (decoder.next(payload))
                decoded.push_back(payload);
        }
        ASSERT_FALSE(decoder.corrupt());
        EXPECT_EQ(decoded, payloads);
    }
}

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

TEST(Messages, HelloRoundTripsFullSixtyFourBitSeed)
{
    Message hello;
    hello.type = "hello";
    hello.version = kProtocolVersion;
    hello.worker = 3;
    // Above 2^53: a double would silently round this.
    hello.batchSeed = (1ull << 63) + 12345u;
    hello.threads = 4;
    hello.cacheBudgetBytes = 64ull << 20;
    hello.fault = "kill-after:7";

    MessageParseResult parsed = parseMessage(encodeMessage(hello));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.msg.worker, 3);
    EXPECT_EQ(parsed.msg.batchSeed, (1ull << 63) + 12345u);
    EXPECT_EQ(parsed.msg.threads, 4);
    EXPECT_EQ(parsed.msg.cacheBudgetBytes, 64ull << 20);
    EXPECT_EQ(parsed.msg.fault, "kill-after:7");
}

TEST(Messages, AllTypesRoundTrip)
{
    Message job;
    job.type = "job";
    job.index = 17;
    job.request = "{\"id\":\"a\",\"benchmark\":\"F1\"}";
    MessageParseResult parsed = parseMessage(encodeMessage(job));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.msg.index, 17u);
    EXPECT_EQ(parsed.msg.request, job.request);

    Message result;
    result.type = "result";
    result.index = 4;
    result.result = "{\"id\":\"a\",\"ok\":true}";
    result.telemetry = "{\"id\":\"a\",\"wall_ms\":1.5}";
    parsed = parseMessage(encodeMessage(result));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.msg.result, result.result);
    EXPECT_EQ(parsed.msg.telemetry, result.telemetry);

    Message done;
    done.type = "batch_done";
    done.jobs = 9;
    done.cacheHits = 5;
    done.cacheMisses = 4;
    done.metrics = "{\"serve_jobs_total\":9}";
    parsed = parseMessage(encodeMessage(done));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.msg.jobs, 9u);
    EXPECT_EQ(parsed.msg.cacheHits, 5u);
    EXPECT_EQ(parsed.msg.metrics, done.metrics);

    for (const char *type : {"run", "drain", "bye"}) {
        Message m;
        m.type = type;
        m.jobs = 2;
        parsed = parseMessage(encodeMessage(m));
        ASSERT_TRUE(parsed.ok) << parsed.error;
        EXPECT_EQ(parsed.msg.type, type);
    }
}

TEST(Messages, RejectsUnknownTypesAndMissingFields)
{
    EXPECT_FALSE(parseMessage("{\"type\":\"warp\"}").ok);
    EXPECT_FALSE(parseMessage("{\"no_type\":1}").ok);
    EXPECT_FALSE(parseMessage("not json at all").ok);
    // job without its request payload
    EXPECT_FALSE(parseMessage("{\"type\":\"job\",\"index\":1}").ok);
    // hello with a non-numeric seed string
    EXPECT_FALSE(
        parseMessage("{\"type\":\"hello\",\"version\":1,\"worker\":0,"
                     "\"batch_seed\":\"12x\",\"threads\":0,"
                     "\"cache_bytes\":0}")
            .ok);
}

// ---------------------------------------------------------------------
// Placement
// ---------------------------------------------------------------------

TEST(Placement, LeastLoadedWinsAndTiesGoToLowestIndex)
{
    Placer placer(3);
    // All empty: tie -> worker 0.
    EXPECT_EQ(placer.place(10.0), 0);
    // 0 has 10; 1 and 2 tie at zero -> worker 1.
    EXPECT_EQ(placer.place(1.0), 1);
    EXPECT_EQ(placer.place(1.0), 2);
    // Loads now 10/1/1: tie between 1 and 2 -> worker 1.
    EXPECT_EQ(placer.place(5.0), 1);
    // Loads 10/6/1 -> worker 2.
    EXPECT_EQ(placer.place(1.0), 2);
    EXPECT_DOUBLE_EQ(placer.loadOf(0), 10.0);
    EXPECT_DOUBLE_EQ(placer.loadOf(1), 6.0);
    EXPECT_DOUBLE_EQ(placer.loadOf(2), 2.0);
}

TEST(Placement, IsDeterministic)
{
    Rng rng(99);
    std::vector<double> costs;
    for (int i = 0; i < 64; ++i)
        costs.push_back(
            static_cast<double>(rng.uniformInt(1, 1000)));
    auto placeAll = [&]() {
        Placer placer(4);
        std::vector<int> where;
        for (double c : costs)
            where.push_back(placer.place(c));
        return where;
    };
    EXPECT_EQ(placeAll(), placeAll());
}

TEST(Placement, DeadWorkersAreNeverChosen)
{
    Placer placer(2);
    placer.markDead(0);
    EXPECT_FALSE(placer.alive(0));
    EXPECT_EQ(placer.aliveCount(), 1u);
    EXPECT_EQ(placer.place(1.0), 1);
    placer.markDead(1);
    EXPECT_EQ(placer.place(1.0), -1);
    // Idempotent death, bogus indices tolerated.
    placer.markDead(1);
    placer.markDead(-1);
    placer.markDead(7);
    EXPECT_EQ(placer.aliveCount(), 0u);
}

// ---------------------------------------------------------------------
// Process fault plans
// ---------------------------------------------------------------------

TEST(ProcessFaults, ParsesSpecsAndRejectsGarbage)
{
    EXPECT_TRUE(exec::parseProcessFaultPlan("").ok);
    EXPECT_FALSE(exec::parseProcessFaultPlan("").plan.enabled());
    EXPECT_TRUE(exec::parseProcessFaultPlan("none").ok);

    exec::ProcessFaultParseResult kill =
        exec::parseProcessFaultPlan("kill-after:3");
    ASSERT_TRUE(kill.ok);
    EXPECT_EQ(kill.plan.action, exec::ProcessFaultPlan::Action::Kill);
    EXPECT_TRUE(kill.plan.triggers(3));
    EXPECT_FALSE(kill.plan.triggers(2));
    EXPECT_FALSE(kill.plan.triggers(4)); // fires exactly once

    exec::ProcessFaultParseResult disc =
        exec::parseProcessFaultPlan("disconnect-after:10");
    ASSERT_TRUE(disc.ok);
    EXPECT_EQ(disc.plan.action,
              exec::ProcessFaultPlan::Action::Disconnect);

    EXPECT_FALSE(exec::parseProcessFaultPlan("kill-after:").ok);
    EXPECT_FALSE(exec::parseProcessFaultPlan("kill-after:x3").ok);
    EXPECT_FALSE(exec::parseProcessFaultPlan("explode-after:3").ok);
}

// ---------------------------------------------------------------------
// Screening parity
// ---------------------------------------------------------------------

TEST(Screening, MatchesSchedulerRejectionBytes)
{
    // Tight limits so the stream mixes rejections into accepted jobs.
    serve::AdmissionLimits limits;
    limits.maxShotsPerJob = 1024;
    limits.maxBatchCostUnits = 3e6;

    std::vector<serve::JobRequest> requests =
        serve::generateWorkload(10, 3);
    requests[2].shots = 4096;           // per-field rejection
    requests[2].execution = "sampled";

    serve::ServeOptions options;
    options.batchSeed = 5;
    options.limits = limits;
    serve::BatchScheduler scheduler(options);
    for (const auto &req : requests)
        scheduler.submit(req);
    scheduler.runAll();

    // Screen the same stream the coordinator's way.
    serve::JobRunner runner(
        serve::RunnerOptions{5, ""},
        std::make_shared<serve::ArtifactCache>(0));
    serve::AdmissionController admission(limits);
    size_t rejected = 0;
    for (size_t i = 0; i < requests.size(); ++i) {
        serve::ScreenedJob screened =
            serve::screenRequest(runner, admission, requests[i]);
        const serve::JobResult &expected = scheduler.results()[i];
        if (!screened.admitted) {
            ++rejected;
            EXPECT_EQ(serve::writeResult(screened.rejection),
                      serve::writeResult(expected));
        } else {
            EXPECT_DOUBLE_EQ(screened.costUnits, expected.costUnits);
        }
    }
    EXPECT_GE(rejected, 1u);
}

// ---------------------------------------------------------------------
// Loopback end-to-end
// ---------------------------------------------------------------------

namespace {

/** Expected single-process result lines for @p requests. */
std::vector<std::string>
singleProcessLines(const std::vector<serve::JobRequest> &requests,
                   uint64_t batchSeed)
{
    serve::ServeOptions options;
    options.batchSeed = batchSeed;
    serve::BatchScheduler scheduler(options);
    for (const auto &req : requests)
        scheduler.submit(req);
    scheduler.runAll();
    std::vector<std::string> lines;
    for (const auto &result : scheduler.results())
        lines.push_back(serve::writeResult(result));
    return lines;
}

struct LoopbackRun
{
    std::vector<std::string> lines;
    std::vector<std::string> telemetry;
    CoordinatorStats stats;
    bool ok = false;
    std::string error;
    std::string mergedSignature; ///< "" unless tracing was enabled
    uint64_t spansDropped = 0;
};

/** Run @p requests through a coordinator with @p workers loopback
 *  worker threads over socketpairs. */
LoopbackRun
runLoopback(const std::vector<serve::JobRequest> &requests,
            uint64_t batchSeed, int workers,
            const std::string &faultSpec = "", int faultWorker = -1,
            int threadCount = 0,
            const serve::AdmissionLimits &limits = serve::AdmissionLimits())
{
    LoopbackRun run;
    std::vector<int> coordinatorFds;
    std::vector<std::thread> threads;
    for (int w = 0; w < workers; ++w) {
        int pair[2];
        if (::socketpair(AF_UNIX, SOCK_STREAM, 0, pair) != 0) {
            run.error = "socketpair failed";
            return run;
        }
        coordinatorFds.push_back(pair[0]);
        threads.emplace_back([fd = pair[1]]() { runWorker(fd); });
    }

    CoordinatorOptions options;
    options.batchSeed = batchSeed;
    options.threads = threadCount;
    options.faultSpec = faultSpec;
    options.faultWorker = faultWorker;
    options.limits = limits;
    options.retry.initialDelaySeconds = 0.0; // no test-time backoff
    options.retry.jitter = 0.0;
    Coordinator coordinator(options, std::move(coordinatorFds));
    for (const auto &req : requests)
        coordinator.submit(req);
    run.ok = coordinator.runAll(&run.error);
    for (auto &t : threads)
        t.join();
    run.lines = coordinator.resultLines();
    run.telemetry = coordinator.telemetryLines();
    run.stats = coordinator.stats();
    run.mergedSignature = coordinator.mergedSignature();
    run.spansDropped = coordinator.shippedSpansDropped();
    return run;
}

} // namespace

TEST(Cluster, MergedOutputByteIdenticalAcrossWorkerCounts)
{
    std::vector<serve::JobRequest> requests =
        serve::generateWorkload(8, 11);
    std::vector<std::string> expected = singleProcessLines(requests, 21);
    for (int workers : {1, 2, 3}) {
        LoopbackRun run = runLoopback(requests, 21, workers);
        ASSERT_TRUE(run.ok) << run.error;
        EXPECT_EQ(run.lines, expected)
            << "divergence at " << workers << " workers";
        EXPECT_EQ(run.stats.workersDead, 0u);
    }
}

TEST(Cluster, WorkerLostMidBatchStillMergesIdentically)
{
    std::vector<serve::JobRequest> requests =
        serve::generateWorkload(10, 13);
    std::vector<std::string> expected = singleProcessLines(requests, 31);

    // Worker 0 silently drops its connection after two completions; its
    // remaining jobs must be re-placed and the merge stay exact.
    LoopbackRun run =
        runLoopback(requests, 31, 3, "disconnect-after:2", 0);
    ASSERT_TRUE(run.ok) << run.error;
    EXPECT_EQ(run.lines, expected);
    EXPECT_EQ(run.stats.workersDead, 1u);
    EXPECT_GE(run.stats.jobsReplaced, 1u);
    EXPECT_EQ(run.stats.jobsSynthesized, 0u);
}

TEST(Cluster, AllWorkersLostSynthesizesFailuresNotHangs)
{
    std::vector<serve::JobRequest> requests =
        serve::generateWorkload(6, 17);
    // The only worker dies after one job and nothing survives to adopt
    // the orphans: every unfinished slot must complete as a failure.
    LoopbackRun run =
        runLoopback(requests, 1, 1, "disconnect-after:1", 0);
    EXPECT_FALSE(run.ok);
    ASSERT_EQ(run.lines.size(), requests.size());
    for (const auto &line : run.lines)
        EXPECT_FALSE(line.empty());
    EXPECT_EQ(run.stats.workersDead, 1u);
    EXPECT_GE(run.stats.jobsSynthesized, 1u);
    size_t failed = 0;
    for (const auto &line : run.lines) {
        if (line.find("\"ok\":false") != std::string::npos)
            ++failed;
    }
    EXPECT_EQ(failed, run.stats.jobsSynthesized);
}

// ---------------------------------------------------------------------
// One job core: batch, cluster and daemon agree
// ---------------------------------------------------------------------

namespace {

/** Send each request line to the daemon at unix socket @p path and read
 *  its response before sending the next: the responses in request
 *  order (an empty string where none arrived within 120 s). */
std::vector<std::string>
daemonResponses(const std::string &path,
                const std::vector<serve::JobRequest> &requests)
{
    std::vector<std::string> lines;
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                  path.c_str());
    if (fd < 0 || ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)) != 0) {
        if (fd >= 0)
            ::close(fd);
        return lines;
    }
    std::string buffer;
    for (const auto &req : requests) {
        const std::string out = serve::writeRequest(req) + "\n";
        if (::send(fd, out.data(), out.size(), 0) !=
            static_cast<ssize_t>(out.size()))
            break;
        size_t nl;
        while ((nl = buffer.find('\n')) == std::string::npos) {
            pollfd pfd{fd, POLLIN, 0};
            char chunk[4096];
            ssize_t n = ::poll(&pfd, 1, 120000) == 1
                            ? ::recv(fd, chunk, sizeof(chunk), 0)
                            : 0;
            if (n <= 0)
                break;
            buffer.append(chunk, static_cast<size_t>(n));
        }
        if (nl == std::string::npos)
            break;
        lines.push_back(buffer.substr(0, nl));
        buffer.erase(0, nl + 1);
    }
    ::close(fd);
    lines.resize(requests.size());
    return lines;
}

serve::JsonValue
jsonField(const std::string &line, const std::string &key)
{
    serve::JsonParseResult parsed = serve::parseFlatJson(line);
    return parsed.ok ? parsed.object[key] : serve::JsonValue{};
}

} // namespace

TEST(Cluster, OneJobCoreGivesTheSameLinesOnEveryPath)
{
    // A mixed set: rasengan and baseline jobs, a validation rejection
    // (unknown benchmark) and an admission rejection (too many shots).
    std::vector<serve::JobRequest> requests =
        serve::generateWorkload(7, 37);
    requests[1].benchmark = "Z9";
    requests[3].shots = 1u << 16;
    requests[3].execution = "sampled";
    serve::AdmissionLimits limits;
    limits.maxShotsPerJob = 4096;
    const uint64_t seed = 43;

    serve::ServeOptions serveOptions;
    serveOptions.batchSeed = seed;
    serveOptions.limits = limits;
    serve::BatchScheduler scheduler(serveOptions);
    for (const auto &req : requests)
        scheduler.submit(req);
    scheduler.runAll();
    std::vector<std::string> batchLines;
    std::vector<std::string> batchTelemetry;
    for (const auto &result : scheduler.results()) {
        batchLines.push_back(serve::writeResult(result));
        batchTelemetry.push_back(serve::writeTelemetry(result));
    }
    ASSERT_NE(batchLines[1].find("\"reject_code\":\"validation\""),
              std::string::npos);
    ASSERT_NE(batchLines[3].find("\"reject_code\":\"admission\""),
              std::string::npos);

    for (int workers : {1, 2}) {
        LoopbackRun run =
            runLoopback(requests, seed, workers, "", -1, 0, limits);
        ASSERT_TRUE(run.ok) << run.error;
        EXPECT_EQ(run.lines, batchLines) << workers << " workers";
        EXPECT_EQ(run.stats.rejected, 2u);
        ASSERT_EQ(run.telemetry.size(), requests.size());
        for (size_t i = 0; i < requests.size(); ++i) {
            EXPECT_EQ(jsonField(run.telemetry[i], "trace_id").str,
                      jsonField(batchTelemetry[i], "trace_id").str)
                << "slot " << i << ", " << workers << " workers";
            EXPECT_EQ(jsonField(run.lines[i], "cost_units").num,
                      jsonField(batchLines[i], "cost_units").num)
                << "slot " << i << ", " << workers << " workers";
        }
    }
    EXPECT_EQ(jsonField(batchTelemetry[0], "trace_id").str.size(), 32u);

    const std::string dir = ::testing::TempDir() + "rasengan_core_" +
                            std::to_string(::getpid());
    ::mkdir(dir.c_str(), 0700);
    serve::DaemonOptions daemonOptions;
    daemonOptions.listen = "unix:" + dir + "/d.sock";
    daemonOptions.batchSeed = seed;
    daemonOptions.limits = limits;
    serve::Daemon daemon(daemonOptions);
    std::string error;
    ASSERT_TRUE(daemon.start(&error)) << error;
    std::vector<std::string> daemonLines =
        daemonResponses(dir + "/d.sock", requests);
    daemon.stop();
    EXPECT_EQ(daemonLines, batchLines);
}

// ---------------------------------------------------------------------
// Distributed tracing
// ---------------------------------------------------------------------

namespace {

/** RAII: stop tracing, drop events, restore the thread config. */
struct ClusterTraceGuard
{
    ~ClusterTraceGuard()
    {
        obs::stopTracing();
        obs::clearTrace();
        parallel::setThreadCount(0);
    }
};

} // namespace

TEST(ClusterTrace, MergedSignatureInvariantAcrossWorkersAndThreads)
{
    ClusterTraceGuard guard;
    std::vector<serve::JobRequest> requests =
        serve::generateWorkload(6, 29);
    std::vector<std::string> expected = singleProcessLines(requests, 37);

    // The stitched span forest must not betray HOW the batch was
    // partitioned: same signature at every worker count and every
    // worker thread count.
    std::string reference;
    for (int workers : {1, 2, 3}) {
        for (int threadCount : {1, 2, 7}) {
            obs::clearTrace();
            obs::startTracing();
            LoopbackRun run = runLoopback(requests, 37, workers, "", -1,
                                          threadCount);
            obs::stopTracing();
            ASSERT_TRUE(run.ok) << run.error;
            EXPECT_EQ(run.lines, expected)
                << workers << " workers, " << threadCount << " threads";
            EXPECT_EQ(run.spansDropped, 0u);
            ASSERT_FALSE(run.mergedSignature.empty());
            // Every job's span made it into the merged forest.
            for (const auto &req : requests)
                EXPECT_NE(run.mergedSignature.find("[" + req.id + "]"),
                          std::string::npos)
                    << req.id;
            if (reference.empty())
                reference = run.mergedSignature;
            EXPECT_EQ(run.mergedSignature, reference)
                << workers << " workers, " << threadCount << " threads";
            obs::clearTrace();
        }
    }
}

TEST(ClusterTrace, TracingDoesNotPerturbResultBytes)
{
    ClusterTraceGuard guard;
    std::vector<serve::JobRequest> requests =
        serve::generateWorkload(5, 41);

    obs::stopTracing();
    obs::clearTrace();
    LoopbackRun untraced = runLoopback(requests, 43, 2);
    ASSERT_TRUE(untraced.ok) << untraced.error;
    EXPECT_TRUE(untraced.mergedSignature.empty());

    obs::clearTrace();
    obs::startTracing();
    LoopbackRun traced = runLoopback(requests, 43, 2);
    obs::stopTracing();
    ASSERT_TRUE(traced.ok) << traced.error;
    EXPECT_FALSE(traced.mergedSignature.empty());

    // Observation changes WHAT WE SEE, never WHAT WE COMPUTE.
    EXPECT_EQ(traced.lines, untraced.lines);
}

TEST(ClusterTrace, MergedChromeTraceCarriesEveryWorkerProcess)
{
    ClusterTraceGuard guard;
    std::vector<serve::JobRequest> requests =
        serve::generateWorkload(6, 47);

    obs::clearTrace();
    obs::startTracing();

    std::vector<int> coordinatorFds;
    std::vector<std::thread> threads;
    for (int w = 0; w < 3; ++w) {
        int pair[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
        coordinatorFds.push_back(pair[0]);
        threads.emplace_back([fd = pair[1]]() { runWorker(fd); });
    }
    CoordinatorOptions options;
    options.batchSeed = 53;
    Coordinator coordinator(options, std::move(coordinatorFds));
    for (const auto &req : requests)
        coordinator.submit(req);
    std::string error;
    ASSERT_TRUE(coordinator.runAll(&error)) << error;
    for (auto &t : threads)
        t.join();
    obs::stopTracing();

    // Spans arrived from every worker (the placer spreads 6 jobs over
    // 3 idle workers).
    std::vector<obs::ForeignSpans> foreign = coordinator.foreignSpans();
    EXPECT_EQ(foreign.size(), 3u);

    const std::string path =
        ::testing::TempDir() + "cluster_merged_trace.json";
    ASSERT_TRUE(coordinator.writeMergedTrace(path, &error)) << error;
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    std::remove(path.c_str());

    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"coordinator\""), std::string::npos);
    for (int w = 0; w < 3; ++w)
        EXPECT_NE(text.find("\"worker " + std::to_string(w) + "\""),
                  std::string::npos)
            << w;
    // Every job span is attributed to its 128-bit trace id.
    size_t traceIds = 0;
    for (size_t pos = 0;
         (pos = text.find("\"trace_id\":\"", pos)) != std::string::npos;
         ++pos)
        ++traceIds;
    EXPECT_GE(traceIds, requests.size());
}
