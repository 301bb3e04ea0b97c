#include "cluster/worker.h"

#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "exec/cancel.h"
#include "exec/faults.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/job.h"
#include "serve/runner.h"

namespace rasengan::cluster {

namespace {

/** Write all of @p data to @p fd, riding out EINTR and short writes. */
bool
writeAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

struct WorkerState
{
    int fd = -1;
    bool configured = false;
    int workerIndex = -1;
    size_t maxFrameBytes = kDefaultMaxFrameBytes;
    /** Coordinator asked for span shipping at hello. */
    bool shipSpans = false;
    /** Coordinator-side span id this cycle's job spans open under. */
    uint64_t traceParent = 0;
    /** Built at hello over ONE long-lived artifact cache, so artifacts
     *  warm across cycles exactly as across the daemon's jobs. */
    std::optional<serve::JobRunner> runner;
    exec::ProcessFaultPlan fault;
    std::atomic<uint64_t> faultEvents{0};

    /** Once true, nothing more is written and unstarted jobs are
     *  skipped: the injected-disconnect fault, or a peer that vanished
     *  under us. */
    std::atomic<bool> disconnected{false};
    std::mutex sendMutex;

    /** Jobs accumulated since the last run: (coordinator slot, line). */
    std::vector<std::pair<uint64_t, std::string>> cycleJobs;
    size_t jobsRun = 0;
};

bool
sendMessage(WorkerState &state, const Message &msg)
{
    std::lock_guard<std::mutex> lock(state.sendMutex);
    if (state.disconnected.load(std::memory_order_relaxed))
        return false;
    if (!writeAll(state.fd, frame(encodeMessage(msg)))) {
        state.disconnected.store(true, std::memory_order_relaxed);
        return false;
    }
    return true;
}

/** The injected-disconnect fault: go silent without a goodbye. */
void
disconnectNow(WorkerState &state)
{
    std::lock_guard<std::mutex> lock(state.sendMutex);
    state.disconnected.store(true, std::memory_order_relaxed);
    ::shutdown(state.fd, SHUT_RDWR);
}

void
sendResult(WorkerState &state, uint64_t slot,
           const serve::JobResult &result)
{
    Message m;
    m.type = "result";
    m.index = slot;
    m.result = serve::writeResult(result);
    m.telemetry = serve::writeTelemetry(result);
    sendMessage(state, m);
}

bool
handleHello(WorkerState &state, const Message &msg, std::string *error)
{
    if (state.configured) {
        *error = "duplicate hello";
        return false;
    }
    if (msg.version != kProtocolVersion) {
        *error = "protocol version mismatch: coordinator speaks " +
                 std::to_string(msg.version) + ", worker speaks " +
                 std::to_string(kProtocolVersion);
        return false;
    }
    exec::ProcessFaultParseResult fault =
        exec::parseProcessFaultPlan(msg.fault);
    if (!fault.ok) {
        *error = fault.error;
        return false;
    }
    state.configured = true;
    state.workerIndex = msg.worker;
    state.fault = fault.plan;
    state.runner.emplace(
        serve::RunnerOptions{msg.batchSeed, ""},
        std::make_shared<serve::ArtifactCache>(msg.cacheBudgetBytes));
    if (msg.threads > 0)
        parallel::setThreadCount(msg.threads);
    if (msg.traceSpans) {
        state.shipSpans = true;
        state.traceParent = msg.traceParent;
        obs::startTracing(); // idempotent; in-process tests share it
    }

    Message ack;
    ack.type = "hello_ack";
    ack.version = kProtocolVersion;
    ack.worker = msg.worker;
    // The worker's clock at ack time: with the coordinator's local
    // send/receive timestamps this yields the per-worker offset that
    // rebases shipped span timestamps onto the coordinator's clock.
    ack.now = static_cast<uint64_t>(obs::nowNanos());
    sendMessage(state, ack);
    return true;
}

bool
runCycle(WorkerState &state, uint64_t expectedJobs, std::string *error)
{
    if (expectedJobs != state.cycleJobs.size()) {
        *error = "run announced " + std::to_string(expectedJobs) +
                 " jobs but " + std::to_string(state.cycleJobs.size()) +
                 " arrived";
        return false;
    }

    // Prepare serially in arrival order.  The coordinator already
    // screened every line against the real admission limits, so only
    // a validation defect can reject here; it is answered at once.
    struct CycleJob
    {
        uint64_t slot = 0;
        serve::PreparedJob prepared;
        obs::TimeNanos acceptedAt = 0;
    };
    std::vector<CycleJob> jobs;
    std::set<std::string> cycleTraceIds;
    for (const auto &[slot, line] : state.cycleJobs) {
        serve::RequestParseResult parsed = serve::parseRequest(line);
        if (!parsed.ok) {
            // The coordinator only forwards screened requests, so a
            // parse failure means the stream is not trustworthy.
            *error = "unparseable forwarded request: " + parsed.error;
            return false;
        }
        serve::PrepareOutcome prepared =
            state.runner->prepare(parsed.request);
        if (!prepared.ok) {
            serve::JobResult rejection;
            rejection.id = parsed.request.id;
            rejection.rejectReason = prepared.error;
            rejection.rejectCode = "validation";
            sendResult(state, slot, rejection);
            continue;
        }
        cycleTraceIds.insert(prepared.job.req.traceHint);
        obs::instantEvent("serve", "job-queued", prepared.job.req.id);
        jobs.push_back(
            CycleJob{slot, std::move(prepared.job), obs::nowNanos()});
    }

    // Job spans open under the coordinator's span (remote parent), so
    // the merged forest does not depend on how jobs shard across
    // workers.  Each lane sends its own result.
    serve::JobContext ctx;
    if (state.shipSpans) {
        ctx.parent.parent = state.traceParent;
        ctx.parent.remote = true;
    }
    parallel::parallelForDynamic(0, jobs.size(), [&](uint64_t i) {
        if (state.disconnected.load(std::memory_order_relaxed))
            return; // nothing more can be sent: skip unstarted jobs
        serve::JobContext job_ctx = ctx;
        job_ctx.acceptedAt = jobs[i].acceptedAt;
        exec::CancelToken cancel;
        serve::JobResult result =
            state.runner->serve(jobs[i].prepared, job_ctx, cancel);
        uint64_t events =
            state.faultEvents.fetch_add(1, std::memory_order_relaxed) + 1;
        if (state.fault.triggers(events)) {
            if (state.fault.action ==
                exec::ProcessFaultPlan::Action::Kill) {
                ::kill(::getpid(), SIGKILL);
            }
            disconnectNow(state);
            return;
        }
        sendResult(state, jobs[i].slot, result);
    });
    state.jobsRun += state.cycleJobs.size();
    state.cycleJobs.clear();

    if (state.disconnected.load(std::memory_order_relaxed))
        return true; // injected disconnect: vanish without batch_done

    serve::ArtifactCache::Stats cache = state.runner->cache().stats();
    Message done;
    done.type = "batch_done";
    done.jobs = expectedJobs;
    done.cacheHits = cache.hits;
    done.cacheMisses = cache.misses;
    done.cacheEvictions = cache.evictions;
    done.cacheBytesInUse = cache.bytesInUse;
    done.metrics = obs::Registry::global().jsonText();
    if (state.shipSpans) {
        // Ship only the subtrees rooted at this cycle's remote-parented
        // job spans: in-process deployments share the trace registry
        // with the coordinator, and earlier cycles' events are already
        // on the wire.  The trace buffers are NOT cleared -- the
        // per-cycle trace-id filter makes re-shipment impossible.
        std::vector<obs::FlatEvent> ship = obs::remoteRootedEvents(
            obs::snapshotTraceEvents(), cycleTraceIds);
        uint64_t dropped = 0;
        size_t cap = ship.size();
        std::string encoded = obs::encodeSpanEvents(ship, 0, &dropped);
        // Keep the span payload well under the frame cap; halving the
        // event budget converges fast and keeps the earliest (root-
        // most) events, which matter most for stitching.
        while (!encoded.empty() && cap > 0 &&
               encoded.size() > state.maxFrameBytes / 2) {
            cap /= 2;
            encoded = obs::encodeSpanEvents(ship, cap, &dropped);
        }
        done.spans = std::move(encoded);
        done.spansDropped = dropped;
    }
    sendMessage(state, done);
    return true;
}

} // namespace

WorkerOutcome
runWorker(int fd, size_t maxFrameBytes)
{
    // A coordinator death mid-write must surface as EPIPE, not kill us.
    std::signal(SIGPIPE, SIG_IGN);

    WorkerOutcome outcome;
    WorkerState state;
    state.fd = fd;
    state.maxFrameBytes = maxFrameBytes;
    FrameDecoder decoder(maxFrameBytes);
    std::string payload;
    char buf[1 << 16];

    auto fail = [&](const std::string &why) -> WorkerOutcome & {
        outcome.ok = false;
        outcome.error = why;
        return outcome;
    };

    for (;;) {
        bool done = false;
        while (!done && decoder.next(payload)) {
            MessageParseResult parsed = parseMessage(payload);
            if (!parsed.ok) {
                fail(parsed.error);
                done = true;
                break;
            }
            const Message &msg = parsed.msg;
            std::string error;
            if (msg.type == "hello") {
                if (!handleHello(state, msg, &error)) {
                    fail(error);
                    done = true;
                }
            } else if (!state.configured) {
                fail("message before hello: " + msg.type);
                done = true;
            } else if (msg.type == "job") {
                state.cycleJobs.emplace_back(msg.index, msg.request);
            } else if (msg.type == "run") {
                if (!runCycle(state, msg.jobs, &error)) {
                    fail(error);
                    done = true;
                } else if (state.disconnected.load(
                               std::memory_order_relaxed)) {
                    outcome.ok = true; // injected disconnect
                    done = true;
                }
            } else if (msg.type == "drain") {
                Message bye;
                bye.type = "bye";
                sendMessage(state, bye);
                outcome.ok = true;
                outcome.drained = true;
                done = true;
            } else {
                fail("unexpected message from coordinator: " + msg.type);
                done = true;
            }
        }
        if (done)
            break;
        if (decoder.corrupt()) {
            fail("corrupt stream from coordinator: " +
                 decoder.corruptReason());
            break;
        }
        ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            // Peer is gone.  Clean only if nothing is half-finished.
            outcome.ok = state.cycleJobs.empty();
            if (!outcome.ok)
                outcome.error = "coordinator vanished mid-cycle";
            break;
        }
        decoder.feed(buf, static_cast<size_t>(n));
    }

    outcome.jobsRun = state.jobsRun;
    ::close(fd);
    return outcome;
}

} // namespace rasengan::cluster
