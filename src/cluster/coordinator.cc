#include "cluster/coordinator.h"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <iterator>
#include <memory>
#include <thread>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/job.h"
#include "serve/jsonl.h"
#include "serve/scheduler.h"

namespace rasengan::cluster {

namespace {

void
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

} // namespace

Coordinator::Coordinator(CoordinatorOptions options,
                         std::vector<int> workerFds)
    : options_(std::move(options)),
      // Prepare-only runner: budget 0 so the coordinator never caches
      // artifacts (jobs execute on workers, not here).
      runner_(serve::RunnerOptions{options_.batchSeed, ""},
              std::make_shared<serve::ArtifactCache>(0)),
      admission_(options_.limits),
      placer_(workerFds.size()), rng_(options_.batchSeed ^ 0xC0DA117Aull)
{
    stats_.workers = workerFds.size();
    conns_.reserve(workerFds.size());
    for (int fd : workerFds) {
        setNonBlocking(fd);
        conns_.emplace_back(fd, options_.maxFrameBytes);
    }
}

Coordinator::~Coordinator()
{
    for (WorkerConn &conn : conns_) {
        if (conn.fd >= 0)
            ::close(conn.fd);
    }
}

size_t
Coordinator::submit(const serve::JobRequest &req)
{
    size_t slot = resultLines_.size();
    serve::ScreenedJob screened =
        serve::screenRequest(runner_, admission_, req);
    resultLines_.emplace_back();
    telemetryLines_.emplace_back();
    slotDone_.push_back(false);
    if (!screened.admitted) {
        // Identical bytes to the single-process rejection slot.
        finishSlot(slot, serve::writeResult(screened.rejection),
                   serve::writeTelemetry(screened.rejection));
        ++stats_.rejected;
        return slot;
    }
    ++remaining_;
    // The forwarded line carries the trace id prepare() minted, so the
    // worker's job span and telemetry use the id a single-process
    // BatchScheduler would.
    AdmittedJob job;
    job.slot = slot;
    job.id = screened.prepared.req.id;
    job.line = serve::writeRequest(screened.prepared.req);
    job.costUnits = screened.costUnits;
    jobBySlot_[slot] = admitted_.size();
    admitted_.push_back(std::move(job));
    return slot;
}

void
Coordinator::finishSlot(uint64_t slot, std::string resultLine,
                        std::string telemetryLine)
{
    if (slotDone_[slot])
        return;
    resultLines_[slot] = std::move(resultLine);
    telemetryLines_[slot] = std::move(telemetryLine);
    slotDone_[slot] = true;
}

void
Coordinator::queueFrame(int w, const Message &msg)
{
    WorkerConn &conn = conns_[static_cast<size_t>(w)];
    if (!conn.alive)
        return;
    conn.outBuf += frame(encodeMessage(msg));
}

bool
Coordinator::flushWorker(int w)
{
    WorkerConn &conn = conns_[static_cast<size_t>(w)];
    if (!conn.alive)
        return false;
    while (conn.outPos < conn.outBuf.size()) {
        ssize_t n = ::write(conn.fd, conn.outBuf.data() + conn.outPos,
                            conn.outBuf.size() - conn.outPos);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return true; // socket full; poll for POLLOUT
            workerDied(w, "write failed");
            return false;
        }
        conn.outPos += static_cast<size_t>(n);
    }
    if (conn.outPos == conn.outBuf.size()) {
        conn.outBuf.clear();
        conn.outPos = 0;
    }
    return true;
}

void
Coordinator::readWorker(int w)
{
    WorkerConn &conn = conns_[static_cast<size_t>(w)];
    if (!conn.alive)
        return;
    char buf[1 << 16];
    for (;;) {
        ssize_t n = ::read(conn.fd, buf, sizeof buf);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                break;
            workerDied(w, "read failed");
            return;
        }
        if (n == 0) {
            // EOF: clean only when the worker owes us nothing.
            if (!conn.outstanding.empty() || !conn.byeSeen) {
                workerDied(w, "connection closed");
            } else {
                conn.alive = false;
                ::close(conn.fd);
                conn.fd = -1;
            }
            return;
        }
        conn.decoder.feed(buf, static_cast<size_t>(n));
        if (static_cast<size_t>(n) < sizeof buf)
            break; // drained the socket for now
    }
    std::string payload;
    while (conn.alive && conn.decoder.next(payload)) {
        MessageParseResult parsed = parseMessage(payload);
        if (!parsed.ok) {
            workerDied(w, "bad frame: " + parsed.error);
            return;
        }
        handleFrame(w, parsed.msg);
    }
    if (conn.alive && conn.decoder.corrupt())
        workerDied(w, "corrupt stream: " + conn.decoder.corruptReason());
}

void
Coordinator::handleFrame(int w, const Message &msg)
{
    WorkerConn &conn = conns_[static_cast<size_t>(w)];
    if (msg.type == "hello_ack") {
        if (msg.version != kProtocolVersion) {
            workerDied(w, "protocol version mismatch");
            return;
        }
        // Clock alignment: assume the ack's network delay is symmetric,
        // so the worker stamped `now` at the midpoint of our
        // send->receive window.  offset = coordinator time at midpoint
        // minus the worker's clock; shipped span timestamps add it.
        obs::TimeNanos recv = obs::nowNanos();
        int64_t midpoint = static_cast<int64_t>(conn.helloSent) +
                           (static_cast<int64_t>(recv) -
                            static_cast<int64_t>(conn.helloSent)) /
                               2;
        conn.clockOffsetNanos =
            midpoint - static_cast<int64_t>(msg.now);
        return;
    }
    if (msg.type == "result") {
        conn.outstanding.erase(msg.index);
        if (msg.index < slotDone_.size() && !slotDone_[msg.index]) {
            finishSlot(msg.index, msg.result, msg.telemetry);
            --remaining_;
        }
        return;
    }
    if (msg.type == "batch_done") {
        conn.lastDone = msg;
        conn.haveDone = true;
        if (!msg.spans.empty()) {
            std::vector<obs::FlatEvent> shipped =
                obs::decodeSpanEvents(msg.spans);
            conn.spans.insert(conn.spans.end(),
                              std::make_move_iterator(shipped.begin()),
                              std::make_move_iterator(shipped.end()));
        }
        conn.spansDropped += msg.spansDropped;
        if (options_.importMetrics && !msg.metrics.empty()) {
            std::string text = msg.metrics;
            while (!text.empty() &&
                   (text.back() == '\n' || text.back() == ' '))
                text.pop_back();
            serve::JsonParseResult parsed = serve::parseFlatJson(text);
            if (parsed.ok) {
                std::map<std::string, double> values;
                for (const auto &[key, value] : parsed.object) {
                    if (value.kind == serve::JsonValue::Kind::Number)
                        values[key] = value.num;
                }
                obs::Registry::global().importFlat(
                    values, options_.metricsPrefix,
                    {{"worker", std::to_string(w)}},
                    "Imported cluster worker metric");
            }
        }
        return;
    }
    if (msg.type == "bye") {
        conn.byeSeen = true;
        return;
    }
    workerDied(w, "unexpected message from worker: " + msg.type);
}

void
Coordinator::synthesizeFailure(size_t jobIndex, const std::string &why)
{
    AdmittedJob &job = admitted_[jobIndex];
    if (slotDone_[job.slot])
        return;
    serve::JobResult result;
    result.id = job.id;
    result.accepted = true;
    result.costUnits = job.costUnits;
    result.ok = false;
    result.error = why;
    finishSlot(job.slot, serve::writeResult(result),
               serve::writeTelemetry(result));
    --remaining_;
    ++stats_.jobsSynthesized;
}

void
Coordinator::placeJobs(const std::vector<size_t> &jobIndices)
{
    std::map<int, uint64_t> cycleCounts;
    for (size_t jobIndex : jobIndices) {
        AdmittedJob &job = admitted_[jobIndex];
        if (slotDone_[job.slot])
            continue;
        int w = placer_.place(job.costUnits);
        if (w < 0) {
            synthesizeFailure(jobIndex, "no surviving cluster worker");
            continue;
        }
        ++job.attempts;
        Message m;
        m.type = "job";
        m.index = job.slot;
        m.request = job.line;
        queueFrame(w, m);
        conns_[static_cast<size_t>(w)].outstanding.insert(job.slot);
        ++cycleCounts[w];
    }
    for (const auto &[w, jobs] : cycleCounts) {
        Message run;
        run.type = "run";
        run.jobs = jobs;
        queueFrame(w, run);
    }
}

void
Coordinator::workerDied(int w, const std::string &why)
{
    WorkerConn &conn = conns_[static_cast<size_t>(w)];
    if (!conn.alive)
        return;
    conn.alive = false;
    if (conn.fd >= 0) {
        ::close(conn.fd);
        conn.fd = -1;
    }
    placer_.markDead(w);
    ++stats_.workersDead;
    obs::instantEvent("cluster", "worker-dead",
                      "worker " + std::to_string(w) + ": " + why);

    // Orphaned jobs: re-place onto survivors, attempt-capped.
    std::vector<size_t> replace;
    int maxAttempts = 0;
    for (uint64_t slot : conn.outstanding) {
        if (slotDone_[slot])
            continue;
        size_t jobIndex = jobBySlot_[slot];
        AdmittedJob &job = admitted_[jobIndex];
        if (job.attempts >= options_.retry.maxAttempts) {
            synthesizeFailure(jobIndex,
                              "cluster worker died; placement attempts "
                              "exhausted (" +
                                  std::to_string(job.attempts) + ")");
            continue;
        }
        maxAttempts = std::max(maxAttempts, job.attempts);
        replace.push_back(jobIndex);
    }
    conn.outstanding.clear();
    if (replace.empty())
        return;
    if (placer_.aliveCount() == 0) {
        for (size_t jobIndex : replace)
            synthesizeFailure(jobIndex, "no surviving cluster worker");
        return;
    }

    // Exec-style backoff before flooding the survivors: each orphan is
    // on (re)attempt maxAttempts, so sleep that retry's delay once.
    double delay = options_.retry.delaySeconds(maxAttempts, rng_);
    if (delay > 0.0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(delay));
    }
    stats_.jobsReplaced += replace.size();
    obs::instantEvent("cluster", "jobs-replaced",
                      std::to_string(replace.size()) +
                          " jobs re-placed after worker " +
                          std::to_string(w) + " died");
    placeJobs(replace);
}

bool
Coordinator::runAll(std::string *error)
{
    if (ran_) {
        if (error)
            *error = "runAll called twice";
        return false;
    }
    ran_ = true;
    if (conns_.empty()) {
        if (error)
            *error = "no workers";
        return false;
    }
    // A worker death mid-write must surface as EPIPE, not a signal.
    std::signal(SIGPIPE, SIG_IGN);
    // Detail must not mention the worker count: the merged span-tree
    // signature is compared byte-for-byte across cluster shapes.
    obs::Span span("cluster", "coordinator-batch",
                   "jobs=" + std::to_string(admitted_.size()));
    const bool tracing = obs::tracingEnabled();

    // Configure every worker, then shard the batch.
    for (size_t w = 0; w < conns_.size(); ++w) {
        Message hello;
        hello.type = "hello";
        hello.version = kProtocolVersion;
        hello.worker = static_cast<int>(w);
        hello.batchSeed = options_.batchSeed;
        hello.threads = options_.threads;
        hello.cacheBudgetBytes = options_.cacheBudgetBytes;
        if (static_cast<int>(w) == options_.faultWorker)
            hello.fault = options_.faultSpec;
        if (tracing) {
            hello.traceSpans = true;
            hello.traceParent = span.id();
        }
        conns_[w].helloSent = obs::nowNanos();
        queueFrame(static_cast<int>(w), hello);
    }
    std::vector<size_t> initial(admitted_.size());
    for (size_t i = 0; i < initial.size(); ++i)
        initial[i] = i;
    placeJobs(initial);

    // Single-threaded poll loop until every admitted slot is filled.
    std::vector<pollfd> fds;
    std::vector<int> fdWorker;
    while (remaining_ > 0) {
        fds.clear();
        fdWorker.clear();
        for (size_t w = 0; w < conns_.size(); ++w) {
            WorkerConn &conn = conns_[w];
            if (!conn.alive)
                continue;
            pollfd p{};
            p.fd = conn.fd;
            p.events = POLLIN;
            if (conn.outPos < conn.outBuf.size())
                p.events |= POLLOUT;
            fds.push_back(p);
            fdWorker.push_back(static_cast<int>(w));
        }
        if (fds.empty()) {
            // Every worker died; workerDied() already synthesized what
            // it could, but jobs never placed can still linger.
            for (size_t i = 0; i < admitted_.size(); ++i)
                synthesizeFailure(i, "no surviving cluster worker");
            if (error)
                *error = "all workers died";
            return false;
        }
        int ready = ::poll(fds.data(), fds.size(), 1000);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            if (error)
                *error = "poll failed";
            return false;
        }
        for (size_t i = 0; i < fds.size(); ++i) {
            int w = fdWorker[i];
            if (!conns_[static_cast<size_t>(w)].alive)
                continue; // an earlier death this round closed it
            if (fds[i].revents & POLLOUT)
                if (!flushWorker(w))
                    continue;
            if (fds[i].revents & (POLLIN | POLLHUP | POLLERR))
                readWorker(w);
        }
    }

    if (placer_.aliveCount() == 0) {
        // Every slot is filled (synthesized failures included), but the
        // batch did not complete normally: no worker survived it.
        if (error)
            *error = "all workers died";
        return false;
    }

    drainWorkers();

    // Merged cache stats from the latest batch_done snapshots.
    for (const WorkerConn &conn : conns_) {
        if (!conn.haveDone)
            continue;
        stats_.cacheHits += conn.lastDone.cacheHits;
        stats_.cacheMisses += conn.lastDone.cacheMisses;
        stats_.cacheEvictions += conn.lastDone.cacheEvictions;
    }
    return true;
}

void
Coordinator::drainWorkers()
{
    Message drain;
    drain.type = "drain";
    for (size_t w = 0; w < conns_.size(); ++w) {
        if (conns_[w].alive)
            queueFrame(static_cast<int>(w), drain);
    }
    // Bounded farewell: flush the drains and wait briefly for byes; a
    // worker that ignores the drain is simply closed.
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    std::vector<pollfd> fds;
    std::vector<int> fdWorker;
    for (;;) {
        fds.clear();
        fdWorker.clear();
        for (size_t w = 0; w < conns_.size(); ++w) {
            WorkerConn &conn = conns_[w];
            if (!conn.alive || conn.byeSeen)
                continue;
            pollfd p{};
            p.fd = conn.fd;
            p.events = POLLIN;
            if (conn.outPos < conn.outBuf.size())
                p.events |= POLLOUT;
            fds.push_back(p);
            fdWorker.push_back(static_cast<int>(w));
        }
        if (fds.empty())
            break;
        auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        if (left.count() <= 0)
            break;
        int ready = ::poll(fds.data(), fds.size(),
                           static_cast<int>(left.count()));
        if (ready < 0 && errno == EINTR)
            continue;
        if (ready <= 0)
            break;
        for (size_t i = 0; i < fds.size(); ++i) {
            int w = fdWorker[i];
            if (!conns_[static_cast<size_t>(w)].alive)
                continue;
            if (fds[i].revents & POLLOUT)
                if (!flushWorker(w))
                    continue;
            if (fds[i].revents & (POLLIN | POLLHUP | POLLERR))
                readWorker(w);
        }
    }
    for (WorkerConn &conn : conns_) {
        if (conn.fd >= 0) {
            ::close(conn.fd);
            conn.fd = -1;
        }
        conn.alive = false;
    }
}

std::vector<obs::ForeignSpans>
Coordinator::foreignSpans() const
{
    std::vector<obs::ForeignSpans> out;
    for (size_t w = 0; w < conns_.size(); ++w) {
        const WorkerConn &conn = conns_[w];
        if (conn.spans.empty())
            continue;
        obs::ForeignSpans f;
        f.process = "worker " + std::to_string(w);
        f.clockOffsetNanos = conn.clockOffsetNanos;
        f.events = conn.spans;
        out.push_back(std::move(f));
    }
    return out;
}

bool
Coordinator::writeMergedTrace(const std::string &path,
                              std::string *error) const
{
    if (!obs::writeMergedChromeTrace(path, obs::snapshotTraceEvents(),
                                     foreignSpans())) {
        if (error)
            *error = "cannot write merged trace to " + path;
        return false;
    }
    return true;
}

std::string
Coordinator::mergedSignature() const
{
    return obs::mergedSpanTreeSignature(obs::snapshotTraceEvents(),
                                        foreignSpans());
}

uint64_t
Coordinator::shippedSpansDropped() const
{
    uint64_t total = 0;
    for (const WorkerConn &conn : conns_)
        total += conn.spansDropped;
    return total;
}

} // namespace rasengan::cluster
