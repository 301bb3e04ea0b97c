#include "serve/daemon.h"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <utility>

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/build_info.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qsim/simd.h"

namespace rasengan::serve {

namespace {

/// Control-pipe opcodes (one byte each; written by signal handlers and
/// worker completions, drained by the IO thread).
constexpr char kWakeDrain = 'D';
constexpr char kWakeReload = 'R';
constexpr char kWakeCompletion = 'C';
constexpr char kWakeWorkerDone = 'X';

struct DaemonCounters
{
    obs::Gauge &queueDepth = obs::Registry::global().gauge(
        "serve_daemon_queue_depth", "Jobs queued in the daemon");
    obs::Gauge &deadlineSlack = obs::Registry::global().gauge(
        "serve_daemon_oldest_deadline_slack_ms",
        "Time until the most urgent queued deadline (0 when none)");
    obs::Counter &accepted = obs::Registry::global().counter(
        "serve_daemon_accepted_total", "Jobs accepted by the daemon");
    obs::Counter &shed = obs::Registry::global().counter(
        "serve_daemon_shed_total",
        "Jobs shed because their deadline was predicted unmeetable");
    obs::Counter &replayed = obs::Registry::global().counter(
        "serve_daemon_replayed_total",
        "Unfinished jobs re-run from the journal after a restart");
    obs::Counter &connections = obs::Registry::global().counter(
        "serve_daemon_connections_total", "Client connections accepted");
    obs::Counter &drains = obs::Registry::global().counter(
        "serve_daemon_drains_total", "Graceful drains initiated");
};

DaemonCounters &
daemonCounters()
{
    static DaemonCounters counters;
    return counters;
}

bool
setNonBlocking(int fd)
{
    int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** "unix:PATH" | "tcp:PORT" | "tcp:HOST:PORT" -> bound+listening fd. */
int
bindListener(const std::string &spec, std::string *unix_path,
             int *bound_port, std::string *error)
{
    if (spec.rfind("unix:", 0) == 0) {
        const std::string path = spec.substr(5);
        if (path.empty() || path.size() >= sizeof(sockaddr_un{}.sun_path)) {
            *error = "bad unix socket path \"" + path + "\"";
            return -1;
        }
        int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0) {
            *error = "socket(AF_UNIX) failed";
            return -1;
        }
        ::unlink(path.c_str()); // stale socket from a crashed daemon
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, path.c_str(),
                     sizeof(addr.sun_path) - 1);
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(fd, 64) != 0) {
            *error = "cannot bind/listen on " + spec + ": " +
                     std::strerror(errno);
            ::close(fd);
            return -1;
        }
        *unix_path = path;
        return fd;
    }
    if (spec.rfind("tcp:", 0) == 0) {
        std::string rest = spec.substr(4);
        std::string host = "127.0.0.1";
        std::string port = rest;
        size_t colon = rest.rfind(':');
        if (colon != std::string::npos) {
            host = rest.substr(0, colon);
            port = rest.substr(colon + 1);
        }
        int portNum = 0;
        for (char c : port) {
            if (c < '0' || c > '9') {
                *error = "bad tcp port \"" + port + "\"";
                return -1;
            }
            portNum = portNum * 10 + (c - '0');
        }
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) {
            *error = "socket(AF_INET) failed";
            return -1;
        }
        int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(static_cast<uint16_t>(portNum));
        addr.sin_addr.s_addr = host == "0.0.0.0"
                                   ? htonl(INADDR_ANY)
                                   : htonl(INADDR_LOOPBACK);
        if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0 ||
            ::listen(fd, 64) != 0) {
            *error = "cannot bind/listen on " + spec + ": " +
                     std::strerror(errno);
            ::close(fd);
            return -1;
        }
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        ::getsockname(fd, reinterpret_cast<sockaddr *>(&bound), &len);
        *bound_port = ntohs(bound.sin_port);
        return fd;
    }
    *error = "listen spec must be unix:PATH or tcp:[HOST:]PORT, got \"" +
             spec + "\"";
    return -1;
}

std::string
httpResponse(int code, const char *status, const std::string &type,
             const std::string &body)
{
    std::string out = "HTTP/1.0 " + std::to_string(code) + " " + status +
                      "\r\nContent-Type: " + type +
                      "\r\nContent-Length: " +
                      std::to_string(body.size()) +
                      "\r\nConnection: close\r\n\r\n";
    out += body;
    return out;
}

} // namespace

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)),
      runner_(RunnerOptions{options_.batchSeed, options_.checkpointDir},
              std::make_shared<ArtifactCache>(options_.cacheBudgetBytes)),
      admission_(options_.limits),
      policy_{options_.limits, options_.slo},
      epoch_(std::chrono::steady_clock::now())
{
}

Daemon::~Daemon()
{
    if (running())
        stop();
}

double
Daemon::nowMs() const
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

void
Daemon::wake(char code)
{
    // Async-signal-safe: write(2) only.  A full pipe just means the IO
    // thread already has wakeups pending.
    if (controlPipe_[1] >= 0) {
        ssize_t ignored = ::write(controlPipe_[1], &code, 1);
        (void)ignored;
    }
}

void
Daemon::notifySignal(int sig)
{
    if (sig == SIGHUP)
        wake(kWakeReload);
    else
        wake(kWakeDrain);
}

void
Daemon::requestDrain()
{
    wake(kWakeDrain);
}

void
Daemon::requestReload()
{
    wake(kWakeReload);
}

DaemonStats
Daemon::stats() const
{
    DaemonStats s;
    s.connections = statConnections_.load(std::memory_order_relaxed);
    s.accepted = statAccepted_.load(std::memory_order_relaxed);
    s.rejected = statRejected_.load(std::memory_order_relaxed);
    s.shed = statShed_.load(std::memory_order_relaxed);
    s.completed = statCompleted_.load(std::memory_order_relaxed);
    s.replayed = statReplayed_.load(std::memory_order_relaxed);
    s.drainCancelled =
        statDrainCancelled_.load(std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        s.queueDepth = queue_.size();
    }
    return s;
}

void
Daemon::updateQueueGauges()
{
    // Caller holds queueMutex_.
    daemonCounters().queueDepth.set(static_cast<double>(queue_.size()));
    const double earliest = queue_.earliestDeadlineMs();
    daemonCounters().deadlineSlack.set(
        earliest > 0.0 ? std::max(earliest - nowMs(), 0.0) : 0.0);
}

void
Daemon::enqueue(QueuedJob job)
{
    std::lock_guard<std::mutex> lock(queueMutex_);
    queue_.push(job.slo);
    queuedBySeq_.emplace(job.slo.seq, std::move(job));
    updateQueueGauges();
    queueCv_.notify_one();
}

bool
Daemon::start(std::string *error)
{
    panic_if(running(), "Daemon::start called twice");

    if (!options_.policyPath.empty()) {
        // A bad policy file at start is fatal (the operator asked for
        // those limits); a bad file at SIGHUP keeps the running policy.
        PolicyParseResult parsed =
            loadPolicyFile(options_.policyPath, policy_);
        if (!parsed.ok) {
            if (error != nullptr)
                *error = parsed.error;
            return false;
        }
        policy_ = parsed.policy;
        admission_.updateLimits(policy_.limits);
    }

    if (!options_.checkpointDir.empty()) {
        if (::mkdir(options_.checkpointDir.c_str(), 0755) != 0 &&
            errno != EEXIST) {
            if (error != nullptr)
                *error = "cannot create checkpoint dir " +
                         options_.checkpointDir + ": " +
                         std::strerror(errno);
            return false;
        }
    }

    // Replay the journal before accepting traffic: pending jobs from
    // the previous incarnation run first, in their original order.
    std::vector<QueuedJob> replayJobs;
    uint64_t nextSeq = 1;
    if (!options_.journalPath.empty()) {
        JournalReplay replay = Journal::replay(options_.journalPath);
        if (!replay.ok) {
            if (error != nullptr)
                *error = replay.error;
            return false;
        }
        nextSeq = replay.nextSeq;
        if (replay.malformedLines + replay.truncatedLines +
                replay.oversizedLines >
            0)
            obs::instantEvent(
                "daemon", "journal-debris",
                std::to_string(replay.malformedLines) + " malformed, " +
                    std::to_string(replay.truncatedLines) +
                    " truncated, " +
                    std::to_string(replay.oversizedLines) + " oversized");
        for (const JournalJob *pending : replay.pending()) {
            RequestParseResult parsed =
                parseRequest(pending->requestLine);
            if (!parsed.ok) {
                obs::instantEvent("daemon", "replay-unparsable",
                                  pending->id);
                continue;
            }
            PrepareOutcome prep = runner_.prepare(parsed.request);
            if (!prep.ok) {
                obs::instantEvent("daemon", "replay-invalid",
                                  pending->id);
                continue;
            }
            QueuedJob job;
            job.slo.seq = pending->seq;
            job.slo.costUnits = estimateJobCost(
                parsed.request, prep.job.problem->numVars());
            // Replayed jobs keep their priority class for ordering but
            // drop deadlines: those expired with the old incarnation,
            // and determinism requires the work to actually re-run.
            parsePriority(parsed.request.priority, &job.slo.priority);
            job.slo.arrival = arrivalCounter_++;
            job.prepared = std::move(prep.job);
            job.journalSeq = pending->seq;
            job.replayed = true;
            job.acceptMs = 0.0;
            replayJobs.push_back(std::move(job));
        }
        std::string journalErr;
        if (!journal_.open(options_.journalPath, nextSeq, &journalErr)) {
            if (error != nullptr)
                *error = journalErr;
            return false;
        }
    }

    if (!options_.resultsPath.empty()) {
        resultsFile_ = std::fopen(options_.resultsPath.c_str(), "ab");
        if (resultsFile_ == nullptr) {
            if (error != nullptr)
                *error = "cannot open results file " +
                         options_.resultsPath;
            journal_.close();
            return false;
        }
    }

    std::string bindErr;
    listenFd_ =
        bindListener(options_.listen, &unixPath_, &boundPort_, &bindErr);
    if (listenFd_ < 0) {
        if (error != nullptr)
            *error = bindErr;
        journal_.close();
        return false;
    }
    setNonBlocking(listenFd_);
    if (::pipe(controlPipe_) != 0) {
        if (error != nullptr)
            *error = "pipe() failed";
        ::close(listenFd_);
        listenFd_ = -1;
        journal_.close();
        return false;
    }
    setNonBlocking(controlPipe_[0]);
    setNonBlocking(controlPipe_[1]);

    if (options_.threads > 0)
        parallel::setThreadCount(options_.threads);

    for (QueuedJob &job : replayJobs) {
        statReplayed_.fetch_add(1, std::memory_order_relaxed);
        daemonCounters().replayed.inc();
        enqueue(std::move(job));
    }

    // Flight recorder: always on for a daemon unless RASENGAN_FLIGHT
    // or an explicit --flight decision turned it off; SIGQUIT (and
    // fatal signals) dump the ring.
    if (!obs::flight::explicitlyConfigured())
        obs::flight::configureFromEnv(/*defaultOn=*/true);
    obs::flight::installSignalHandlers();

    // Build identity + uptime, so /metrics says exactly what is
    // serving and for how long (uptime ticks in the IO loop).
    obs::Registry::global()
        .gauge("rasengan_build_info",
               "Build metadata carried in labels; the value is always 1",
               {{"version", buildVersion()},
                {"isa", qsim::simdIsaName(qsim::simdActiveIsa())},
                {"git", buildGitDescribe()}})
        .set(1.0);
    obs::Registry::global()
        .gauge("uptime_seconds", "Seconds since the daemon started")
        .set(0.0);

    running_.store(true, std::memory_order_release);
    draining_.store(false, std::memory_order_release);
    workerThread_ = std::thread([this] { workerLoop(); });
    ioThread_ = std::thread([this] { ioLoop(); });
    obs::instantEvent("daemon", "started", options_.listen);
    return true;
}

void
Daemon::wait()
{
    if (ioThread_.joinable())
        ioThread_.join();
    if (workerThread_.joinable())
        workerThread_.join();
    running_.store(false, std::memory_order_release);
}

void
Daemon::stop()
{
    requestDrain();
    wait();
}

// ---------------------------------------------------------------------
// IO thread
// ---------------------------------------------------------------------

void
Daemon::ioLoop()
{
    static obs::Gauge &uptime = obs::Registry::global().gauge(
        "uptime_seconds", "Seconds since the daemon started");
    bool workerJoined = false;
    double lastFlightNoteMs = 0.0;
    while (true) {
        uptime.set(nowMs() * 1e-3);
        // Periodic metric snapshot into the flight recorder, so a
        // post-mortem dump shows the load shape leading up to the end.
        if (obs::flight::enabled() &&
            nowMs() - lastFlightNoteMs >= 5000.0) {
            lastFlightNoteMs = nowMs();
            DaemonStats s = stats();
            obs::flight::note(
                "metrics",
                "queue=" + std::to_string(s.queueDepth) +
                    " accepted=" + std::to_string(s.accepted) +
                    " completed=" + std::to_string(s.completed) +
                    " rejected=" + std::to_string(s.rejected) +
                    " shed=" + std::to_string(s.shed));
        }
        std::vector<pollfd> fds;
        fds.push_back({controlPipe_[0], POLLIN, 0});
        // Drain (in drainControlPipe below) closes the listener
        // mid-iteration; remember the layout fds was built with so the
        // connection indexes stay aligned.
        const bool polledListener = listenFd_ >= 0;
        if (polledListener)
            fds.push_back({listenFd_, POLLIN, 0});
        const size_t polledConns = conns_.size();
        for (const Conn &conn : conns_) {
            short events = POLLIN;
            if (!conn.outBuffer.empty())
                events |= POLLOUT;
            fds.push_back({conn.fd, events, 0});
        }

        int rc = ::poll(fds.data(), fds.size(), 500);
        if (rc < 0 && errno != EINTR)
            break;

        drainControlPipe();
        drainCompletions();

        size_t cursor = 1;
        if (polledListener) {
            if (listenFd_ >= 0 && (fds[cursor].revents & POLLIN))
                acceptClients();
            ++cursor;
        }
        // Walk the polled connections back to front so closeConn's
        // erase cannot skip an entry (poll order matches conns_
        // order; connections accepted this iteration sit past
        // polledConns and wait for the next poll).
        for (size_t i = polledConns; i-- > 0;) {
            const pollfd &pfd = fds[cursor + i];
            Conn &conn = conns_[i];
            if (pfd.fd != conn.fd)
                continue; // conns_ changed under us; next poll catches up
            if (pfd.revents & (POLLERR | POLLHUP | POLLNVAL)) {
                closeConn(i);
                continue;
            }
            if (pfd.revents & POLLOUT)
                flushConn(conn);
            if (pfd.revents & POLLIN)
                readClient(conn);
            if (conn.fd >= 0 && conn.closeAfterFlush &&
                conn.outBuffer.empty())
                closeConn(i);
        }

        if (draining_.load(std::memory_order_acquire)) {
            bool done;
            {
                std::lock_guard<std::mutex> lock(queueMutex_);
                done = workerDone_;
            }
            if (done) {
                if (!workerJoined) {
                    // One final sweep: the worker may have pushed
                    // completions between our drain and its exit.
                    drainCompletions();
                    workerJoined = true;
                }
                // Flush what we can, then leave.
                bool pendingBytes = false;
                for (size_t i = conns_.size(); i-- > 0;) {
                    flushConn(conns_[i]);
                    if (conns_[i].fd >= 0 &&
                        !conns_[i].outBuffer.empty())
                        pendingBytes = true;
                }
                if (!pendingBytes)
                    break;
                // else: loop once more to POLLOUT the stragglers.
            }
        }
    }

    for (size_t i = conns_.size(); i-- > 0;)
        closeConn(i);
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    if (!unixPath_.empty())
        ::unlink(unixPath_.c_str());
    {
        std::lock_guard<std::mutex> lock(journalMutex_);
        journal_.close();
    }
    if (resultsFile_ != nullptr) {
        std::fflush(resultsFile_);
        std::fclose(resultsFile_);
        resultsFile_ = nullptr;
    }
    ::close(controlPipe_[0]);
    ::close(controlPipe_[1]);
    controlPipe_[0] = controlPipe_[1] = -1;
    obs::instantEvent("daemon", "stopped", options_.listen);
}

void
Daemon::drainControlPipe()
{
    char buf[64];
    ssize_t n;
    bool drain = false;
    bool reload = false;
    while ((n = ::read(controlPipe_[0], buf, sizeof(buf))) > 0) {
        for (ssize_t i = 0; i < n; ++i) {
            if (buf[i] == kWakeDrain)
                drain = true;
            else if (buf[i] == kWakeReload)
                reload = true;
            // kWakeCompletion / kWakeWorkerDone only wake the loop;
            // their payloads travel via completions_ / workerDone_.
        }
    }
    if (reload && !draining_.load(std::memory_order_acquire)) {
        compactJournal();
        reloadPolicy();
    }
    if (drain)
        beginDrain();
}

void
Daemon::beginDrain()
{
    if (draining_.exchange(true, std::memory_order_acq_rel))
        return; // already draining
    daemonCounters().drains.inc();
    obs::instantEvent("daemon", "drain", options_.listen);
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    if (!unixPath_.empty()) {
        ::unlink(unixPath_.c_str());
        unixPath_.clear();
    }
    std::lock_guard<std::mutex> lock(queueMutex_);
    drainRequested_ = true;
    if (runningToken_ != nullptr) {
        // Cooperative checkpoint-and-stop: the in-flight job stops at
        // its next cancellation checkpoint with its segment checkpoint
        // on disk; the journal keeps it pending, so the next
        // incarnation resumes it bit-exactly.
        runningToken_->cancel();
    }
    queueCv_.notify_all();
}

void
Daemon::compactJournal()
{
    if (options_.journalPath.empty())
        return;
    std::lock_guard<std::mutex> lock(journalMutex_);
    if (!journal_.isOpen())
        return;
    journal_.close();
    std::string err;
    if (!Journal::compact(options_.journalPath, &err))
        obs::instantEvent("daemon", "compact-failed", err);
    JournalReplay replay = Journal::replay(options_.journalPath);
    std::string openErr;
    if (!journal_.open(options_.journalPath, replay.nextSeq, &openErr)) {
        // Never continue journal-less silently: without the journal the
        // crash-safety contract is void.
        panic("daemon journal reopen failed after compaction: {}",
              openErr);
    }
    obs::instantEvent("daemon", "compacted", options_.journalPath);
}

void
Daemon::reloadPolicy()
{
    // IO thread only: admission and shed prediction read the policy on
    // this thread, so swapping it here is race-free for them; the mutex
    // covers policySnapshot() readers on other threads.
    if (options_.policyPath.empty())
        return;
    PolicyParseResult parsed =
        loadPolicyFile(options_.policyPath, policySnapshot());
    if (!parsed.ok) {
        // Keep serving under the current policy: a half-written file
        // during a config push must not take the daemon down.
        obs::instantEvent("daemon", "policy-reload-failed", parsed.error);
        return;
    }
    {
        std::lock_guard<std::mutex> lock(policyMutex_);
        policy_ = parsed.policy;
    }
    admission_.updateLimits(parsed.policy.limits);
    statPolicyReloads_.fetch_add(1, std::memory_order_relaxed);
    obs::instantEvent("daemon", "policy-reloaded", options_.policyPath);
}

DaemonPolicy
Daemon::policySnapshot() const
{
    std::lock_guard<std::mutex> lock(policyMutex_);
    return policy_;
}

void
Daemon::acceptClients()
{
    while (true) {
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            break;
        setNonBlocking(fd);
        Conn conn;
        conn.fd = fd;
        conn.id = nextConnId_++;
        conns_.push_back(std::move(conn));
        statConnections_.fetch_add(1, std::memory_order_relaxed);
        daemonCounters().connections.inc();
    }
}

void
Daemon::readClient(Conn &conn)
{
    char buf[4096];
    while (conn.fd >= 0) {
        ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
        if (n == 0) {
            // Peer closed its write side; drop the connection once our
            // buffered responses are flushed.
            conn.closeAfterFlush = true;
            break;
        }
        if (n < 0)
            break; // EAGAIN or error; poll again
        for (ssize_t i = 0; i < n; ++i) {
            char c = buf[i];
            if (c == '\n') {
                if (conn.skippingLongLine || conn.lineHasNul) {
                    // Same uniform defect handling as LineReader:
                    // oversized or NUL-bearing lines are rejected whole,
                    // never parsed.
                    JobResult r;
                    r.rejectReason =
                        conn.lineHasNul
                            ? "request line contains a NUL byte"
                            : "request line exceeds " +
                                  std::to_string(options_.maxLineBytes) +
                                  " bytes";
                    conn.skippingLongLine = false;
                    conn.lineHasNul = false;
                    r.rejectCode = "validation";
                    statRejected_.fetch_add(1,
                                            std::memory_order_relaxed);
                    respond(conn, writeResult(r));
                } else {
                    std::string line = std::move(conn.inBuffer);
                    if (!line.empty() && line.back() == '\r')
                        line.pop_back();
                    if (!line.empty())
                        handleLine(conn, line);
                }
                conn.inBuffer.clear();
            } else if (c == '\0') {
                conn.inBuffer.clear();
                conn.lineHasNul = true;
            } else if (!conn.skippingLongLine && !conn.lineHasNul) {
                conn.inBuffer.push_back(c);
                if (conn.inBuffer.size() > options_.maxLineBytes) {
                    conn.inBuffer.clear();
                    conn.skippingLongLine = true;
                }
            }
        }
    }
}

void
Daemon::handleLine(Conn &conn, const std::string &line)
{
    if (line.rfind("GET ", 0) == 0 || line.rfind("HEAD ", 0) == 0)
        handleHttp(conn, line);
    else
        handleSubmit(conn, line);
}

void
Daemon::handleHttp(Conn &conn, const std::string &line)
{
    // "GET /path HTTP/1.x" -- everything after the path is ignored, as
    // are any request headers that follow (we answer from the request
    // line alone and close).
    size_t start = line.find(' ');
    size_t end = line.find(' ', start + 1);
    std::string path = end == std::string::npos
                           ? line.substr(start + 1)
                           : line.substr(start + 1, end - start - 1);
    std::string response;
    if (path == "/healthz") {
        response = httpResponse(200, "OK", "text/plain", "ok\n");
    } else if (path == "/readyz") {
        response = draining_.load(std::memory_order_acquire)
                       ? httpResponse(503, "Service Unavailable",
                                      "text/plain", "draining\n")
                       : httpResponse(200, "OK", "text/plain", "ready\n");
    } else if (path == "/metrics") {
        response = httpResponse(
            200, "OK", "text/plain; version=0.0.4",
            obs::Registry::global().promText());
    } else if (path == "/metrics.json") {
        response = httpResponse(200, "OK", "application/json",
                                obs::Registry::global().jsonText() + "\n");
    } else if (path == "/debug/flight") {
        response = obs::flight::enabled()
                       ? httpResponse(200, "OK", "application/json",
                                      obs::flight::renderJson() + "\n")
                       : httpResponse(503, "Service Unavailable",
                                      "text/plain",
                                      "flight recorder disabled\n");
    } else {
        response = httpResponse(404, "Not Found", "text/plain",
                                "unknown probe path\n");
    }
    conn.outBuffer += response;
    conn.closeAfterFlush = true;
    flushConn(conn);
}

void
Daemon::handleSubmit(Conn &conn, const std::string &line)
{
    JobResult rejection;
    auto reject = [&](const std::string &why, const char *code) {
        rejection.accepted = false;
        rejection.rejectReason = why;
        rejection.rejectCode = code;
        statRejected_.fetch_add(1, std::memory_order_relaxed);
        respond(conn, writeResult(rejection));
    };

    RequestParseResult parsed = parseRequest(line);
    if (!parsed.ok)
        return reject(parsed.error, "validation");
    const JobRequest &req = parsed.request;
    rejection.id = req.id;

    if (draining_.load(std::memory_order_acquire))
        return reject("daemon is draining", "admission");

    PrepareOutcome prep = runner_.prepare(req);
    if (!prep.ok)
        return reject(prep.error, "validation");
    const int numVars = prep.job.problem->numVars();

    // Shed prediction BEFORE reserving admission capacity: a shed job
    // must not consume queue slots or cost budget.
    SloJob slo;
    slo.priority = Priority::Batch;
    parsePriority(req.priority, &slo.priority);
    slo.deadlineMs = req.deadlineMs; // relative, for the predictor
    slo.costUnits = estimateJobCost(req, numVars);
    double backlogCost;
    double runningCost;
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        backlogCost = queue_.backlogCostUnits();
        runningCost = runningCostUnits_;
    }
    // policy_.slo (not options_.slo): SIGHUP may have replaced it.
    // Written only by this thread, so the unlocked read is safe.
    ShedDecision shedded =
        shedDecision(slo, backlogCost, runningCost, policy_.slo);
    if (shedded.shed) {
        statShed_.fetch_add(1, std::memory_order_relaxed);
        daemonCounters().shed.inc();
        rejection.accepted = false;
        rejection.rejectReason = shedded.reason;
        rejection.rejectCode = "deadline-unmeetable";
        rejection.costUnits = slo.costUnits;
        {
            std::lock_guard<std::mutex> lock(journalMutex_);
            if (journal_.isOpen()) {
                uint64_t seq =
                    journal_.appendAccepted(req, prep.job.fingerprint);
                journal_.appendShed(seq, req.id, "deadline-unmeetable",
                                    shedded.reason);
            }
        }
        obs::instantEvent("daemon", "shed", req.id);
        respond(conn, writeResult(rejection));
        return;
    }

    AdmissionDecision decision = admission_.admit(req, numVars);
    if (!decision.admitted) {
        rejection.costUnits = decision.costUnits;
        return reject(decision.reason, "admission");
    }

    QueuedJob job;
    job.prepared = std::move(prep.job);
    job.slo = slo;
    job.slo.arrival = arrivalCounter_++;
    job.acceptMs = nowMs();
    // Queue ordering wants the ABSOLUTE deadline (EDF across jobs
    // accepted at different times); the relative value served the shed
    // predictor above.
    if (req.deadlineMs > 0.0)
        job.slo.deadlineMs = job.acceptMs + req.deadlineMs;
    job.connId = conn.id;
    {
        std::lock_guard<std::mutex> lock(journalMutex_);
        if (journal_.isOpen())
            job.journalSeq =
                journal_.appendAccepted(req, job.prepared.fingerprint);
        else
            job.journalSeq = arrivalCounter_; // unique: tracks arrivals
    }
    job.slo.seq = job.journalSeq;
    statAccepted_.fetch_add(1, std::memory_order_relaxed);
    daemonCounters().accepted.inc();
    obs::instantEvent("daemon", "job-queued", req.id);
    enqueue(std::move(job));
}

void
Daemon::respond(Conn &conn, const std::string &line)
{
    conn.outBuffer += line;
    conn.outBuffer += '\n';
    flushConn(conn);
}

void
Daemon::flushConn(Conn &conn)
{
    while (conn.fd >= 0 && !conn.outBuffer.empty()) {
        ssize_t n = ::send(conn.fd, conn.outBuffer.data(),
                           conn.outBuffer.size(), MSG_NOSIGNAL);
        if (n <= 0)
            break; // EAGAIN: poll will flag POLLOUT
        conn.outBuffer.erase(0, static_cast<size_t>(n));
    }
}

void
Daemon::closeConn(size_t index)
{
    Conn &conn = conns_[index];
    if (conn.fd >= 0) {
        ::close(conn.fd);
        conn.fd = -1;
    }
    conns_.erase(conns_.begin() + static_cast<ptrdiff_t>(index));
}

void
Daemon::drainCompletions()
{
    std::deque<Completion> batch;
    {
        std::lock_guard<std::mutex> lock(completionMutex_);
        batch.swap(completions_);
    }
    for (Completion &done : batch) {
        if (done.connId == 0)
            continue; // replayed job; client long gone
        for (Conn &conn : conns_) {
            if (conn.id == done.connId) {
                respond(conn, done.line);
                break;
            }
        }
        // Disconnected client: the result still lives in the journal
        // and the results file; nothing to do.
    }
}

// ---------------------------------------------------------------------
// Worker thread
// ---------------------------------------------------------------------

void
Daemon::workerLoop()
{
    while (true) {
        QueuedJob job;
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueCv_.wait(lock, [this] {
                return drainRequested_ || !queue_.empty();
            });
            if (drainRequested_) {
                // Queued jobs stay journaled as pending; the next
                // incarnation replays them.
                workerDone_ = true;
                wake(kWakeWorkerDone);
                return;
            }
            SloJob next = queue_.pop();
            auto it = queuedBySeq_.find(next.seq);
            panic_if(it == queuedBySeq_.end(),
                     "daemon queue/payload maps out of sync");
            job = std::move(it->second);
            queuedBySeq_.erase(it);
            updateQueueGauges();
        }
        runOne(std::move(job));
    }
}

void
Daemon::runOne(QueuedJob job)
{
    // Same deterministic mint the batch scheduler performs, so a job's
    // telemetry line is byte-identical whether it ran here or in a
    // batch (a client-supplied hint wins, as everywhere else).
    if (job.prepared.req.traceHint.empty())
        job.prepared.req.traceHint = traceIdForJob(job.prepared);
    const JobRequest &req = job.prepared.req;
    {
        std::lock_guard<std::mutex> lock(journalMutex_);
        if (journal_.isOpen())
            journal_.appendRunning(job.journalSeq, req.id);
    }

    // Arm the cooperative deadline: the tighter of the remaining SLO
    // budget and the per-job timeout.  Replayed jobs run without one --
    // their deadlines expired with the previous incarnation, and the
    // determinism contract needs the work to actually happen.
    exec::CancelToken token;
    double budgetMs = 0.0;
    if (!job.replayed) {
        if (job.slo.deadlineMs > 0.0)
            budgetMs = job.slo.deadlineMs - nowMs();
        if (req.timeoutMs > 0.0 &&
            (budgetMs <= 0.0 ? job.slo.deadlineMs <= 0.0
                             : req.timeoutMs < budgetMs))
            budgetMs = req.timeoutMs;
        if (job.slo.deadlineMs > 0.0 && budgetMs <= 0.0)
            budgetMs = 1e-3; // already late: trip at the first check
        if (budgetMs > 0.0)
            token.setDeadlineSeconds(budgetMs * 1e-3);
    }
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        runningToken_ = &token;
        runningCostUnits_ = job.slo.costUnits;
    }

    obs::SpanContext ctx;
    ctx.traceId = req.traceHint;
    obs::Span span("daemon", "job", req.id, ctx);
    const double startMs = nowMs();
    // The token is passed even when unarmed so a drain can still
    // cooperatively cancel a replayed or deadline-less job.
    JobResult result = runner_.run(job.prepared, &token);
    const double endMs = nowMs();
    result.costUnits = job.slo.costUnits;
    result.telemetry.traceId = req.traceHint;
    result.telemetry.queueWaitMs = std::max(startMs - job.acceptMs, 0.0);
    result.telemetry.wallMs = endMs - startMs;

    bool drainCancelled;
    {
        std::lock_guard<std::mutex> lock(queueMutex_);
        runningToken_ = nullptr;
        runningCostUnits_ = 0.0;
        // The job only counts as checkpointed-by-drain when the drain
        // cancel (not a real deadline) is what stopped it.
        drainCancelled = drainRequested_ && !result.ok &&
                         token.cancelled() && !token.deadlineExpired();
    }
    finishJob(job, result, drainCancelled);
}

void
Daemon::finishJob(const QueuedJob &job, const JobResult &result,
                  bool checkpointed)
{
    const std::string line = writeResult(result);
    if (checkpointed) {
        // No terminal journal record: the job is still pending and the
        // next incarnation re-runs it (resuming from its segment
        // checkpoint), producing this exact line.
        statDrainCancelled_.fetch_add(1, std::memory_order_relaxed);
        obs::instantEvent("daemon", "drain-checkpointed",
                          job.prepared.req.id);
    } else {
        {
            std::lock_guard<std::mutex> lock(journalMutex_);
            if (journal_.isOpen())
                journal_.appendDone(job.journalSeq, job.prepared.req.id,
                                    line);
        }
        if (resultsFile_ != nullptr) {
            std::fwrite(line.data(), 1, line.size(), resultsFile_);
            std::fputc('\n', resultsFile_);
            std::fflush(resultsFile_);
        }
        statCompleted_.fetch_add(1, std::memory_order_relaxed);

        static obs::Counter &jobs_done = obs::Registry::global().counter(
            "serve_jobs_completed_total",
            "Jobs finished by the scheduler");
        static obs::Histogram &wall_hist =
            obs::Registry::global().histogram(
                "serve_job_wall_ms", "Per-job run time in milliseconds");
        static obs::Histogram &wait_hist =
            obs::Registry::global().histogram(
                "serve_job_queue_wait_ms",
                "Submission-to-start wait in milliseconds");
        jobs_done.inc();
        wall_hist.observe(result.telemetry.wallMs);
        wait_hist.observe(result.telemetry.queueWaitMs);
    }

    if (!job.replayed) {
        admission_.release();
        admission_.releaseCost(job.slo.costUnits);
    }

    if (!checkpointed) {
        std::lock_guard<std::mutex> lock(completionMutex_);
        completions_.push_back(Completion{job.connId, line});
    }
    wake(kWakeCompletion);
}

} // namespace rasengan::serve
