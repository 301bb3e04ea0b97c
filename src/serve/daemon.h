/**
 * @file
 * Always-on serve daemon: JSONL jobs over a Unix/TCP socket with a
 * crash-safe journal, deadline/SLO scheduling, and graceful drain.
 *
 * Architecture.  Two threads:
 *
 *  - The *IO thread* owns every socket.  It poll()s the listener, the
 *    connected clients, and a self-pipe; parses newline-delimited
 *    request lines (bounded by maxLineBytes); journals and enqueues
 *    accepted jobs; and writes every response byte -- immediate
 *    rejections and streamed completions alike -- so socket writes are
 *    single-threaded by construction.
 *
 *  - The *worker thread* pops jobs in priority/EDF order (serve/slo)
 *    and runs them one at a time through serve::JobRunner::serve, the
 *    job envelope batch serve and the cluster worker share (span,
 *    timeout and deadline arming, envelope telemetry, job metrics).
 *    The daemon adds only what is its own: the in-flight token it
 *    registers for drain, waived deadlines for replayed jobs, the
 *    journal record, and the hand-off to the results file and the
 *    client.  The simulators inside a job run serial loops, so
 *    --threads has no effect here.  Completions are handed back to
 *    the IO thread through a queue plus a wake byte on the self-pipe.
 *
 * Requests reuse the batch JSONL format (serve/job) with the
 * scheduling extras: `priority` (interactive | batch | best-effort),
 * `deadline_ms` (relative to acceptance; enforced as a cooperative
 * cancellation checkpoint and consulted by the shed predictor), and
 * `timeout_ms`.  The response to a request line is its deterministic
 * writeResult() line, streamed when the job finishes (immediately for
 * rejections); clients correlate by `id`.
 *
 * HTTP probes ride the same socket: a line starting with "GET " is
 * answered as HTTP/1.0 and the connection closed.  `/healthz` is
 * liveness, `/readyz` flips to 503 while draining, `/metrics` serves
 * the live obs registry in Prometheus text format, `/metrics.json` the
 * same as flat JSON.
 *
 * Lifecycle.  start() replays the journal (re-running unfinished jobs;
 * content-derived child seeds make the replayed results byte-identical
 * to an uninterrupted run), binds the socket, and launches both
 * threads.  SIGTERM/SIGINT (via notifySignal, or requestDrain in
 * tests) drains: the listener closes, queued jobs stay journaled as
 * pending, the in-flight job is cooperatively cancelled -- its segment
 * checkpoint survives for the next incarnation to resume bit-exactly
 * -- the journal is flushed, and wait() returns.  SIGHUP compacts the
 * journal in place (dropping terminal records) without dropping
 * connections.
 */

#ifndef RASENGAN_SERVE_DAEMON_H
#define RASENGAN_SERVE_DAEMON_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/cancel.h"
#include "obs/clock.h"
#include "serve/admission.h"
#include "serve/journal.h"
#include "serve/jsonl.h"
#include "serve/policy.h"
#include "serve/runner.h"
#include "serve/slo.h"

namespace rasengan::serve {

struct DaemonOptions : ServiceOptions
{
    /** "unix:PATH", "tcp:PORT", or "tcp:HOST:PORT" (loopback default;
     *  tcp:0 binds an ephemeral port, see Daemon::boundPort). */
    std::string listen = "unix:rasengand.sock";
    /** Write-ahead journal path; "" runs without crash safety. */
    std::string journalPath;
    /** Mirror of every result line (appended as jobs finish); "". */
    std::string resultsPath;
    /** Segment-checkpoint directory for drain/crash resume; "". */
    std::string checkpointDir;
    SloPolicy slo;
    /**
     * Admission/SLO policy file (serve/policy format).  When set, the
     * file is loaded at start() -- overriding `limits`/`slo` -- and
     * re-read on SIGHUP, so operators retune the daemon live.  A
     * defective file fails start(); a defective reload keeps the
     * current policy and logs the error.
     */
    std::string policyPath;
    size_t maxLineBytes = LineReader::kDefaultMaxLineBytes;
};

/** Monotonic counters snapshot (tests and /healthz debugging). */
struct DaemonStats
{
    uint64_t connections = 0;
    uint64_t accepted = 0;  ///< journaled + queued
    uint64_t rejected = 0;  ///< validation/admission rejections
    uint64_t shed = 0;      ///< deadline-unmeetable rejections
    uint64_t completed = 0; ///< jobs run to a terminal result
    uint64_t replayed = 0;  ///< pending jobs re-run from the journal
    uint64_t drainCancelled = 0; ///< in-flight jobs checkpointed by drain
    size_t queueDepth = 0;
};

class Daemon
{
  public:
    explicit Daemon(DaemonOptions options);
    ~Daemon();
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /**
     * Replay the journal, bind the listen socket, and launch the IO
     * and worker threads.  Returns false (with @p error) on socket or
     * journal I/O failure.
     */
    bool start(std::string *error);

    /** Begin a graceful drain (idempotent; safe from any thread). */
    void requestDrain();

    /** Compact the journal in place (idempotent; any thread). */
    void requestReload();

    /**
     * Async-signal-safe signal forwarder: installs nothing itself --
     * the CLI's handler calls this with the raw signal number.
     * SIGTERM/SIGINT map to drain, SIGHUP to reload.
     */
    void notifySignal(int sig);

    /** Block until the daemon has fully drained and both threads
     *  exited.  start() must have succeeded. */
    void wait();

    /** requestDrain() + wait(). */
    void stop();

    bool running() const { return running_.load(std::memory_order_acquire); }

    /** Bound TCP port (after start; 0 for unix sockets). */
    int boundPort() const { return boundPort_; }

    DaemonStats stats() const;

    const DaemonOptions &options() const { return options_; }

    /** The live admission/SLO policy (post-reload; any thread). */
    DaemonPolicy policySnapshot() const;

    /** SIGHUP reloads so far that parsed and applied cleanly. */
    uint64_t policyReloads() const
    {
        return statPolicyReloads_.load(std::memory_order_relaxed);
    }

  private:
    struct Conn
    {
        int fd = -1;
        uint64_t id = 0;        ///< generation id (fds are reused)
        std::string inBuffer;   ///< unframed request bytes
        std::string outBuffer;  ///< unsent response bytes
        bool skippingLongLine = false;
        bool lineHasNul = false; ///< current line carries a NUL byte
        bool closeAfterFlush = false; ///< HTTP probe connections
    };

    struct QueuedJob
    {
        PreparedJob prepared;
        SloJob slo; ///< slo.deadlineMs is *absolute* obs-clock ms
        uint64_t journalSeq = 0;
        uint64_t connId = 0;   ///< 0 when the client is gone (replay)
        bool replayed = false; ///< deadline/timeout enforcement waived
        /** obs-clock acceptance time; daemon start for replayed jobs. */
        obs::TimeNanos acceptedAt = 0;
    };

    struct Completion
    {
        uint64_t connId = 0;
        std::string line; ///< response bytes (no trailing newline)
    };

    // -- IO thread -------------------------------------------------
    void ioLoop();
    void acceptClients();
    void readClient(Conn &conn);
    void handleLine(Conn &conn, const std::string &line);
    void handleHttp(Conn &conn, const std::string &line);
    void handleSubmit(Conn &conn, const std::string &line);
    void respond(Conn &conn, const std::string &line);
    void flushConn(Conn &conn);
    void closeConn(size_t index);
    void drainControlPipe();
    void drainCompletions();
    void beginDrain();
    void compactJournal();
    void reloadPolicy();

    // -- worker thread ---------------------------------------------
    void workerLoop();
    void runOne(const QueuedJob &job);

    // -- shared helpers --------------------------------------------
    void wake(char code);
    void updateQueueGauges();
    void enqueue(QueuedJob job);

    DaemonOptions options_;
    JobRunner runner_;
    AdmissionController admission_;
    /** Guards policy_ for cross-thread snapshots; the IO thread is the
     *  only writer (SIGHUP reload) and the only policy *consumer*
     *  (admission + shed prediction), so its reads are uncontended. */
    mutable std::mutex policyMutex_;
    DaemonPolicy policy_;
    Journal journal_;
    std::mutex journalMutex_; ///< serializes appends vs. compaction

    int listenFd_ = -1;
    int boundPort_ = 0;
    std::string unixPath_; ///< unlinked on shutdown when non-empty
    int controlPipe_[2] = {-1, -1};

    std::vector<Conn> conns_;
    uint64_t nextConnId_ = 1;

    mutable std::mutex queueMutex_; ///< stats() reads under it
    std::condition_variable queueCv_;
    DeadlineQueue queue_;
    std::map<uint64_t, QueuedJob> queuedBySeq_; ///< payloads, keyed by seq
    double runningCostUnits_ = 0.0;
    exec::CancelToken *runningToken_ = nullptr; ///< drain cancels it
    bool drainRequested_ = false;
    bool workerDone_ = false;

    std::mutex completionMutex_;
    std::deque<Completion> completions_;

    std::FILE *resultsFile_ = nullptr;

    uint64_t arrivalCounter_ = 0;
    const obs::TimeNanos started_; ///< obs clock at construction

    std::atomic<bool> running_{false};
    std::atomic<bool> draining_{false};
    std::atomic<uint64_t> statConnections_{0};
    std::atomic<uint64_t> statAccepted_{0};
    std::atomic<uint64_t> statRejected_{0};
    std::atomic<uint64_t> statShed_{0};
    std::atomic<uint64_t> statCompleted_{0};
    std::atomic<uint64_t> statReplayed_{0};
    std::atomic<uint64_t> statDrainCancelled_{0};
    std::atomic<uint64_t> statPolicyReloads_{0};

    std::thread ioThread_;
    std::thread workerThread_;
};

} // namespace rasengan::serve

#endif // RASENGAN_SERVE_DAEMON_H
