/**
 * @file
 * Cluster coordinator: screens a batch, shards it across workers, and
 * merges the streamed results into the exact byte stream a
 * single-process run would produce.
 *
 * Determinism argument, piece by piece:
 *
 *  - Rejections.  submit() screens every request through the same
 *    serve::screenRequest the BatchScheduler uses, in submission order,
 *    against one stateful AdmissionController -- so rejection result
 *    lines (reason, code, cost) are byte-identical to single-process.
 *    (Batch-mode admission is fully serial at submit time: no release()
 *    runs until the batch executes, so screening here sees the same
 *    queue occupancy the single-process submit loop would.)
 *
 *  - Accepted jobs.  Workers re-derive the child seed from canonical
 *    request content + batch seed and run each job through
 *    serve::JobRunner::serve, the envelope the BatchScheduler uses;
 *    its cost_units is estimateJobCost, which is limits-independent,
 *    so cost_units matches too.
 *    Result lines cross the wire as the worker's writeResult() bytes
 *    and are stored verbatim in the submission-order slot -- the merge
 *    is placement- and completion-order-invariant by construction, and
 *    re-running an orphaned job on a different worker reproduces the
 *    same bytes.
 *
 * Failure handling: a worker death (EOF, write error, corrupt frame) is
 * detected by the poll loop; its unfinished jobs are re-placed across
 * the survivors under exec::RetryPolicy semantics (attempt cap +
 * backoff between re-placements).  A job that exhausts its attempts --
 * or outlives the last worker -- completes as a deterministic
 * accepted-but-failed result naming the placement failure.
 *
 * Single-threaded: runAll() multiplexes every worker connection with
 * poll() and non-blocking writes through per-worker output buffers, so
 * a stalled worker can never deadlock the coordinator.
 */

#ifndef RASENGAN_CLUSTER_COORDINATOR_H
#define RASENGAN_CLUSTER_COORDINATOR_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "cluster/placement.h"
#include "cluster/protocol.h"
#include "common/rng.h"
#include "exec/retry.h"
#include "obs/trace.h"
#include "serve/admission.h"
#include "serve/runner.h"

namespace rasengan::cluster {

/**
 * threads and cacheBudgetBytes apply per worker; limits are the real
 * admission limits -- screening happens here, never on workers.
 */
struct CoordinatorOptions : serve::ServiceOptions
{
    size_t maxFrameBytes = kDefaultMaxFrameBytes;
    /** Fault plan forwarded to worker @p faultWorker's hello (tests/CI). */
    std::string faultSpec;
    int faultWorker = -1;
    /** Re-placement attempt cap and backoff for jobs orphaned by a
     *  worker death (maxAttempts counts placements, initial included). */
    exec::RetryPolicy retry;
    /** Import each worker's batch_done metrics snapshot into the global
     *  registry as <metricsPrefix><name>{worker="N",...} gauges. */
    bool importMetrics = true;
    std::string metricsPrefix = "cluster_worker_";
};

struct CoordinatorStats
{
    size_t workers = 0;
    size_t workersDead = 0;
    size_t jobsReplaced = 0;    ///< re-placements after a death
    size_t jobsSynthesized = 0; ///< failed: attempts/workers exhausted
    size_t rejected = 0;
    uint64_t cacheHits = 0; ///< summed over surviving workers
    uint64_t cacheMisses = 0;
    uint64_t cacheEvictions = 0;
};

class Coordinator
{
  public:
    /** @p workerFds: one connected stream per worker; the coordinator
     *  takes ownership and closes them. */
    Coordinator(CoordinatorOptions options, std::vector<int> workerFds);
    ~Coordinator();

    Coordinator(const Coordinator &) = delete;
    Coordinator &operator=(const Coordinator &) = delete;

    /** Screen @p req (serial, submission order); returns its slot. */
    size_t submit(const serve::JobRequest &req);

    /**
     * Distribute, execute, and merge.  Returns false on a coordinator-
     * level failure (no workers, every worker lost before placement
     * finished); individual job failures are reported in their result
     * lines, exactly like single-process failed jobs.
     */
    bool runAll(std::string *error);

    /** writeResult() lines, submission order (complete after runAll). */
    const std::vector<std::string> &resultLines() const
    {
        return resultLines_;
    }

    /** writeTelemetry() lines, submission order. */
    const std::vector<std::string> &telemetryLines() const
    {
        return telemetryLines_;
    }

    const CoordinatorStats &stats() const { return stats_; }

    /**
     * Span forests shipped by workers in batch_done (decoded,
     * accumulated across cycles), each tagged with its Perfetto process
     * name and the clock offset measured at hello_ack.  Empty unless
     * tracing was enabled during runAll.
     */
    std::vector<obs::ForeignSpans> foreignSpans() const;

    /**
     * Stitch the coordinator's local trace buffers and every worker's
     * shipped spans into ONE Chrome trace-event JSON at @p path (see
     * obs::writeMergedChromeTrace).  Call after runAll.
     */
    bool writeMergedTrace(const std::string &path,
                          std::string *error) const;

    /** obs::mergedSpanTreeSignature over local + shipped forests:
     *  byte-identical across worker and thread counts. */
    std::string mergedSignature() const;

    /** Span events workers dropped to fit batch_done under the frame
     *  cap (summed; nonzero means the merged trace has holes). */
    uint64_t shippedSpansDropped() const;

  private:
    struct AdmittedJob
    {
        uint64_t slot = 0;
        std::string id;
        std::string line; ///< forwarded writeRequest() rendering
        double costUnits = 0.0;
        int attempts = 0; ///< placements so far (initial included)
    };

    struct WorkerConn
    {
        int fd = -1;
        FrameDecoder decoder;
        std::string outBuf;
        size_t outPos = 0;
        bool alive = true;
        bool byeSeen = false;
        bool haveDone = false;
        Message lastDone;             ///< latest batch_done snapshot
        std::set<uint64_t> outstanding; ///< slots awaiting results
        /** nowNanos() when the hello was queued (clock-offset probe). */
        obs::TimeNanos helloSent = 0;
        /** Coordinator clock minus worker clock, from hello_ack. */
        int64_t clockOffsetNanos = 0;
        /** Decoded span events shipped in batch_done, across cycles. */
        std::vector<obs::FlatEvent> spans;
        uint64_t spansDropped = 0;

        explicit WorkerConn(int f, size_t maxFrame)
            : fd(f), decoder(maxFrame)
        {
        }
    };

    void queueFrame(int w, const Message &msg);
    bool flushWorker(int w); ///< false when the write killed the conn
    void readWorker(int w);
    void handleFrame(int w, const Message &msg);
    void workerDied(int w, const std::string &why);
    void placeJobs(const std::vector<size_t> &jobIndices);
    void synthesizeFailure(size_t jobIndex, const std::string &why);
    void finishSlot(uint64_t slot, std::string resultLine,
                    std::string telemetryLine);
    void drainWorkers();

    CoordinatorOptions options_;
    serve::JobRunner runner_; ///< prepare-only (cache budget 0)
    serve::AdmissionController admission_;
    Placer placer_;
    Rng rng_; ///< backoff jitter stream (seeded from the batch seed)

    std::vector<WorkerConn> conns_;
    std::vector<AdmittedJob> admitted_;
    std::map<uint64_t, size_t> jobBySlot_;

    std::vector<std::string> resultLines_;
    std::vector<std::string> telemetryLines_;
    std::vector<bool> slotDone_;
    size_t remaining_ = 0; ///< admitted slots still unfilled
    bool ran_ = false;

    CoordinatorStats stats_;
};

} // namespace rasengan::cluster

#endif // RASENGAN_CLUSTER_COORDINATOR_H
