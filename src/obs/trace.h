/**
 * @file
 * Structured tracing: RAII spans with explicit parent links, recorded
 * into per-thread buffers and exported as Chrome trace-event JSON
 * (loadable in Perfetto / chrome://tracing).
 *
 * Design constraints, in order:
 *
 *  1. Determinism.  The *span tree* (category, name, parentage) of an
 *     instrumented run must be identical at every thread count, so
 *     spans are only opened at call sites whose execution count is
 *     thread-invariant: a job's own spans (it runs on one thread) and
 *     the per-job spans of the job pool, which name their batch parent
 *     explicitly.  spanTreeSignature()
 *     renders the forest into a canonical, timestamp- and thread-free
 *     string for byte-comparison across thread counts.
 *
 *  2. Cheap when off.  tracingEnabled() is one relaxed atomic load;
 *     every recording call checks it first and a disabled span
 *     constructor does nothing else (see obs/prof.h for the macro whose
 *     disabled cost is exactly that branch).
 *
 *  3. Thread-safe recording, race-free snapshots.  Each thread appends
 *     to its own buffer through a thread_local pointer under that
 *     buffer's (uncontended) mutex; the global registry mutex is
 *     touched once per thread lifetime (registration) and at export.
 *     Buffers survive their threads (shared_ptr), so pool
 *     reconfiguration does not lose events.  snapshotTraceEvents() may
 *     run while *other* threads are still recording (the cluster
 *     coordinator snapshots while in-process test workers run): it
 *     locks each buffer and copies.
 *
 * Parentage: spans nest through a thread-local current-span id.  Work
 * dispatched onto pool threads does not inherit the dispatcher's
 * thread-local parent, so cross-thread callers (the job runner's
 * per-job spans) pass the parent in a SpanContext.
 *
 * Distributed traces: a job admitted by the cluster coordinator carries
 * a 128-bit trace id (hex string) end to end.  The worker opens the
 * job's span with a SpanContext whose parent is the *coordinator's*
 * span id and whose remote flag marks the edge as crossing a process
 * boundary.  remoteRootedEvents() / encodeSpanEvents() extract and
 * compact such subtrees for shipping in batch_done;
 * writeMergedChromeTrace() / mergedSpanTreeSignature() stitch shipped
 * forests back under the coordinator's spans, remapping ids per worker
 * (base (i+1)<<32) so independently-minted id spaces cannot collide and
 * rebasing timestamps by the per-worker clock offset measured at hello.
 *
 * Capacity: each thread buffer holds at most kMaxEventsPerThread
 * events; overflow drops the event and bumps the
 * obs_trace_dropped_total counter rather than growing unboundedly.
 */

#ifndef RASENGAN_OBS_TRACE_H
#define RASENGAN_OBS_TRACE_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "obs/clock.h"

namespace rasengan::obs {

using SpanId = uint64_t;

/** Max events one thread records before dropping (~96 MB worst case). */
constexpr size_t kMaxEventsPerThread = size_t{1} << 20;

namespace detail {

extern std::atomic<bool> tracingOn;

} // namespace detail

/** One relaxed load; the gate every recording call checks first. */
inline bool
tracingEnabled()
{
    return detail::tracingOn.load(std::memory_order_relaxed);
}

/**
 * Start recording (idempotent).  Existing buffered events are kept;
 * call clearTrace() first for a fresh trace.
 */
void startTracing();

/** Stop recording; buffered events remain available for export. */
void stopTracing();

/** Drop every buffered event (must be outside any parallel region). */
void clearTrace();

/** Buffered events across all threads (export-time snapshot). */
size_t traceEventCount();

/** Events dropped by full thread buffers since the last clear. */
uint64_t traceDroppedCount();

/** Current thread's innermost open span id (0 = none). */
SpanId currentSpanId();

/**
 * One recorded event.  @p category / @p name point at static strings
 * (call-site literals, or strings interned by decodeSpanEvents);
 * @p detail is dynamic and copied.  @p remoteParent marks an edge that
 * crosses a process boundary: the parent id lives in the *coordinator's*
 * id space and must not be remapped when the event is stitched into a
 * merged trace.  @p traceId is the distributed trace this event belongs
 * to ("" for purely local spans).
 */
struct TraceEvent
{
    char phase;          ///< 'B', 'E', or 'i'
    const char *category;///< static string (call-site literal/interned)
    const char *name;    ///< static string (call-site literal/interned)
    std::string detail;  ///< dynamic annotation (may be empty)
    TimeNanos ts;
    SpanId id;
    SpanId parent;
    bool remoteParent = false;
    std::string traceId; ///< 32-hex distributed trace id ("" = local)
};

/** A TraceEvent plus its recording thread and per-thread order. */
struct FlatEvent
{
    TraceEvent event;
    uint32_t tid;
    uint64_t seq; ///< per-thread order, stable tiebreak for equal ts
};

/**
 * Where a span sits in a trace.  A zero parent means the calling
 * thread's innermost open span; a nonzero parent links across threads
 * (a pool task under its batch span) or, with remote=true, across
 * processes (a cluster worker's job span under the coordinator's).
 * traceId, when set, records the job's distributed trace id.
 */
struct SpanContext
{
    std::string traceId; ///< 32-hex trace id ("" = none)
    SpanId parent = 0;
    bool remote = false;
};

/**
 * RAII span.  Records a begin event at construction and an end event at
 * destruction when tracing is enabled; otherwise both are a branch.
 * The parent comes from @p context (see SpanContext).  When the flight
 * recorder is enabled the closed span is also journaled there, even
 * with tracing off.
 *
 * @p category and @p name must outlive the span (string literals at
 * every call site in this repository); dynamic detail goes into
 * @p detail, which is copied.
 */
class Span
{
  public:
    Span(const char *category, const char *name,
         std::string detail = std::string(),
         const SpanContext &context = SpanContext());

    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** 0 when tracing was disabled at construction. */
    SpanId id() const { return id_; }

  private:
    void open(const char *category, const char *name, std::string detail,
              SpanId parent, bool remoteParent, std::string traceId);

    SpanId id_ = 0;
    SpanId restoreParent_ = 0;
    bool active_ = false;
    // Flight-recorder capture (set when flight::enabled() at open).
    bool flightActive_ = false;
    const char *category_ = nullptr;
    const char *name_ = nullptr;
    std::string flightDetail_;
    TimeNanos start_ = 0;
};

/** Zero-duration instant event (retry fired, breaker tripped, ...). */
void instantEvent(const char *category, const char *name,
                  std::string detail = std::string());

/**
 * Copy every buffered event (registry + per-buffer locks; safe while
 * other threads record).  Order: per-thread recording order within a
 * tid, tids in registration order.
 */
std::vector<FlatEvent> snapshotTraceEvents();

/**
 * The subset of @p events inside subtrees rooted at a remote-parent
 * span whose trace id is in @p traceIds: what a worker ships for the
 * jobs of one cycle.  E events follow their span's membership.  The
 * relative order of the selected events is preserved.
 */
std::vector<FlatEvent>
remoteRootedEvents(const std::vector<FlatEvent> &events,
                   const std::set<std::string> &traceIds);

/**
 * @p events minus every subtree rooted at a remote-parent span: the
 * coordinator's *local* view when workers run in-process (their spans
 * land in the same registry and would otherwise be double-counted once
 * the shipped copies are stitched back in).  In multi-process runs this
 * is the identity.
 */
std::vector<FlatEvent>
withoutRemoteRooted(const std::vector<FlatEvent> &events);

/**
 * Compact @p events into a newline-separated tab-escaped wire form for
 * batch_done.  At most @p maxEvents events are encoded (0 = no cap);
 * the rest are counted into @p dropped (may be nullptr).
 */
std::string encodeSpanEvents(const std::vector<FlatEvent> &events,
                             size_t maxEvents = 0,
                             uint64_t *dropped = nullptr);

/** Parse encodeSpanEvents() output (tolerates ""; skips bad lines). */
std::vector<FlatEvent> decodeSpanEvents(const std::string &encoded);

/** One worker's shipped span forest, stitched under its own pid. */
struct ForeignSpans
{
    std::string process;         ///< Perfetto process name ("worker 0")
    int64_t clockOffsetNanos = 0;///< coordinator clock minus worker clock
    std::vector<FlatEvent> events;
};

/**
 * Export every buffered event as Chrome trace-event JSON to @p path.
 * Events are sorted by timestamp; B/E pairs stay balanced per thread.
 * Returns false on I/O failure.  Call outside any parallel region.
 */
bool writeChromeTrace(const std::string &path);

/**
 * Stitch @p local (remote-rooted subtrees excluded) and each worker's
 * shipped events into ONE Chrome trace-event JSON: local events at
 * pid 1, worker i at pid i+2, process_name metadata for every pid,
 * worker timestamps rebased by the measured clock offset, worker span
 * ids remapped to (i+1)<<32 + id (remote parent ids kept verbatim so
 * cross-process edges land on the coordinator's spans).  Returns false
 * on I/O failure.
 */
bool writeMergedChromeTrace(const std::string &path,
                            const std::vector<FlatEvent> &local,
                            const std::vector<ForeignSpans> &foreign);

/**
 * Canonical, timestamp- and thread-free rendering of the span forest:
 * every node as "category:name[detail](children...)" with children and
 * roots sorted lexicographically.  Byte-identical across thread counts
 * for deterministically instrumented work; the determinism tests and
 * CI compare these strings.
 */
std::string spanTreeSignature();

/** spanTreeSignature over an explicit event set (merged forests). */
std::string spanTreeSignature(const std::vector<FlatEvent> &events);

/**
 * Signature of the stitched cluster forest: local events minus
 * remote-rooted subtrees, plus every worker's shipped events remapped
 * as in writeMergedChromeTrace.  Byte-identical across worker counts
 * and thread counts for a deterministic batch.
 */
std::string
mergedSpanTreeSignature(const std::vector<FlatEvent> &local,
                        const std::vector<ForeignSpans> &foreign);

} // namespace rasengan::obs

#endif // RASENGAN_OBS_TRACE_H
