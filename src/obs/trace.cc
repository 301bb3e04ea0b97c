#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "obs/flight.h"
#include "obs/metrics.h"

namespace rasengan::obs {

namespace detail {

std::atomic<bool> tracingOn{false};

} // namespace detail

namespace {

struct ThreadBuffer
{
    uint32_t tid = 0;
    std::mutex mutex; ///< uncontended on the hot path; snapshot-safe
    std::vector<TraceEvent> events;
    uint64_t dropped = 0;
};

struct TraceRegistry
{
    std::mutex mutex;
    std::vector<std::shared_ptr<ThreadBuffer>> buffers;
    uint32_t nextTid = 1;
};

TraceRegistry &
registry()
{
    static TraceRegistry *reg = new TraceRegistry(); // outlives threads
    return *reg;
}

std::atomic<SpanId> nextSpanId{1};

thread_local ThreadBuffer *tls_buffer = nullptr;
thread_local SpanId tls_currentSpan = 0;

ThreadBuffer &
threadBuffer()
{
    if (tls_buffer == nullptr) {
        auto buf = std::make_shared<ThreadBuffer>();
        TraceRegistry &reg = registry();
        std::lock_guard<std::mutex> lock(reg.mutex);
        buf->tid = reg.nextTid++;
        reg.buffers.push_back(buf);
        tls_buffer = buf.get();
    }
    return *tls_buffer;
}

Counter &
droppedCounter()
{
    static Counter &c = Registry::global().counter(
        "obs_trace_dropped_total",
        "Trace events dropped by full per-thread buffers");
    return c;
}

void
append(ThreadBuffer &buf, TraceEvent event)
{
    std::lock_guard<std::mutex> lock(buf.mutex);
    if (buf.events.size() >= kMaxEventsPerThread) {
        ++buf.dropped;
        droppedCounter().inc();
        return;
    }
    buf.events.push_back(std::move(event));
}

} // namespace

void
startTracing()
{
    detail::tracingOn.store(true, std::memory_order_relaxed);
}

void
stopTracing()
{
    detail::tracingOn.store(false, std::memory_order_relaxed);
}

void
clearTrace()
{
    TraceRegistry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    for (auto &buf : reg.buffers) {
        std::lock_guard<std::mutex> bufLock(buf->mutex);
        buf->events.clear();
        buf->dropped = 0;
    }
}

size_t
traceEventCount()
{
    TraceRegistry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    size_t n = 0;
    for (const auto &buf : reg.buffers) {
        std::lock_guard<std::mutex> bufLock(buf->mutex);
        n += buf->events.size();
    }
    return n;
}

uint64_t
traceDroppedCount()
{
    TraceRegistry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    uint64_t n = 0;
    for (const auto &buf : reg.buffers) {
        std::lock_guard<std::mutex> bufLock(buf->mutex);
        n += buf->dropped;
    }
    return n;
}

SpanId
currentSpanId()
{
    return tls_currentSpan;
}

Span::Span(const char *category, const char *name, std::string detail,
           const SpanContext &context)
{
    bool traced = tracingEnabled();
    bool flighted = flight::enabled();
    if (!traced && !flighted)
        return;
    if (flighted) {
        category_ = category;
        name_ = name;
        flightDetail_ = detail;
        start_ = nowNanos();
        flightActive_ = true;
    }
    if (traced)
        open(category, name, std::move(detail),
             context.parent != 0 ? context.parent : tls_currentSpan,
             context.remote, context.traceId);
}

void
Span::open(const char *category, const char *name, std::string detail,
           SpanId parent, bool remoteParent, std::string traceId)
{
    id_ = nextSpanId.fetch_add(1, std::memory_order_relaxed);
    restoreParent_ = tls_currentSpan;
    tls_currentSpan = id_;
    active_ = true;
    append(threadBuffer(),
           TraceEvent{'B', category, name, std::move(detail), nowNanos(),
                      id_, parent, remoteParent, std::move(traceId)});
}

Span::~Span()
{
    if (flightActive_)
        flight::recordSpan(category_, name_, flightDetail_,
                           nowNanos() - start_);
    if (!active_)
        return;
    // Close unconditionally (even if tracing stopped mid-span) so every
    // recorded B has a matching E and the exported JSON stays balanced.
    append(*tls_buffer, TraceEvent{'E', "", "", std::string(), nowNanos(),
                                   id_, 0, false, std::string()});
    tls_currentSpan = restoreParent_;
}

void
instantEvent(const char *category, const char *name, std::string detail)
{
    if (flight::enabled())
        flight::recordInstant(category, name, detail);
    if (!tracingEnabled())
        return;
    append(threadBuffer(),
           TraceEvent{'i', category, name, std::move(detail), nowNanos(),
                      nextSpanId.fetch_add(1, std::memory_order_relaxed),
                      tls_currentSpan, false, std::string()});
}

std::vector<FlatEvent>
snapshotTraceEvents()
{
    TraceRegistry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mutex);
    std::vector<FlatEvent> flat;
    for (const auto &buf : reg.buffers) {
        std::lock_guard<std::mutex> bufLock(buf->mutex);
        uint64_t seq = 0;
        for (const TraceEvent &e : buf->events)
            flat.push_back(FlatEvent{e, buf->tid, seq++});
    }
    return flat;
}

namespace {

std::string
jsonEscape(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    for (char c : raw) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c;
        }
    }
    return out;
}

/**
 * Membership in a remote-rooted subtree, memoized parent-chain walk.
 * A remote root is a B/i event with remoteParent set whose trace id is
 * in @p traceIds (nullptr = any).  E events share their span's id and
 * therefore its membership.
 */
class RemoteRootFilter
{
  public:
    RemoteRootFilter(const std::vector<FlatEvent> &events,
                     const std::set<std::string> *traceIds)
    {
        for (const FlatEvent &fe : events) {
            const TraceEvent &e = fe.event;
            if (e.phase == 'E')
                continue;
            bool root = e.remoteParent &&
                        (traceIds == nullptr ||
                         traceIds->count(e.traceId) != 0);
            info_.emplace(e.id, Info{e.parent, root});
        }
    }

    bool
    inside(SpanId id)
    {
        std::vector<SpanId> path;
        SpanId cur = id;
        bool result = false;
        while (true) {
            auto memoIt = memo_.find(cur);
            if (memoIt != memo_.end()) {
                result = memoIt->second;
                break;
            }
            auto it = info_.find(cur);
            if (it == info_.end()) {
                result = false;
                break;
            }
            path.push_back(cur);
            if (it->second.remoteRoot) {
                result = true;
                break;
            }
            if (it->second.parent == 0) {
                result = false;
                break;
            }
            cur = it->second.parent;
        }
        for (SpanId s : path)
            memo_[s] = result;
        return result;
    }

  private:
    struct Info
    {
        SpanId parent;
        bool remoteRoot;
    };
    std::unordered_map<SpanId, Info> info_;
    std::unordered_map<SpanId, bool> memo_;
};

std::vector<FlatEvent>
filterRemoteRooted(const std::vector<FlatEvent> &events,
                   const std::set<std::string> *traceIds, bool keepInside)
{
    RemoteRootFilter filter(events, traceIds);
    std::vector<FlatEvent> out;
    for (const FlatEvent &fe : events)
        if (filter.inside(fe.event.id) == keepInside)
            out.push_back(fe);
    return out;
}

} // namespace

std::vector<FlatEvent>
remoteRootedEvents(const std::vector<FlatEvent> &events,
                   const std::set<std::string> &traceIds)
{
    return filterRemoteRooted(events, &traceIds, true);
}

std::vector<FlatEvent>
withoutRemoteRooted(const std::vector<FlatEvent> &events)
{
    return filterRemoteRooted(events, nullptr, false);
}

namespace {

void
wireEscape(std::string &out, const char *s, size_t len)
{
    for (size_t i = 0; i < len; ++i) {
        char c = s[i];
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '\t': out += "\\t"; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
}

std::string
wireUnescape(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    for (size_t i = 0; i < raw.size(); ++i) {
        char c = raw[i];
        if (c == '\\' && i + 1 < raw.size()) {
            char n = raw[++i];
            if (n == 't')
                out += '\t';
            else if (n == 'n')
                out += '\n';
            else
                out += n;
            continue;
        }
        out += c;
    }
    return out;
}

/** Stable storage for decoded category/name strings (leaked). */
const char *
internString(const std::string &s)
{
    static std::mutex *mutex = new std::mutex();
    static std::set<std::string> *table = new std::set<std::string>();
    std::lock_guard<std::mutex> lock(*mutex);
    return table->insert(s).first->c_str();
}

} // namespace

std::string
encodeSpanEvents(const std::vector<FlatEvent> &events, size_t maxEvents,
                 uint64_t *dropped)
{
    std::string out;
    size_t limit = (maxEvents == 0 || maxEvents > events.size())
                       ? events.size()
                       : maxEvents;
    if (dropped != nullptr)
        *dropped += events.size() - limit;
    char nums[160];
    for (size_t i = 0; i < limit; ++i) {
        const FlatEvent &fe = events[i];
        const TraceEvent &e = fe.event;
        std::snprintf(nums, sizeof(nums),
                      "%c\t%llu\t%u\t%llu\t%llu\t%llu\t%c\t", e.phase,
                      static_cast<unsigned long long>(e.ts), fe.tid,
                      static_cast<unsigned long long>(fe.seq),
                      static_cast<unsigned long long>(e.id),
                      static_cast<unsigned long long>(e.parent),
                      e.remoteParent ? '1' : '0');
        out += nums;
        out += e.traceId; // hex digits, never needs escaping
        out += '\t';
        wireEscape(out, e.category, std::char_traits<char>::length(
                                        e.category));
        out += '\t';
        wireEscape(out, e.name,
                   std::char_traits<char>::length(e.name));
        out += '\t';
        wireEscape(out, e.detail.c_str(), e.detail.size());
        out += '\n';
    }
    return out;
}

std::vector<FlatEvent>
decodeSpanEvents(const std::string &encoded)
{
    std::vector<FlatEvent> out;
    size_t pos = 0;
    while (pos < encoded.size()) {
        size_t eol = encoded.find('\n', pos);
        if (eol == std::string::npos)
            eol = encoded.size();
        std::string line = encoded.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty())
            continue;
        // Escaped tabs are two-char "\t" sequences, so splitting on the
        // raw byte is unambiguous.
        std::vector<std::string> fields;
        size_t start = 0;
        while (fields.size() < 10) {
            size_t tab = line.find('\t', start);
            if (tab == std::string::npos)
                break;
            fields.push_back(line.substr(start, tab - start));
            start = tab + 1;
        }
        if (fields.size() != 10)
            continue;
        fields.push_back(line.substr(start)); // detail (may hold none)
        const std::string &ph = fields[0];
        if (ph.size() != 1 ||
            (ph[0] != 'B' && ph[0] != 'E' && ph[0] != 'i'))
            continue;
        FlatEvent fe;
        fe.event.phase = ph[0];
        fe.event.ts = std::strtoull(fields[1].c_str(), nullptr, 10);
        fe.tid = static_cast<uint32_t>(
            std::strtoul(fields[2].c_str(), nullptr, 10));
        fe.seq = std::strtoull(fields[3].c_str(), nullptr, 10);
        fe.event.id = std::strtoull(fields[4].c_str(), nullptr, 10);
        fe.event.parent = std::strtoull(fields[5].c_str(), nullptr, 10);
        fe.event.remoteParent = fields[6] == "1";
        fe.event.traceId = fields[7];
        fe.event.category = internString(wireUnescape(fields[8]));
        fe.event.name = internString(wireUnescape(fields[9]));
        fe.event.detail = wireUnescape(fields[10]);
        out.push_back(std::move(fe));
    }
    return out;
}

namespace {

/** Worker ids are remapped to a disjoint range; remote-parent edges
 *  keep their coordinator-space parent id verbatim. */
FlatEvent
remapForeign(const FlatEvent &fe, uint64_t base, int64_t offsetNanos)
{
    FlatEvent out = fe;
    out.event.id += base;
    if (!out.event.remoteParent && out.event.parent != 0)
        out.event.parent += base;
    int64_t ts = static_cast<int64_t>(out.event.ts) + offsetNanos;
    out.event.ts = ts < 0 ? 0 : static_cast<TimeNanos>(ts);
    return out;
}

constexpr uint64_t kForeignIdBase = uint64_t{1} << 32;

struct PidEvent
{
    FlatEvent fe;
    uint32_t pid;
};

void
emitEvent(std::ofstream &out, const FlatEvent &fe, uint32_t pid,
          bool &first)
{
    const TraceEvent &e = fe.event;
    if (!first)
        out << ",\n";
    first = false;
    char line[192];
    double ts_us = static_cast<double>(e.ts) / 1000.0;
    if (e.phase == 'E') {
        std::snprintf(line, sizeof(line),
                      "{\"ph\":\"E\",\"pid\":%u,\"tid\":%u,"
                      "\"ts\":%.3f}",
                      pid, fe.tid, ts_us);
        out << line;
        return;
    }
    std::snprintf(line, sizeof(line),
                  "{\"ph\":\"%c\",\"pid\":%u,\"tid\":%u,\"ts\":%.3f,",
                  e.phase == 'i' ? 'i' : 'B', pid, fe.tid, ts_us);
    out << line << "\"cat\":\"" << jsonEscape(e.category)
        << "\",\"name\":\"" << jsonEscape(e.name) << "\"";
    if (e.phase == 'i')
        out << ",\"s\":\"t\"";
    out << ",\"args\":{\"id\":" << e.id << ",\"parent\":" << e.parent;
    if (e.remoteParent)
        out << ",\"remote_parent\":true";
    if (!e.traceId.empty())
        out << ",\"trace_id\":\"" << e.traceId << "\"";
    if (!e.detail.empty())
        out << ",\"detail\":\"" << jsonEscape(e.detail) << "\"";
    out << "}}";
}

void
emitProcessName(std::ofstream &out, uint32_t pid, const std::string &name,
                bool &first)
{
    if (!first)
        out << ",\n";
    first = false;
    out << "{\"ph\":\"M\",\"pid\":" << pid
        << ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\""
        << jsonEscape(name) << "\"}}";
}

void
sortForExport(std::vector<PidEvent> &all)
{
    // Global timestamp order (stable within a (pid, tid) track):
    // chrome://tracing accepts any order but monotonic ts makes the
    // file diff- and jq-checkable.  Per-track B/E nesting survives the
    // sort because within one track the order is already nested and
    // ts-monotonic.
    std::stable_sort(all.begin(), all.end(),
                     [](const PidEvent &a, const PidEvent &b) {
                         if (a.fe.event.ts != b.fe.event.ts)
                             return a.fe.event.ts < b.fe.event.ts;
                         if (a.pid != b.pid)
                             return a.pid < b.pid;
                         if (a.fe.tid != b.fe.tid)
                             return a.fe.tid < b.fe.tid;
                         return a.fe.seq < b.fe.seq;
                     });
}

} // namespace

bool
writeChromeTrace(const std::string &path)
{
    std::vector<FlatEvent> flat = snapshotTraceEvents();
    std::vector<PidEvent> all;
    all.reserve(flat.size());
    for (FlatEvent &fe : flat)
        all.push_back(PidEvent{std::move(fe), 1});
    sortForExport(all);

    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << "{\"traceEvents\":[\n";
    bool first = true;
    for (const PidEvent &pe : all)
        emitEvent(out, pe.fe, pe.pid, first);
    out << "\n]}\n";
    return static_cast<bool>(out);
}

bool
writeMergedChromeTrace(const std::string &path,
                       const std::vector<FlatEvent> &local,
                       const std::vector<ForeignSpans> &foreign)
{
    std::vector<PidEvent> all;
    for (const FlatEvent &fe : withoutRemoteRooted(local))
        all.push_back(PidEvent{fe, 1});
    for (size_t i = 0; i < foreign.size(); ++i) {
        uint64_t base = kForeignIdBase * (i + 1);
        uint32_t pid = static_cast<uint32_t>(i + 2);
        for (const FlatEvent &fe : foreign[i].events)
            all.push_back(PidEvent{
                remapForeign(fe, base, foreign[i].clockOffsetNanos),
                pid});
    }
    sortForExport(all);

    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << "{\"traceEvents\":[\n";
    bool first = true;
    emitProcessName(out, 1, "coordinator", first);
    for (size_t i = 0; i < foreign.size(); ++i)
        emitProcessName(out, static_cast<uint32_t>(i + 2),
                        foreign[i].process.empty()
                            ? "worker " + std::to_string(i)
                            : foreign[i].process,
                        first);
    for (const PidEvent &pe : all)
        emitEvent(out, pe.fe, pe.pid, first);
    out << "\n]}\n";
    return static_cast<bool>(out);
}

namespace {

struct SigNode
{
    std::string label;
    std::vector<const SigNode *> children;
};

std::string
renderNode(const SigNode &node)
{
    std::vector<std::string> rendered;
    rendered.reserve(node.children.size());
    for (const SigNode *child : node.children)
        rendered.push_back(renderNode(*child));
    std::sort(rendered.begin(), rendered.end());
    std::string out = node.label;
    if (!rendered.empty()) {
        out += "(";
        for (size_t i = 0; i < rendered.size(); ++i) {
            if (i)
                out += ",";
            out += rendered[i];
        }
        out += ")";
    }
    return out;
}

} // namespace

std::string
spanTreeSignature(const std::vector<FlatEvent> &events)
{
    std::map<SpanId, SigNode> nodes;
    std::vector<std::pair<SpanId, SpanId>> links; ///< (child, parent)
    for (const FlatEvent &fe : events) {
        const TraceEvent &e = fe.event;
        if (e.phase == 'E')
            continue;
        SigNode &node = nodes[e.id];
        node.label = std::string(e.category) + ":" + e.name;
        if (!e.detail.empty())
            node.label += "[" + e.detail + "]";
        links.emplace_back(e.id, e.parent);
    }
    std::vector<const SigNode *> roots;
    for (const auto &[child, parent] : links) {
        auto it = nodes.find(parent);
        if (parent != 0 && it != nodes.end())
            it->second.children.push_back(&nodes.at(child));
        else
            roots.push_back(&nodes.at(child));
    }
    std::vector<std::string> rendered;
    rendered.reserve(roots.size());
    for (const SigNode *root : roots)
        rendered.push_back(renderNode(*root));
    std::sort(rendered.begin(), rendered.end());
    std::ostringstream os;
    for (const std::string &r : rendered)
        os << r << "\n";
    return os.str();
}

std::string
spanTreeSignature()
{
    return spanTreeSignature(snapshotTraceEvents());
}

namespace {

/**
 * Restrict the signed tree to the STRUCTURAL span categories before
 * signing: batch -> job -> solver stages -> segment evolution and
 * sampling.  Everything else a worker records is work that an
 * artifact-cache hit can skip entirely -- the RASENGAN_PROF kernel
 * hooks, transpile, transition-set construction, nullspace solves --
 * and the caches are per-worker-process, so whether those spans exist
 * depends on how jobs were partitioned.  They stay in the merged TRACE at
 * full fidelity; they are just not part of the partition-invariance
 * claim the signature makes.
 */
bool
isSignatureCategory(const char *category)
{
    static constexpr std::string_view kKeep[] = {
        "cluster", "serve", "solver", "sample", "segment-evolve"};
    for (std::string_view keep : kKeep)
        if (keep == category)
            return true;
    return false;
}

std::vector<FlatEvent>
onlySignatureCategories(const std::vector<FlatEvent> &events)
{
    std::map<SpanId, SpanId> parentOf;
    std::map<SpanId, bool> excluded;
    for (const FlatEvent &fe : events) {
        if (fe.event.phase == 'E')
            continue;
        parentOf[fe.event.id] = fe.event.parent;
        excluded[fe.event.id] = !isSignatureCategory(fe.event.category);
    }
    // A span survives only when it AND every ancestor are structural,
    // so pruning a span never promotes its children to roots.
    auto inExcludedSubtree = [&](SpanId id) {
        for (size_t hops = 0; hops < parentOf.size() + 1; ++hops) {
            auto k = excluded.find(id);
            if (k == excluded.end())
                return false;
            if (k->second)
                return true;
            id = parentOf[id];
        }
        return false; // parent cycle (malformed input): keep the span
    };
    std::vector<FlatEvent> kept;
    kept.reserve(events.size());
    for (const FlatEvent &fe : events) {
        if (fe.event.phase != 'E' && inExcludedSubtree(fe.event.id))
            continue;
        kept.push_back(fe);
    }
    return kept;
}

} // namespace

std::string
mergedSpanTreeSignature(const std::vector<FlatEvent> &local,
                        const std::vector<ForeignSpans> &foreign)
{
    std::vector<FlatEvent> merged = withoutRemoteRooted(local);
    for (size_t i = 0; i < foreign.size(); ++i) {
        uint64_t base = kForeignIdBase * (i + 1);
        for (const FlatEvent &fe : foreign[i].events)
            merged.push_back(
                remapForeign(fe, base, foreign[i].clockOffsetNanos));
    }
    return spanTreeSignature(onlySignatureCategories(merged));
}

} // namespace rasengan::obs
