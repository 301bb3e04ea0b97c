#include "obs/flight.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "obs/metrics.h"

namespace rasengan::obs::flight {

namespace detail {

std::atomic<bool> flightOn{false};

} // namespace detail

namespace {

struct Slot
{
    /** Seqlock: odd while being written; even values are unique and
     *  increase with every publication, so a reader detects both
     *  "mid-write" and "overwritten under me". */
    std::atomic<uint64_t> seq{0};
    uint32_t len = 0;
    char text[kSlotTextBytes];
};

struct Ring
{
    size_t capacity = 0;
    Slot *slots = nullptr;
    std::atomic<uint64_t> head{0};      ///< entries ever claimed
    std::atomic<uint64_t> truncated{0}; ///< entries cut to the slot size
    std::atomic<uint64_t> contended{0}; ///< entries lost to a slot race
};

/** Leaked on purpose: fatal-signal handlers may outlive static dtors. */
Ring g_ring;

std::atomic<bool> g_handlersInstalled{false};

/** Dump target path; fixed storage so the handler never allocates. */
char g_dumpPath[4096] = {0};

/** Re-entrancy latch: a crash inside dump() must not recurse forever. */
std::atomic<bool> g_dumping{false};

/**
 * Append @p raw to @p out (capacity @p cap, current length @p len),
 * JSON-escaped, stopping when full.  Returns false when truncated.
 */
bool
appendEscaped(char *out, size_t cap, size_t &len, const char *raw,
              size_t rawLen)
{
    size_t i = 0;
    while (i < rawLen) {
        // Clean run first: the common case is a whole value with
        // nothing to escape (interned category/name strings, k=v
        // detail tails), which is one scan + one memcpy instead of a
        // per-byte append -- this sits on the every-span record path.
        size_t run = i;
        while (run < rawLen) {
            unsigned char c = static_cast<unsigned char>(raw[run]);
            if (c < 0x20 || c == '"' || c == '\\')
                break;
            ++run;
        }
        if (run > i) {
            size_t n = run - i;
            if (len + n > cap) {
                n = cap - len;
                std::memcpy(out + len, raw + i, n);
                len += n;
                return false;
            }
            std::memcpy(out + len, raw + i, n);
            len += n;
            i = run;
            continue;
        }
        char c = raw[i];
        const char *rep = " "; // other control bytes: keep the JSON valid
        size_t repLen = 1;
        switch (c) {
          case '\\': rep = "\\\\"; repLen = 2; break;
          case '"': rep = "\\\""; repLen = 2; break;
          case '\n': rep = "\\n"; repLen = 2; break;
          case '\t': rep = "\\t"; repLen = 2; break;
          case '\r': rep = "\\r"; repLen = 2; break;
          default: break;
        }
        if (len + repLen > cap)
            return false;
        std::memcpy(out + len, rep, repLen);
        len += repLen;
        ++i;
    }
    return true;
}

bool
appendRaw(char *out, size_t cap, size_t &len, const char *raw)
{
    size_t rawLen = std::strlen(raw);
    if (len + rawLen > cap)
        return false;
    std::memcpy(out + len, raw, rawLen);
    len += rawLen;
    return true;
}

/** Decimal u64 rendering without stdio (shared with the signal path). */
size_t
fmtU64(char *out, uint64_t v)
{
    char rev[20];
    size_t n = 0;
    do {
        rev[n++] = static_cast<char>('0' + v % 10);
        v /= 10;
    } while (v != 0);
    for (size_t i = 0; i < n; ++i)
        out[i] = rev[n - 1 - i];
    return n;
}

bool
appendU64(char *out, size_t cap, size_t &len, uint64_t v)
{
    char digits[20];
    size_t n = fmtU64(digits, v);
    if (len + n > cap)
        return false;
    std::memcpy(out + len, digits, n);
    len += n;
    return true;
}

Counter &
overwrittenCounter()
{
    static Counter &c = Registry::global().counter(
        "obs_flight_dropped_total",
        "Flight-recorder entries overwritten by ring wrap or lost to a "
        "concurrent writer of the same slot");
    return c;
}

/** Publish the formatted entry @p text (length @p len) into the ring. */
void
publish(const char *text, size_t len, bool truncated)
{
    if (!enabled() || g_ring.slots == nullptr)
        return;
    uint64_t idx = g_ring.head.fetch_add(1, std::memory_order_relaxed);
    if (idx >= g_ring.capacity)
        overwrittenCounter().inc();
    if (truncated)
        g_ring.truncated.fetch_add(1, std::memory_order_relaxed);
    Slot &slot = g_ring.slots[idx % g_ring.capacity];
    // Odd seq marks the write window; the final store is keyed to idx
    // so every publication of this slot carries a distinct even value.
    // Writers whose indices differ by the capacity share the slot: one
    // claims it with a CAS from an older even value, and a writer that
    // finds it mid-write or already newer drops its entry.
    uint64_t seen = slot.seq.load(std::memory_order_acquire);
    if ((seen & 1) != 0 || seen > 2 * idx ||
        !slot.seq.compare_exchange_strong(seen, 2 * idx + 1,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
        g_ring.contended.fetch_add(1, std::memory_order_relaxed);
        overwrittenCounter().inc();
        return;
    }
    slot.len = static_cast<uint32_t>(len);
    std::memcpy(slot.text, text, len);
    slot.seq.store(2 * idx + 2, std::memory_order_release);
}

/**
 * Format the common entry prefix: {"t":<ns>,"k":"<kind>".  Returns the
 * running length.
 */
size_t
beginEntry(char *buf, size_t cap, const char *kind)
{
    size_t len = 0;
    appendRaw(buf, cap, len, "{\"t\":");
    appendU64(buf, cap, len, nowNanos());
    appendRaw(buf, cap, len, ",\"k\":\"");
    appendRaw(buf, cap, len, kind);
    appendRaw(buf, cap, len, "\"");
    return len;
}

/** Close the entry with '}', reserving space for it up front. */
bool
endEntry(char *buf, size_t cap, size_t &len)
{
    return appendRaw(buf, cap, len, "}");
}

void
record2(const char *kind, const char *f1, const char *v1, const char *f2,
        const char *v2, const std::string &detail, bool withDur,
        TimeNanos dur)
{
    // One byte of slack for the closing brace keeps truncated entries
    // valid JSON: we only ever cut the detail string.
    char buf[kSlotTextBytes];
    const size_t cap = sizeof(buf) - 1;
    size_t len = beginEntry(buf, cap, kind);
    bool fit = true;
    if (f1 != nullptr) {
        appendRaw(buf, cap, len, ",\"");
        appendRaw(buf, cap, len, f1);
        appendRaw(buf, cap, len, "\":\"");
        fit &= appendEscaped(buf, cap, len, v1, std::strlen(v1));
        appendRaw(buf, cap, len, "\"");
    }
    if (f2 != nullptr) {
        appendRaw(buf, cap, len, ",\"");
        appendRaw(buf, cap, len, f2);
        appendRaw(buf, cap, len, "\":\"");
        fit &= appendEscaped(buf, cap, len, v2, std::strlen(v2));
        appendRaw(buf, cap, len, "\"");
    }
    if (withDur) {
        appendRaw(buf, cap, len, ",\"dur_ns\":");
        appendU64(buf, cap, len, dur);
    }
    if (!detail.empty()) {
        // Leave room to close the string even when the detail truncates.
        if (appendRaw(buf, cap - 1, len, ",\"detail\":\"")) {
            fit &= appendEscaped(buf, cap - 1, len, detail.data(),
                                 detail.size());
            // A trailing lone backslash from a cut escape would break
            // the JSON; drop it.
            if (len > 0 && buf[len - 1] == '\\')
                --len;
            appendRaw(buf, cap, len, "\"");
        } else {
            fit = false;
        }
    }
    endEntry(buf, sizeof(buf), len);
    publish(buf, len, !fit);
}

/** The logging tap: every warn/inform/panic/fatal line lands here. */
void
logTap(const char *level, const char *text, size_t len)
{
    recordLog(level, text, len);
}

extern "C" void
flightSignalHandler(int sig)
{
    bool expected = false;
    if (g_dumping.compare_exchange_strong(expected, true)) {
        dumpToConfigured();
        g_dumping.store(false);
    }
    if (sig == SIGQUIT)
        return; // operator probe: keep running
    // Fatal signal: hand back to the default disposition so the crash
    // still produces its core/exit status.
    ::signal(sig, SIG_DFL);
    ::raise(sig);
}

/** write(2) everything, riding out EINTR (signal-safe). */
void
writeAllFd(int fd, const char *data, size_t n)
{
    size_t off = 0;
    while (off < n) {
        ssize_t w = ::write(fd, data + off, n - off);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return;
        }
        off += static_cast<size_t>(w);
    }
}

void
writeU64Fd(int fd, uint64_t v)
{
    char digits[20];
    writeAllFd(fd, digits, fmtU64(digits, v));
}

void
writeStrFd(int fd, const char *s)
{
    writeAllFd(fd, s, std::strlen(s));
}

} // namespace

namespace {

/** Set by configure()/disable(): an explicit on/off decision exists. */
std::atomic<bool> g_explicit{false};

} // namespace

void
configure(size_t entries)
{
    g_explicit.store(true, std::memory_order_relaxed);
    if (g_ring.slots == nullptr) {
        if (entries < 16)
            entries = 16;
        if (entries > (size_t{1} << 16))
            entries = size_t{1} << 16;
        g_ring.capacity = entries;
        g_ring.slots = new Slot[entries]; // leaked: see header
    }
    detail::flightOn.store(true, std::memory_order_relaxed);
    setLogTap(&logTap);
}

void
disable()
{
    g_explicit.store(true, std::memory_order_relaxed);
    detail::flightOn.store(false, std::memory_order_relaxed);
}

bool
explicitlyConfigured()
{
    return g_explicit.load(std::memory_order_relaxed);
}

bool
configureFromSpec(const std::string &value, bool defaultOn)
{
    if (value.empty()) {
        if (defaultOn)
            configure();
        return defaultOn;
    }
    if (value == "0" || value == "off" || value == "OFF") {
        disable();
        return false;
    }
    if (value.find('/') != std::string::npos) {
        configure();
        setDumpPath(value);
        return true;
    }
    char *end = nullptr;
    unsigned long long n = std::strtoull(value.c_str(), &end, 10);
    if (end != value.c_str() && *end == '\0' && n > 1) {
        configure(static_cast<size_t>(n));
        return true;
    }
    configure(); // "1", "on", anything else affirmative
    return true;
}

bool
configureFromEnv(bool defaultOn)
{
    const char *env = std::getenv("RASENGAN_FLIGHT");
    return configureFromSpec(env ? env : "", defaultOn);
}

void
setDumpPath(const std::string &path)
{
    size_t n = path.size();
    if (n >= sizeof(g_dumpPath))
        n = sizeof(g_dumpPath) - 1;
    std::memcpy(g_dumpPath, path.data(), n);
    g_dumpPath[n] = '\0';
}

std::string
dumpPath()
{
    return g_dumpPath;
}

void
installSignalHandlers()
{
    bool expected = false;
    if (!g_handlersInstalled.compare_exchange_strong(expected, true))
        return;
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = &flightSignalHandler;
    sigemptyset(&sa.sa_mask);
    ::sigaction(SIGQUIT, &sa, nullptr);
    for (int sig : {SIGSEGV, SIGBUS, SIGFPE, SIGILL, SIGABRT})
        ::sigaction(sig, &sa, nullptr);
}

void
recordSpan(const char *category, const char *name,
           const std::string &detail, TimeNanos durationNanos)
{
    if (!enabled())
        return;
    record2("span", "cat", category, "name", name, detail, true,
            durationNanos);
}

void
recordInstant(const char *category, const char *name,
              const std::string &detail)
{
    if (!enabled())
        return;
    record2("instant", "cat", category, "name", name, detail, false, 0);
}

void
recordLog(const char *level, const char *text, size_t len)
{
    if (!enabled())
        return;
    record2("log", "level", level, nullptr, nullptr,
            std::string(text, len), false, 0);
}

void
note(const char *kind, const std::string &text)
{
    if (!enabled())
        return;
    record2(kind, nullptr, nullptr, nullptr, nullptr, text, false, 0);
}

size_t
dump(int fd)
{
    if (g_ring.slots == nullptr) {
        writeStrFd(fd, "{\"flight\":{\"recorded\":0},\"events\":[]}\n");
        return 0;
    }
    uint64_t head = g_ring.head.load(std::memory_order_acquire);
    uint64_t first = head > g_ring.capacity ? head - g_ring.capacity : 0;

    writeStrFd(fd, "{\"flight\":{\"recorded\":");
    writeU64Fd(fd, head);
    writeStrFd(fd, ",\"dropped\":");
    writeU64Fd(fd, droppedCount());
    writeStrFd(fd, ",\"truncated\":");
    writeU64Fd(fd, g_ring.truncated.load(std::memory_order_relaxed));
    writeStrFd(fd, ",\"capacity\":");
    writeU64Fd(fd, g_ring.capacity);
    writeStrFd(fd, "},\"events\":[");

    size_t written = 0;
    for (uint64_t idx = first; idx < head; ++idx) {
        Slot &slot = g_ring.slots[idx % g_ring.capacity];
        uint64_t before = slot.seq.load(std::memory_order_acquire);
        if (before != 2 * idx + 2)
            continue; // mid-write or already overwritten: skip
        char copy[kSlotTextBytes];
        uint32_t len = slot.len;
        if (len > sizeof(copy))
            continue;
        std::memcpy(copy, slot.text, len);
        if (slot.seq.load(std::memory_order_acquire) != before)
            continue; // overwritten while copying
        writeStrFd(fd, written == 0 ? "\n" : ",\n");
        writeAllFd(fd, copy, len);
        ++written;
    }
    writeStrFd(fd, "\n]}\n");
    return written;
}

size_t
dumpToConfigured()
{
    int fd = 2;
    bool opened = false;
    if (g_dumpPath[0] != '\0') {
        int f = ::open(g_dumpPath, O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (f >= 0) {
            fd = f;
            opened = true;
        }
    }
    size_t n = dump(fd);
    if (opened)
        ::close(fd);
    return n;
}

std::string
renderJson()
{
    // Same layout as dump(), but built in memory (the daemon serves it
    // over HTTP; no signal-safety needed here).
    std::string out = "{\"flight\":{\"recorded\":";
    uint64_t head =
        g_ring.slots ? g_ring.head.load(std::memory_order_acquire) : 0;
    uint64_t first =
        (g_ring.slots && head > g_ring.capacity) ? head - g_ring.capacity
                                                 : 0;
    out += std::to_string(head);
    out += ",\"dropped\":" + std::to_string(droppedCount());
    out += ",\"truncated\":" +
           std::to_string(
               g_ring.slots
                   ? g_ring.truncated.load(std::memory_order_relaxed)
                   : 0);
    out += ",\"capacity\":" + std::to_string(g_ring.capacity);
    out += "},\"events\":[";
    size_t written = 0;
    for (uint64_t idx = first; idx < head; ++idx) {
        Slot &slot = g_ring.slots[idx % g_ring.capacity];
        uint64_t before = slot.seq.load(std::memory_order_acquire);
        if (before != 2 * idx + 2)
            continue;
        char copy[kSlotTextBytes];
        uint32_t len = slot.len;
        if (len > sizeof(copy))
            continue;
        std::memcpy(copy, slot.text, len);
        if (slot.seq.load(std::memory_order_acquire) != before)
            continue;
        out += written == 0 ? "\n" : ",\n";
        out.append(copy, len);
        ++written;
    }
    out += "\n]}\n";
    return out;
}

uint64_t
droppedCount()
{
    if (g_ring.slots == nullptr)
        return 0;
    uint64_t head = g_ring.head.load(std::memory_order_relaxed);
    return (head > g_ring.capacity ? head - g_ring.capacity : 0) +
           g_ring.contended.load(std::memory_order_relaxed);
}

uint64_t
truncatedCount()
{
    return g_ring.slots == nullptr
               ? 0
               : g_ring.truncated.load(std::memory_order_relaxed);
}

uint64_t
recordedCount()
{
    return g_ring.slots == nullptr
               ? 0
               : g_ring.head.load(std::memory_order_relaxed);
}

void
resetForTest()
{
    if (g_ring.slots == nullptr)
        return;
    g_ring.head.store(0, std::memory_order_relaxed);
    g_ring.truncated.store(0, std::memory_order_relaxed);
    g_ring.contended.store(0, std::memory_order_relaxed);
    for (size_t i = 0; i < g_ring.capacity; ++i)
        g_ring.slots[i].seq.store(0, std::memory_order_relaxed);
}

} // namespace rasengan::obs::flight
