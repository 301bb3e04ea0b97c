#include "cluster/protocol.h"

#include <cstdlib>

#include "serve/jsonl.h"

namespace rasengan::cluster {

std::string
frame(const std::string &payload)
{
    std::string out = std::to_string(payload.size());
    out += '\n';
    out += payload;
    out += '\n';
    return out;
}

void
FrameDecoder::poison(const std::string &why)
{
    corrupt_ = true;
    corruptReason_ = why;
    buffer_.clear();
    buffer_.shrink_to_fit();
    start_ = 0;
}

void
FrameDecoder::feed(const char *data, size_t n)
{
    if (corrupt_)
        return;
    // The header is tiny, so the only way the buffer can grow past the
    // cap is a payload a sane header promised; still, bound the header
    // scan so a peer streaming digits forever cannot balloon memory.
    buffer_.append(data, n);
}

bool
FrameDecoder::next(std::string &payload)
{
    if (corrupt_)
        return false;

    // Compact the consumed prefix once it dominates the buffer.
    if (start_ > 4096 && start_ > buffer_.size() / 2) {
        buffer_.erase(0, start_);
        start_ = 0;
    }

    // Parse the length header.
    size_t pos = start_;
    uint64_t length = 0;
    size_t digits = 0;
    while (pos < buffer_.size()) {
        char c = buffer_[pos];
        if (c == '\n')
            break;
        if (c < '0' || c > '9') {
            poison("non-digit in frame length header");
            return false;
        }
        length = length * 10 + static_cast<uint64_t>(c - '0');
        if (++digits > 10 || length > maxFrameBytes_) {
            poison("frame length " + std::to_string(length) +
                   " exceeds the cap " + std::to_string(maxFrameBytes_));
            return false;
        }
        ++pos;
    }
    if (pos >= buffer_.size()) {
        if (digits > 10) {
            poison("unterminated frame length header");
            return false;
        }
        return false; // header incomplete; need more bytes
    }
    if (digits == 0) {
        poison("empty frame length header");
        return false;
    }
    ++pos; // consume the header newline

    // Payload + its trailing newline.
    if (buffer_.size() - pos < length + 1)
        return false; // need more bytes
    if (buffer_[pos + length] != '\n') {
        poison("frame payload not terminated by newline");
        return false;
    }
    payload.assign(buffer_, pos, length);
    start_ = pos + length + 1;
    ++framesDecoded_;
    return true;
}

namespace {

MessageParseResult
fail(const std::string &why)
{
    MessageParseResult r;
    r.error = why;
    return r;
}

const serve::JsonValue *
field(const serve::JsonObject &obj, const char *key)
{
    auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
}

bool
strField(const serve::JsonObject &obj, const char *key, std::string *out)
{
    const serve::JsonValue *v = field(obj, key);
    if (v == nullptr || v->kind != serve::JsonValue::Kind::String)
        return false;
    *out = v->str;
    return true;
}

bool
u64Field(const serve::JsonObject &obj, const char *key, uint64_t *out)
{
    const serve::JsonValue *v = field(obj, key);
    if (v == nullptr || v->kind != serve::JsonValue::Kind::Number ||
        v->num < 0)
        return false;
    *out = static_cast<uint64_t>(v->num);
    return true;
}

bool
boolField(const serve::JsonObject &obj, const char *key, bool *out)
{
    const serve::JsonValue *v = field(obj, key);
    if (v == nullptr || v->kind != serve::JsonValue::Kind::Bool)
        return false;
    *out = v->flag;
    return true;
}

bool
intField(const serve::JsonObject &obj, const char *key, int *out)
{
    const serve::JsonValue *v = field(obj, key);
    if (v == nullptr || v->kind != serve::JsonValue::Kind::Number)
        return false;
    *out = static_cast<int>(v->num);
    return true;
}

// Seeds are full 64-bit values; JSON numbers are doubles (exact only to
// 2^53), so they cross the wire as decimal strings.
bool
u64StrField(const serve::JsonObject &obj, const char *key, uint64_t *out)
{
    std::string text;
    if (!strField(obj, key, &text) || text.empty())
        return false;
    uint64_t v = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + static_cast<uint64_t>(c - '0');
    }
    *out = v;
    return true;
}

} // namespace

std::string
encodeMessage(const Message &msg)
{
    serve::JsonWriter w;
    w.field("type", msg.type);
    if (msg.type == "hello") {
        w.field("version", msg.version);
        w.field("worker", msg.worker);
        w.field("batch_seed", std::to_string(msg.batchSeed));
        w.field("threads", msg.threads);
        w.field("cache_bytes", msg.cacheBudgetBytes);
        if (!msg.fault.empty())
            w.field("fault", msg.fault);
        if (msg.traceSpans) {
            w.boolean("trace", true);
            w.field("trace_parent", std::to_string(msg.traceParent));
        }
    } else if (msg.type == "hello_ack") {
        w.field("version", msg.version);
        w.field("worker", msg.worker);
        w.field("now", std::to_string(msg.now));
    } else if (msg.type == "job") {
        w.field("index", msg.index);
        w.field("request", msg.request);
    } else if (msg.type == "run") {
        w.field("jobs", msg.jobs);
    } else if (msg.type == "result") {
        w.field("index", msg.index);
        w.field("result", msg.result);
        w.field("telemetry", msg.telemetry);
    } else if (msg.type == "batch_done") {
        w.field("jobs", msg.jobs);
        w.field("cache_hits", msg.cacheHits);
        w.field("cache_misses", msg.cacheMisses);
        w.field("cache_evictions", msg.cacheEvictions);
        w.field("cache_bytes_in_use", msg.cacheBytesInUse);
        if (!msg.metrics.empty())
            w.field("metrics", msg.metrics);
        if (!msg.spans.empty())
            w.field("spans", msg.spans);
        if (msg.spansDropped != 0)
            w.field("spans_dropped", msg.spansDropped);
    }
    // "drain" and "bye" carry only the type.
    return w.str();
}

MessageParseResult
parseMessage(const std::string &payload)
{
    serve::JsonParseResult parsed = serve::parseFlatJson(payload);
    if (!parsed.ok)
        return fail("frame payload: " + parsed.error);
    const serve::JsonObject &obj = parsed.object;

    MessageParseResult out;
    Message &msg = out.msg;
    if (!strField(obj, "type", &msg.type))
        return fail("frame payload has no type");

    if (msg.type == "hello") {
        if (!intField(obj, "version", &msg.version) ||
            !intField(obj, "worker", &msg.worker) ||
            !u64StrField(obj, "batch_seed", &msg.batchSeed) ||
            !intField(obj, "threads", &msg.threads) ||
            !u64Field(obj, "cache_bytes", &msg.cacheBudgetBytes))
            return fail("hello is missing a required field");
        strField(obj, "fault", &msg.fault); // optional
        if (boolField(obj, "trace", &msg.traceSpans) && msg.traceSpans) {
            if (!u64StrField(obj, "trace_parent", &msg.traceParent))
                return fail("hello trace is missing trace_parent");
        }
    } else if (msg.type == "hello_ack") {
        if (!intField(obj, "version", &msg.version) ||
            !intField(obj, "worker", &msg.worker) ||
            !u64StrField(obj, "now", &msg.now))
            return fail("hello_ack is missing a required field");
    } else if (msg.type == "job") {
        if (!u64Field(obj, "index", &msg.index) ||
            !strField(obj, "request", &msg.request))
            return fail("job is missing a required field");
    } else if (msg.type == "run") {
        if (!u64Field(obj, "jobs", &msg.jobs))
            return fail("run is missing the job count");
    } else if (msg.type == "result") {
        if (!u64Field(obj, "index", &msg.index) ||
            !strField(obj, "result", &msg.result) ||
            !strField(obj, "telemetry", &msg.telemetry))
            return fail("result is missing a required field");
    } else if (msg.type == "batch_done") {
        if (!u64Field(obj, "jobs", &msg.jobs))
            return fail("batch_done is missing the job count");
        u64Field(obj, "cache_hits", &msg.cacheHits);
        u64Field(obj, "cache_misses", &msg.cacheMisses);
        u64Field(obj, "cache_evictions", &msg.cacheEvictions);
        u64Field(obj, "cache_bytes_in_use", &msg.cacheBytesInUse);
        strField(obj, "metrics", &msg.metrics);
        strField(obj, "spans", &msg.spans);
        u64Field(obj, "spans_dropped", &msg.spansDropped);
    } else if (msg.type == "drain" || msg.type == "bye") {
        // type-only messages
    } else {
        return fail("unknown message type \"" + msg.type + "\"");
    }
    out.ok = true;
    return out;
}

size_t
maxFrameBytesFromEnv()
{
    const char *env = std::getenv("RASENGAN_CLUSTER_MAX_FRAME");
    if (env == nullptr || *env == '\0')
        return kDefaultMaxFrameBytes;
    char *end = nullptr;
    unsigned long long v = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0' || v < 4096)
        return kDefaultMaxFrameBytes;
    return static_cast<size_t>(v);
}

} // namespace rasengan::cluster
