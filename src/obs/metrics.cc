#include "obs/metrics.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/logging.h"
#include "obs/json.h"

namespace rasengan::obs {

namespace {

/** Shortest round-trip double rendering (matches the serve JSONL style). */
std::string
fmtDouble(double v)
{
    if (std::isnan(v))
        return "NaN";
    if (std::isinf(v))
        return v > 0 ? "+Inf" : "-Inf";
    char buf[64];
    // Integral values read better as integers than as the shortest
    // round-tripping %g form (50 -> "50", not "5e+01").
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return buf;
    }
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    double parsed = 0.0;
    std::sscanf(buf, "%lf", &parsed);
    for (int prec = 1; prec <= 16; ++prec) {
        char shorter[64];
        std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
        std::sscanf(shorter, "%lf", &parsed);
        if (parsed == v)
            return shorter;
    }
    return buf;
}

/** Rendered label set: {a="x",b="y"} or "" when empty. */
std::string
renderLabels(const Labels &labels)
{
    if (labels.empty())
        return "";
    std::string out = "{";
    bool first = true;
    for (const auto &[k, v] : labels) {
        if (!first)
            out += ",";
        first = false;
        out += k + "=\"" + promEscapeLabelValue(v) + "\"";
    }
    out += "}";
    return out;
}

/** Label set with extra pairs appended (histogram `le` buckets). */
std::string
renderLabelsWith(const Labels &labels, const std::string &key,
                 const std::string &value)
{
    Labels merged = labels;
    merged[key] = value;
    return renderLabels(merged);
}

} // namespace

int
Histogram::bucketFor(double v)
{
    if (!(v > 0.0))
        return 0;
    int exp = 0;
    const double m = std::frexp(v, &exp);
    // frexp: v = m * 2^exp with m in [0.5, 1).  The smallest
    // power-of-two upper bound with le (inclusive) semantics is 2^exp,
    // except when v is itself a power of two (m == 0.5): then
    // v == 2^(exp-1) and belongs in that tighter bucket.
    if (m == 0.5)
        --exp;
    int k = exp - kMinExp;
    if (k < 0)
        return 0;
    if (k > kBuckets - 1)
        return kBuckets - 1;
    return k;
}

void
Histogram::observe(double v)
{
    buckets_[static_cast<size_t>(bucketFor(v))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.add(v);
}

double
Histogram::quantileUpperBound(double q) const
{
    uint64_t total = count();
    if (total == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(q * static_cast<double>(total)));
    if (rank == 0)
        rank = 1;
    uint64_t seen = 0;
    for (int k = 0; k < kBuckets; ++k) {
        seen += bucketCount(k);
        if (seen >= rank) {
            return k == kBuckets - 1
                       ? std::numeric_limits<double>::infinity()
                       : bucketUpperBound(k);
        }
    }
    return std::numeric_limits<double>::infinity();
}

void
Histogram::importSnapshot(const std::array<uint64_t, kBuckets> &counts,
                          double sum, uint64_t count)
{
    for (int k = 0; k < kBuckets; ++k)
        buckets_[static_cast<size_t>(k)].store(
            counts[static_cast<size_t>(k)], std::memory_order_relaxed);
    sum_.set(sum);
    count_.store(count, std::memory_order_relaxed);
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.reset();
}

Registry &
Registry::global()
{
    static Registry *registry = new Registry(); // never destroyed: call
    return *registry; // sites cache references past static teardown
}

Registry::Instrument &
Registry::findOrCreate(Kind kind, const std::string &name,
                       const std::string &help, Labels labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    InstrumentKey key{name, renderLabels(labels)};
    auto it = instruments_.find(key);
    if (it != instruments_.end()) {
        // A (name, labels) pair is bound to one kind for the process
        // lifetime.  Dereferencing the wrong member would be a null
        // unique_ptr; make the programming error loud instead.
        panic_if(it->second->kind != kind,
                 "metric \"{}\" re-registered with a different kind",
                 name);
        return *it->second;
    }
    auto inst = std::make_unique<Instrument>();
    inst->kind = kind;
    inst->name = name;
    inst->help = help;
    inst->labels = std::move(labels);
    switch (kind) {
      case Kind::Counter:
        inst->counter = std::make_unique<Counter>();
        break;
      case Kind::Gauge:
        inst->gauge = std::make_unique<Gauge>();
        break;
      case Kind::Histogram:
        inst->histogram = std::make_unique<Histogram>();
        break;
    }
    auto [pos, inserted] = instruments_.emplace(key, std::move(inst));
    (void)inserted;
    return *pos->second;
}

Counter &
Registry::counter(const std::string &name, const std::string &help,
                  Labels labels)
{
    return *findOrCreate(Kind::Counter, name, help, std::move(labels))
                .counter;
}

Gauge &
Registry::gauge(const std::string &name, const std::string &help,
                Labels labels)
{
    return *findOrCreate(Kind::Gauge, name, help, std::move(labels)).gauge;
}

Histogram &
Registry::histogram(const std::string &name, const std::string &help,
                    Labels labels)
{
    return *findOrCreate(Kind::Histogram, name, help, std::move(labels))
                .histogram;
}

namespace {

/** The derived quantile exports share one suffix/q table. */
constexpr std::pair<const char *, double> kQuantileExports[] = {
    {"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}};

} // namespace

std::string
Registry::promText() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    // Derived per-histogram quantile gauges are separate metric
    // families (name_p50, ...), so they collect here and render after
    // the main pass -- one HELP/TYPE block per family, label variants
    // grouped, families in sorted order.
    std::map<std::string, std::vector<std::string>> derived;
    const std::string *lastAnnotated = nullptr;
    for (const auto &[key, inst] : instruments_) {
        // One HELP/TYPE block per metric family (label variants share it).
        if (lastAnnotated == nullptr || *lastAnnotated != inst->name) {
            if (!inst->help.empty())
                os << "# HELP " << inst->name << " "
                   << promEscapeHelp(inst->help) << "\n";
            os << "# TYPE " << inst->name << " ";
            switch (inst->kind) {
              case Kind::Counter: os << "counter"; break;
              case Kind::Gauge: os << "gauge"; break;
              case Kind::Histogram: os << "histogram"; break;
            }
            os << "\n";
            lastAnnotated = &inst->name;
        }
        const std::string labels = renderLabels(inst->labels);
        switch (inst->kind) {
          case Kind::Counter:
            os << inst->name << labels << " " << inst->counter->value()
               << "\n";
            break;
          case Kind::Gauge:
            os << inst->name << labels << " "
               << fmtDouble(inst->gauge->value()) << "\n";
            break;
          case Kind::Histogram: {
            const Histogram &h = *inst->histogram;
            uint64_t cumulative = 0;
            for (int k = 0; k < Histogram::kBuckets; ++k) {
                uint64_t in_bucket = h.bucketCount(k);
                cumulative += in_bucket;
                // Keep the exposition compact: only edges that separate
                // observations appear, plus the mandatory +Inf bucket.
                if (in_bucket == 0 && k != Histogram::kBuckets - 1)
                    continue;
                std::string le =
                    k == Histogram::kBuckets - 1
                        ? "+Inf"
                        : fmtDouble(Histogram::bucketUpperBound(k));
                os << inst->name << "_bucket"
                   << renderLabelsWith(inst->labels, "le", le) << " "
                   << cumulative << "\n";
            }
            os << inst->name << "_sum" << labels << " "
               << fmtDouble(h.sum()) << "\n";
            os << inst->name << "_count" << labels << " " << h.count()
               << "\n";
            for (const auto &[suffix, q] : kQuantileExports)
                derived[inst->name + suffix].push_back(
                    inst->name + suffix + labels + " " +
                    fmtDouble(h.quantileUpperBound(q)) + "\n");
            break;
          }
        }
    }
    for (const auto &[family, lines] : derived) {
        os << "# HELP " << family
           << " Derived quantile upper bound (log-2 bucket edge)\n";
        os << "# TYPE " << family << " gauge\n";
        for (const std::string &line : lines)
            os << line;
    }
    return os.str();
}

std::string
Registry::jsonText() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream os;
    os << "{";
    bool first = true;
    auto emit = [&](const std::string &key, const std::string &value) {
        if (!first)
            os << ",";
        first = false;
        os << "\"" << jsonEscape(key) << "\":" << value;
    };
    for (const auto &[key, inst] : instruments_) {
        const std::string series = inst->name + renderLabels(inst->labels);
        switch (inst->kind) {
          case Kind::Counter:
            emit(series, std::to_string(inst->counter->value()));
            break;
          case Kind::Gauge: {
            double v = inst->gauge->value();
            std::string rendered = fmtDouble(v);
            if (!std::isfinite(v))
                rendered = "\"" + rendered + "\"";
            emit(series, rendered);
            break;
          }
          case Kind::Histogram: {
            const Histogram &h = *inst->histogram;
            const std::string labels = renderLabels(inst->labels);
            // Canonical suffix-before-labels keys so importFlat can
            // parse them back (and reconstruct the histogram).  Key
            // order inside one family stays sorted: _bucket < _count
            // < _p50 < _p95 < _p99 < _sum.
            uint64_t cumulative = 0;
            for (int k = 0; k < Histogram::kBuckets; ++k) {
                uint64_t in_bucket = h.bucketCount(k);
                cumulative += in_bucket;
                if (in_bucket == 0 && k != Histogram::kBuckets - 1)
                    continue;
                std::string le =
                    k == Histogram::kBuckets - 1
                        ? "+Inf"
                        : fmtDouble(Histogram::bucketUpperBound(k));
                emit(inst->name + "_bucket" +
                         renderLabelsWith(inst->labels, "le", le),
                     std::to_string(cumulative));
            }
            emit(inst->name + "_count" + labels,
                 std::to_string(h.count()));
            for (const auto &[suffix, q] : kQuantileExports) {
                double v = h.quantileUpperBound(q);
                std::string rendered = fmtDouble(v);
                if (!std::isfinite(v))
                    rendered = "\"" + rendered + "\"";
                emit(inst->name + suffix + labels, rendered);
            }
            emit(inst->name + "_sum" + labels, fmtDouble(h.sum()));
            break;
          }
        }
    }
    os << "}\n";
    return os.str();
}

void
Registry::resetAllForTest()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[key, inst] : instruments_) {
        switch (inst->kind) {
          case Kind::Counter: inst->counter->reset(); break;
          case Kind::Gauge: inst->gauge->reset(); break;
          case Kind::Histogram: inst->histogram->reset(); break;
        }
    }
}

namespace {

/** `le` rendering -> bucket index, built once from the fixed edges. */
bool
bucketIndexForLe(const std::string &le, int *k)
{
    static const std::map<std::string, int> *index = [] {
        auto *m = new std::map<std::string, int>();
        for (int b = 0; b < Histogram::kBuckets - 1; ++b)
            (*m)[fmtDouble(Histogram::bucketUpperBound(b))] = b;
        (*m)["+Inf"] = Histogram::kBuckets - 1;
        return m;
    }();
    auto it = index->find(le);
    if (it == index->end())
        return false;
    *k = it->second;
    return true;
}

const char *kSumSuffix = "_sum";
const char *kCountSuffix = "_count";
const char *kBucketSuffix = "_bucket";

bool
stripSuffix(const std::string &name, const char *suffix,
            std::string *base)
{
    size_t n = std::char_traits<char>::length(suffix);
    if (name.size() <= n ||
        name.compare(name.size() - n, n, suffix) != 0)
        return false;
    *base = name.substr(0, name.size() - n);
    return true;
}

} // namespace

size_t
Registry::importFlat(const std::map<std::string, double> &values,
                     const std::string &prefix, const Labels &extra,
                     const std::string &help)
{
    size_t imported = 0;
    size_t malformed = 0, collisions = 0;

    // Pass 1: parse every key and collect histogram families -- a
    // `base_bucket{le="..."}` series declares one.  The family's
    // _count/_sum series (same base, same labels minus `le`) are
    // claimed by the reconstruction so they don't double-import as
    // gauges.
    struct Entry
    {
        std::string name;
        Labels labels;
        double value;
        bool consumed = false;
    };
    std::vector<Entry> entries;
    entries.reserve(values.size());
    struct HistAcc
    {
        Labels labels; ///< without `le`
        std::map<int, uint64_t> cumulative;
        double sum = 0.0;
        bool haveCount = false;
        uint64_t count = 0;
        size_t series = 0; ///< consumed source series
        bool broken = false;
    };
    std::map<std::pair<std::string, std::string>, HistAcc> hists;
    for (const auto &[key, value] : values) {
        Entry e;
        e.value = value;
        if (!parseInstrumentKey(key, &e.name, &e.labels)) {
            ++malformed;
            continue;
        }
        std::string base;
        auto leIt = e.labels.find("le");
        if (leIt != e.labels.end() &&
            stripSuffix(e.name, kBucketSuffix, &base)) {
            int k = 0;
            if (!bucketIndexForLe(leIt->second, &k) || value < 0 ||
                value != std::floor(value)) {
                ++malformed;
                continue;
            }
            Labels rest = e.labels;
            rest.erase("le");
            HistAcc &acc = hists[{base, renderLabels(rest)}];
            acc.labels = std::move(rest);
            acc.cumulative[k] = static_cast<uint64_t>(value);
            ++acc.series;
            continue;
        }
        entries.push_back(std::move(e));
    }

    // Pass 2: attach _count/_sum to their families; everything left
    // imports through the gauge path unchanged.
    for (Entry &e : entries) {
        std::string base;
        bool isCount = stripSuffix(e.name, kCountSuffix, &base);
        if (!isCount && !stripSuffix(e.name, kSumSuffix, &base))
            continue;
        auto it = hists.find({base, renderLabels(e.labels)});
        if (it == hists.end())
            continue;
        if (isCount) {
            it->second.haveCount = true;
            it->second.count = static_cast<uint64_t>(e.value);
        } else {
            it->second.sum = e.value;
        }
        ++it->second.series;
        e.consumed = true;
    }

    for (auto &[key, acc] : hists) {
        // De-accumulate the cumulative edge counts; a non-monotone
        // series means the snapshot is corrupt, so the whole family is
        // dropped rather than half-imported.
        std::array<uint64_t, Histogram::kBuckets> counts{};
        uint64_t prev = 0;
        for (const auto &[k, cum] : acc.cumulative) {
            if (cum < prev) {
                acc.broken = true;
                break;
            }
            counts[static_cast<size_t>(k)] = cum - prev;
            prev = cum;
        }
        if (acc.broken) {
            malformed += acc.series;
            continue;
        }
        Labels labels = acc.labels;
        for (const auto &[k, v] : extra)
            labels[k] = v;
        Histogram *h =
            tryHistogram(prefix + key.first, help, std::move(labels));
        if (h == nullptr) {
            collisions += acc.series;
            continue;
        }
        h->importSnapshot(counts, acc.sum,
                          acc.haveCount ? acc.count : prev);
        imported += acc.series;
    }

    for (Entry &e : entries) {
        if (e.consumed)
            continue;
        Labels labels = std::move(e.labels);
        for (const auto &[k, v] : extra)
            labels[k] = v;
        Gauge *g = tryGauge(prefix + e.name, help, std::move(labels));
        if (g == nullptr) {
            // The series name is already registered locally as a
            // counter or histogram; snapshots come from another
            // process and must not be able to crash (or retype) this
            // registry, so the series is dropped and counted.
            ++collisions;
            continue;
        }
        g->set(e.value);
        ++imported;
    }
    if (malformed + collisions > 0) {
        counter("cluster_import_skipped_total",
                "Imported metric series dropped (malformed key or kind "
                "collision with a local instrument)")
            .inc(malformed + collisions);
        warn(LogTail()
                 .kv("prefix", prefix)
                 .kv("malformed", malformed)
                 .kv("kind_collisions", collisions)
                 .kv("imported", imported),
             "obs: dropped metric series on snapshot import");
    }
    return imported;
}

Gauge *
Registry::tryGauge(const std::string &name, const std::string &help,
                   Labels labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    InstrumentKey key{name, renderLabels(labels)};
    auto it = instruments_.find(key);
    if (it != instruments_.end())
        return it->second->kind == Kind::Gauge ? it->second->gauge.get()
                                               : nullptr;
    auto inst = std::make_unique<Instrument>();
    inst->kind = Kind::Gauge;
    inst->name = name;
    inst->help = help;
    inst->labels = std::move(labels);
    inst->gauge = std::make_unique<Gauge>();
    auto [pos, inserted] = instruments_.emplace(key, std::move(inst));
    (void)inserted;
    return pos->second->gauge.get();
}

Histogram *
Registry::tryHistogram(const std::string &name, const std::string &help,
                       Labels labels)
{
    std::lock_guard<std::mutex> lock(mutex_);
    InstrumentKey key{name, renderLabels(labels)};
    auto it = instruments_.find(key);
    if (it != instruments_.end())
        return it->second->kind == Kind::Histogram
                   ? it->second->histogram.get()
                   : nullptr;
    auto inst = std::make_unique<Instrument>();
    inst->kind = Kind::Histogram;
    inst->name = name;
    inst->help = help;
    inst->labels = std::move(labels);
    inst->histogram = std::make_unique<Histogram>();
    auto [pos, inserted] = instruments_.emplace(key, std::move(inst));
    (void)inserted;
    return pos->second->histogram.get();
}

bool
parseInstrumentKey(const std::string &key, std::string *name,
                   Labels *labels)
{
    size_t brace = key.find('{');
    if (brace == std::string::npos) {
        if (key.empty())
            return false;
        *name = key;
        labels->clear();
        return true;
    }
    if (brace == 0 || key.back() != '}')
        return false;
    Labels parsed;
    size_t pos = brace + 1;
    const size_t end = key.size() - 1;
    while (pos < end) {
        size_t eq = key.find('=', pos);
        if (eq == std::string::npos || eq >= end ||
            eq + 1 >= key.size() || key[eq + 1] != '"')
            return false;
        std::string labelName = key.substr(pos, eq - pos);
        if (labelName.empty())
            return false;
        // Un-escape the promEscapeLabelValue rendering.
        std::string value;
        size_t i = eq + 2;
        bool closed = false;
        for (; i < end; ++i) {
            char c = key[i];
            if (c == '\\') {
                if (i + 1 >= end)
                    return false;
                char e = key[++i];
                if (e == 'n')
                    value.push_back('\n');
                else if (e == '\\' || e == '"')
                    value.push_back(e);
                else
                    return false;
            } else if (c == '"') {
                closed = true;
                ++i;
                break;
            } else {
                value.push_back(c);
            }
        }
        if (!closed)
            return false;
        parsed[labelName] = std::move(value);
        if (i < end) {
            if (key[i] != ',')
                return false;
            ++i;
        }
        pos = i;
    }
    *name = key.substr(0, brace);
    *labels = std::move(parsed);
    return true;
}

std::string
promEscapeLabelValue(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    for (char c : raw) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out;
}

std::string
promEscapeHelp(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    for (char c : raw) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          default: out += c;
        }
    }
    return out;
}

bool
writeTextFile(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        return false;
    out << text;
    return static_cast<bool>(out);
}

} // namespace rasengan::obs
