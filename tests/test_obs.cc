/**
 * @file
 * Tests for the observability layer (src/obs): the metrics registry
 * and its exports, the tracing spans and their determinism guarantees,
 * the clock seam, and the serve-layer telemetry mirroring.
 *
 * The determinism contract under test mirrors the rest of the
 * repository: the *span tree* (categories, names, parentage -- never
 * timestamps or thread ids) of a job-pool batch must be byte-identical
 * at 1, 2 and 7 threads.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/timer.h"
#include "obs/clock.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace.h"
#include "serve/jsonl.h"
#include "serve/scheduler.h"

namespace rasengan {
namespace {

const std::vector<int> kSweep = {1, 2, 7};

/** RAII: restore the env-derived thread configuration on scope exit. */
struct ThreadGuard
{
    ~ThreadGuard() { parallel::setThreadCount(0); }
};

/** RAII: stop tracing and drop buffered events on scope exit. */
struct TraceGuard
{
    ~TraceGuard()
    {
        obs::stopTracing();
        obs::clearTrace();
    }
};

// ---------------------------------------------------------------------
// Instruments
// ---------------------------------------------------------------------

TEST(Metrics, CounterBasics)
{
    obs::Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Metrics, GaugeSetAndAdd)
{
    obs::Gauge g;
    EXPECT_EQ(g.value(), 0.0);
    g.set(2.5);
    EXPECT_EQ(g.value(), 2.5);
    g.add(-1.0);
    EXPECT_EQ(g.value(), 1.5);
    g.set(-0.0);
    EXPECT_EQ(g.value(), 0.0);
}

TEST(Metrics, RegistryHandsOutStableReferences)
{
    obs::Registry reg;
    obs::Counter &a = reg.counter("x_total", "help");
    obs::Counter &b = reg.counter("x_total");
    EXPECT_EQ(&a, &b);

    // Different labels are a different series.
    obs::Counter &c = reg.counter("x_total", "", {{"kind", "y"}});
    EXPECT_NE(&a, &c);

    a.inc(3);
    EXPECT_EQ(b.value(), 3u);
}

// ---------------------------------------------------------------------
// Histogram bucket edges
// ---------------------------------------------------------------------

TEST(Histogram, BucketEdgesArePowersOfTwo)
{
    using H = obs::Histogram;
    // Bucket k has upper bound 2^(k + kMinExp); a value equal to an
    // edge belongs to the bucket whose bound it equals (le semantics).
    const int k1 = -H::kMinExp; // bucket whose upper bound is 2^0 = 1
    EXPECT_EQ(H::bucketUpperBound(k1), 1.0);
    EXPECT_EQ(H::bucketFor(1.0), k1);
    EXPECT_EQ(H::bucketFor(0.75), k1);    // (0.5, 1] -> bound 1
    EXPECT_EQ(H::bucketFor(0.5), k1 - 1); // exactly on the lower edge
    EXPECT_EQ(H::bucketFor(1.5), k1 + 1); // (1, 2] -> bound 2
    EXPECT_EQ(H::bucketFor(2.0), k1 + 1);
    EXPECT_EQ(H::bucketFor(2.0000001), k1 + 2);

    // Values at or below the smallest bound collapse into bucket 0.
    EXPECT_EQ(H::bucketFor(0.0), 0);
    EXPECT_EQ(H::bucketFor(1e-300), 0);
    EXPECT_EQ(H::bucketFor(H::bucketUpperBound(0)), 0);

    // Values beyond the largest finite bound land in the +inf bucket.
    EXPECT_EQ(H::bucketFor(1e300), H::kBuckets - 1);
}

TEST(Histogram, ObserveCountsAndQuantiles)
{
    obs::Histogram h;
    EXPECT_EQ(h.quantileUpperBound(0.5), 0.0); // empty
    h.observe(0.75); // bucket bound 1
    h.observe(0.75);
    h.observe(3.0);  // bucket bound 4
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.sum(), 4.5);
    EXPECT_EQ(h.bucketCount(obs::Histogram::bucketFor(0.75)), 2u);
    // Two of three observations fall at or below bound 1.
    EXPECT_EQ(h.quantileUpperBound(0.5), 1.0);
    EXPECT_EQ(h.quantileUpperBound(1.0), 4.0);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0.0);
}

// ---------------------------------------------------------------------
// Prometheus / JSON exports
// ---------------------------------------------------------------------

TEST(PromText, EscapesLabelsAndHelp)
{
    EXPECT_EQ(obs::promEscapeLabelValue("a\\b\"c\nd"),
              "a\\\\b\\\"c\\nd");
    EXPECT_EQ(obs::promEscapeHelp("a\\b\nc"), "a\\\\b\\nc");

    obs::Registry reg;
    reg.counter("evil_total", "help with \\ and\nnewline",
                {{"path", "a\"b\\c"}})
        .inc(2);
    const std::string text = reg.promText();
    EXPECT_NE(text.find("# HELP evil_total help with \\\\ and\\nnewline"),
              std::string::npos);
    EXPECT_NE(text.find("evil_total{path=\"a\\\"b\\\\c\"} 2"),
              std::string::npos);
}

TEST(PromText, HistogramExposition)
{
    obs::Registry reg;
    obs::Histogram &h = reg.histogram("lat_ms", "latency");
    h.observe(0.75); // le="1"
    h.observe(0.75);
    h.observe(3.0);  // le="4"
    const std::string text = reg.promText();

    EXPECT_NE(text.find("# TYPE lat_ms histogram"), std::string::npos);
    // Buckets are cumulative and always end in a +Inf bucket.
    EXPECT_NE(text.find("lat_ms_bucket{le=\"1\"} 2"), std::string::npos);
    EXPECT_NE(text.find("lat_ms_bucket{le=\"4\"} 3"), std::string::npos);
    EXPECT_NE(text.find("lat_ms_bucket{le=\"+Inf\"} 3"), std::string::npos);
    EXPECT_NE(text.find("lat_ms_sum 4.5"), std::string::npos);
    EXPECT_NE(text.find("lat_ms_count 3"), std::string::npos);
}

TEST(PromText, AnnotatesEachFamilyOnce)
{
    obs::Registry reg;
    reg.counter("family_total", "the help", {{"kind", "a"}}).inc();
    reg.counter("family_total", "the help", {{"kind", "b"}}).inc();
    const std::string text = reg.promText();
    size_t first = text.find("# HELP family_total");
    ASSERT_NE(first, std::string::npos);
    EXPECT_EQ(text.find("# HELP family_total", first + 1),
              std::string::npos);
}

TEST(JsonText, FlatAndSorted)
{
    obs::Registry reg;
    reg.counter("b_total").inc(2);
    reg.gauge("a_bytes").set(1.5);
    const std::string text = reg.jsonText();
    size_t a = text.find("\"a_bytes\":1.5");
    size_t b = text.find("\"b_total\":2");
    ASSERT_NE(a, std::string::npos);
    ASSERT_NE(b, std::string::npos);
    EXPECT_LT(a, b); // sorted keys
    EXPECT_EQ(text.front(), '{');
    EXPECT_EQ(text.back(), '\n');
}

// ---------------------------------------------------------------------
// Clock seam
// ---------------------------------------------------------------------

std::atomic<obs::TimeNanos> fakeNow{0};

obs::TimeNanos
fakeTime()
{
    return fakeNow.load(std::memory_order_relaxed);
}

TEST(ClockSeam, StopwatchFollowsPinnedTimeSource)
{
    obs::setTimeSourceForTest(&fakeTime);
    fakeNow = 1'000'000'000; // t = 1 s

    Stopwatch sw;
    sw.start();
    fakeNow = 3'500'000'000; // t = 3.5 s
    sw.stop();
    EXPECT_DOUBLE_EQ(sw.seconds(), 2.5);

    // Accumulation across start/stop cycles.
    sw.start();
    fakeNow = 4'000'000'000;
    EXPECT_DOUBLE_EQ(sw.seconds(), 3.0); // open interval included
    sw.stop();
    EXPECT_DOUBLE_EQ(sw.seconds(), 3.0);

    obs::setTimeSourceForTest(nullptr); // restore steady_clock
    Stopwatch real;
    real.start();
    EXPECT_GE(real.seconds(), 0.0);
}

// ---------------------------------------------------------------------
// Tracing: spans, parentage, export
// ---------------------------------------------------------------------

TEST(Trace, DisabledSpansRecordNothing)
{
    TraceGuard guard;
    obs::clearTrace();
    ASSERT_FALSE(obs::tracingEnabled());
    {
        obs::Span span("cat", "name");
        EXPECT_EQ(span.id(), 0u);
        EXPECT_EQ(obs::currentSpanId(), 0u);
        RASENGAN_PROF("cat", "macro");
    }
    obs::instantEvent("cat", "instant");
    EXPECT_EQ(obs::traceEventCount(), 0u);
    EXPECT_EQ(obs::spanTreeSignature(), "");
}

TEST(Trace, NestedSpansFormATree)
{
    TraceGuard guard;
    obs::clearTrace();
    obs::startTracing();
    {
        obs::Span outer("solver", "outer");
        EXPECT_NE(outer.id(), 0u);
        EXPECT_EQ(obs::currentSpanId(), outer.id());
        {
            obs::Span inner("kernel", "inner", "d=1");
            EXPECT_EQ(obs::currentSpanId(), inner.id());
        }
        EXPECT_EQ(obs::currentSpanId(), outer.id());
        obs::Span sibling("kernel", "also-inner");
    }
    EXPECT_EQ(obs::currentSpanId(), 0u);
    obs::stopTracing();
    EXPECT_EQ(obs::spanTreeSignature(),
              "solver:outer(kernel:also-inner,kernel:inner[d=1])\n");
}

TEST(Trace, ExplicitParentLinksAcrossPoolThreads)
{
    ThreadGuard threads;
    TraceGuard guard;

    std::string reference;
    for (int tc : kSweep) {
        parallel::setThreadCount(tc);
        obs::clearTrace();
        obs::startTracing();
        {
            obs::Span batch("serve", "batch");
            const obs::SpanId batch_id = batch.id();
            parallel::parallelForDynamic(0, 5, [&](uint64_t i) {
                // Pool threads do not inherit the dispatcher's span
                // stack; the explicit parent re-links the tree.
                obs::SpanContext ctx;
                ctx.parent = batch_id;
                obs::Span job("serve", "job", std::to_string(i), ctx);
            });
        }
        obs::stopTracing();
        const std::string sig = obs::spanTreeSignature();
        EXPECT_EQ(sig,
                  "serve:batch(serve:job[0],serve:job[1],serve:job[2],"
                  "serve:job[3],serve:job[4])\n")
            << "threads=" << tc;
        if (reference.empty())
            reference = sig;
        EXPECT_EQ(sig, reference) << "threads=" << tc;
    }
}

TEST(Trace, SpansWithoutExplicitParentRootOnPoolThreads)
{
    ThreadGuard threads;
    TraceGuard guard;
    parallel::setThreadCount(2);
    obs::clearTrace();
    obs::startTracing();
    {
        obs::Span batch("serve", "batch");
        parallel::parallelForDynamic(0, 2, [&](uint64_t i) {
            obs::Span job("serve", "orphan", std::to_string(i));
        });
    }
    obs::stopTracing();
    const std::string sig = obs::spanTreeSignature();
    // With 2 threads one orphan may run inline on the dispatcher thread
    // (nesting under batch); on a pool thread it becomes a root.  Either
    // way every span is present -- this documents why cross-thread
    // callers must pass the parent explicitly.
    EXPECT_NE(sig.find("serve:batch"), std::string::npos);
    EXPECT_NE(sig.find("serve:orphan[0]"), std::string::npos);
    EXPECT_NE(sig.find("serve:orphan[1]"), std::string::npos);
}

TEST(Trace, ChromeExportIsBalancedAndSorted)
{
    TraceGuard guard;
    obs::clearTrace();
    obs::startTracing();
    {
        obs::Span a("cat", "a");
        { obs::Span b("cat", "b", "x\"y\\z"); } // exercises escaping
        obs::instantEvent("cat", "tick");
    }
    obs::stopTracing();

    const std::string path = ::testing::TempDir() + "trace_obs_test.json";
    ASSERT_TRUE(obs::writeChromeTrace(path));

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    std::remove(path.c_str());

    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    size_t begins = 0, ends = 0, instants = 0;
    std::vector<double> ts;
    for (size_t pos = 0; (pos = text.find("\"ph\":\"", pos)) !=
                         std::string::npos;
         ++pos) {
        switch (text[pos + 6]) {
          case 'B': ++begins; break;
          case 'E': ++ends; break;
          case 'i': ++instants; break;
        }
    }
    EXPECT_EQ(begins, 2u);
    EXPECT_EQ(ends, 2u);
    EXPECT_EQ(instants, 1u);
    // Timestamps are exported sorted (jq checks this in CI too).
    for (size_t pos = 0; (pos = text.find("\"ts\":", pos)) !=
                         std::string::npos;
         ++pos)
        ts.push_back(std::strtod(text.c_str() + pos + 5, nullptr));
    ASSERT_EQ(ts.size(), 5u);
    for (size_t i = 1; i < ts.size(); ++i)
        EXPECT_LE(ts[i - 1], ts[i]);
    // The escaped detail survived the JSON encoder.
    EXPECT_NE(text.find("x\\\"y\\\\z"), std::string::npos);
}

/** Raw bytes below 0x20 other than the line breaks between records. */
size_t
rawControlBytes(const std::string &text)
{
    size_t n = 0;
    for (unsigned char c : text)
        if (c < 0x20 && c != '\n')
            ++n;
    return n;
}

TEST(Trace, ChromeExportEscapesControlBytes)
{
    TraceGuard guard;
    obs::clearTrace();
    obs::startTracing();
    { obs::Span s("cat", "ctl", "a\rb\x01" "c"); }
    obs::stopTracing();

    const std::string path = ::testing::TempDir() + "trace_ctl_test.json";
    ASSERT_TRUE(obs::writeChromeTrace(path));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    std::remove(path.c_str());
    EXPECT_NE(text.find("a\\rb\\u0001c"), std::string::npos);
    EXPECT_EQ(rawControlBytes(text), 0u);
}

TEST(JsonText, EscapesControlBytesInLabels)
{
    obs::Registry reg;
    reg.counter("c_total", "", {{"id", "a\rb\x01" "c"}}).inc();
    const std::string text = reg.jsonText();
    EXPECT_NE(text.find("a\\rb\\u0001c"), std::string::npos);
    EXPECT_EQ(rawControlBytes(text), 0u);
}

TEST(Trace, SpanEndsRecordedEvenIfTracingStopsMidSpan)
{
    TraceGuard guard;
    obs::clearTrace();
    obs::startTracing();
    {
        obs::Span span("cat", "crosses-stop");
        obs::stopTracing();
    } // destructor must still close the span: B/E stay balanced
    const std::string path = ::testing::TempDir() + "trace_stop_test.json";
    ASSERT_TRUE(obs::writeChromeTrace(path));
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    std::remove(path.c_str());
    EXPECT_NE(text.find("\"ph\":\"B\""), std::string::npos);
    EXPECT_NE(text.find("\"ph\":\"E\""), std::string::npos);
}

// ---------------------------------------------------------------------
// Serve telemetry mirrors the registry
// ---------------------------------------------------------------------

TEST(ServeTelemetry, CacheStatsMatchRegistryDeltas)
{
    ThreadGuard threads;
    obs::Registry &reg = obs::Registry::global();
    obs::Counter &hits = reg.counter("serve_cache_hits_total");
    obs::Counter &misses = reg.counter("serve_cache_misses_total");
    obs::Counter &completed = reg.counter("serve_jobs_completed_total");

    const uint64_t hits0 = hits.value();
    const uint64_t misses0 = misses.value();
    const uint64_t completed0 = completed.value();

    serve::ServeOptions options;
    options.threads = 2;
    auto cache = std::make_shared<serve::ArtifactCache>(64ull << 20);
    serve::BatchScheduler scheduler(options, cache);
    std::vector<serve::JobRequest> reqs;
    const char *benchmarks[] = {"F1", "F1", "F1", "K1"};
    for (int i = 0; i < 4; ++i) {
        serve::JobRequest req;
        req.id = "obs" + std::to_string(i);
        req.benchmark = benchmarks[i];
        req.iterations = 6;
        req.execution = "exact";
        reqs.push_back(req);
        scheduler.submit(req);
    }
    scheduler.runAll();

    // Every per-instance Stats increment was mirrored into the global
    // registry, so the deltas agree exactly.
    const serve::ArtifactCache::Stats stats = cache->stats();
    EXPECT_EQ(hits.value() - hits0, stats.hits);
    EXPECT_EQ(misses.value() - misses0, stats.misses);
    EXPECT_GT(stats.hits + stats.misses, 0u);
    EXPECT_EQ(completed.value() - completed0, scheduler.admittedJobs());

    // Job latency histograms observed one value per completed job.
    const std::string prom = reg.promText();
    EXPECT_NE(prom.find("serve_job_wall_ms_count"), std::string::npos);
    EXPECT_NE(prom.find("serve_job_queue_wait_ms_count"),
              std::string::npos);
}

TEST(ServeTelemetry, AdmissionCountersMirrorDecisions)
{
    obs::Registry &reg = obs::Registry::global();
    obs::Counter &admitted = reg.counter("serve_admission_admitted_total");
    obs::Counter &rejected = reg.counter("serve_admission_rejected_total");
    const uint64_t admitted0 = admitted.value();
    const uint64_t rejected0 = rejected.value();

    serve::AdmissionLimits limits;
    limits.maxQueuedJobs = 1;
    serve::AdmissionController ctrl(limits);
    serve::JobRequest req;
    req.benchmark = "F1";
    req.iterations = 4;
    EXPECT_TRUE(ctrl.admit(req, 4).admitted);
    EXPECT_FALSE(ctrl.admit(req, 4).admitted); // queue full
    EXPECT_EQ(admitted.value() - admitted0, 1u);
    EXPECT_EQ(rejected.value() - rejected0, 1u);
    EXPECT_EQ(reg.gauge("serve_admission_queued_jobs").value(), 1.0);
    ctrl.release();
    EXPECT_EQ(reg.gauge("serve_admission_queued_jobs").value(), 0.0);
}

// ---------------------------------------------------------------------
// Snapshot import (cluster merge path)
// ---------------------------------------------------------------------

TEST(Metrics, ParseInstrumentKeyInvertsTheRenderedKey)
{
    std::string name;
    obs::Labels labels;

    ASSERT_TRUE(obs::parseInstrumentKey("jobs_total", &name, &labels));
    EXPECT_EQ(name, "jobs_total");
    EXPECT_TRUE(labels.empty());

    ASSERT_TRUE(obs::parseInstrumentKey(
        "depth{queue=\"slow\",worker=\"3\"}", &name, &labels));
    EXPECT_EQ(name, "depth");
    EXPECT_EQ(labels.at("queue"), "slow");
    EXPECT_EQ(labels.at("worker"), "3");

    // Escapes round-trip through the registry's own rendering.
    obs::Registry reg;
    const std::string awkward = "a\"b\\c\nd";
    reg.gauge("g", "", {{"path", awkward}}).set(1.0);
    std::string json = reg.jsonText();
    const std::string::size_type start = json.find("\"g{");
    ASSERT_NE(start, std::string::npos);
    // The rendered series key is itself a JSON string: unescape the
    // JSON layer first, then parse the prom-style key inside it.
    serve::JsonParseResult parsed = serve::parseFlatJson(json);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    bool found = false;
    for (const auto &[key, value] : parsed.object) {
        if (key.rfind("g{", 0) != 0)
            continue;
        found = true;
        ASSERT_TRUE(obs::parseInstrumentKey(key, &name, &labels));
        EXPECT_EQ(name, "g");
        EXPECT_EQ(labels.at("path"), awkward);
    }
    EXPECT_TRUE(found);
}

TEST(Metrics, ParseInstrumentKeyRejectsMalformedKeysUntouched)
{
    std::string name = "sentinel";
    obs::Labels labels = {{"keep", "me"}};
    for (const char *bad :
         {"", "x{", "x{k=v}", "x{k=\"v\"", "x{k=\"v\"}trail",
          "{k=\"v\"}", "x{=\"v\"}", "x{k=\"v\\\"}"}) {
        EXPECT_FALSE(obs::parseInstrumentKey(bad, &name, &labels))
            << bad;
        EXPECT_EQ(name, "sentinel") << bad;
        EXPECT_EQ(labels.at("keep"), "me") << bad;
    }
}

TEST(Metrics, ImportFlatPrefixesSeriesAndPinsExtraLabels)
{
    obs::Registry reg;
    std::map<std::string, double> snapshot = {
        {"serve_jobs_total", 9.0},
        // worker="spoof" must lose to the coordinator's own tag.
        {"depth{queue=\"slow\",worker=\"spoof\"}", 2.5},
        {"mangled{oops", 1.0},
    };
    size_t imported = reg.importFlat(snapshot, "cluster_worker_",
                                     {{"worker", "3"}}, "imported");
    EXPECT_EQ(imported, 2u); // the malformed key is skipped

    EXPECT_EQ(reg.gauge("cluster_worker_serve_jobs_total", "",
                        {{"worker", "3"}})
                  .value(),
              9.0);
    EXPECT_EQ(reg.gauge("cluster_worker_depth", "",
                        {{"queue", "slow"}, {"worker", "3"}})
                  .value(),
              2.5);

    // Counters import as gauges: a snapshot is a point, not a stream.
    std::string prom = reg.promText();
    EXPECT_NE(
        prom.find("# TYPE cluster_worker_serve_jobs_total gauge"),
        std::string::npos);
    EXPECT_EQ(prom.find("spoof"), std::string::npos);

    // Importing a newer snapshot overwrites in place, no new series.
    snapshot["serve_jobs_total"] = 12.0;
    reg.importFlat(snapshot, "cluster_worker_", {{"worker", "3"}});
    EXPECT_EQ(reg.gauge("cluster_worker_serve_jobs_total", "",
                        {{"worker", "3"}})
                  .value(),
              12.0);
}

// ---------------------------------------------------------------------
// Derived quantile exports
// ---------------------------------------------------------------------

/** Exact quantile upper bound over raw observations, quantized to the
 *  same log-2 edges the histogram uses -- the oracle the exports must
 *  agree with. */
double
exactRankUpperBound(std::vector<double> values, double q)
{
    std::vector<double> bounds;
    bounds.reserve(values.size());
    for (double v : values) {
        int k = obs::Histogram::bucketFor(v);
        bounds.push_back(k == obs::Histogram::kBuckets - 1
                             ? std::numeric_limits<double>::infinity()
                             : obs::Histogram::bucketUpperBound(k));
    }
    std::sort(bounds.begin(), bounds.end());
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(bounds.size())));
    if (rank == 0)
        rank = 1;
    return bounds[rank - 1];
}

TEST(Metrics, QuantileExportsMatchExactRanks)
{
    obs::Registry reg;
    obs::Histogram &h = reg.histogram("lat_ms", "latency");
    std::vector<double> values;
    for (int i = 1; i <= 100; ++i)
        values.push_back(0.1 * i); // 0.1 .. 10.0 across several buckets
    for (double v : values)
        h.observe(v);

    for (auto [q, suffix] : {std::pair<double, const char *>{0.50, "_p50"},
                             {0.95, "_p95"},
                             {0.99, "_p99"}}) {
        EXPECT_EQ(h.quantileUpperBound(q), exactRankUpperBound(values, q))
            << suffix;
    }

    // Both exports carry the derived gauges.
    const std::string prom = reg.promText();
    EXPECT_NE(prom.find("# TYPE lat_ms_p50 gauge"), std::string::npos);
    EXPECT_NE(prom.find("# TYPE lat_ms_p95 gauge"), std::string::npos);
    EXPECT_NE(prom.find("# TYPE lat_ms_p99 gauge"), std::string::npos);
    EXPECT_NE(prom.find("lat_ms_p95 "), std::string::npos);

    const std::string json = reg.jsonText();
    serve::JsonParseResult parsed = serve::parseFlatJson(json);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    for (auto [q, suffix] : {std::pair<double, const char *>{0.50, "_p50"},
                             {0.95, "_p95"},
                             {0.99, "_p99"}}) {
        auto it = parsed.object.find(std::string("lat_ms") + suffix);
        ASSERT_NE(it, parsed.object.end()) << suffix;
        ASSERT_EQ(it->second.kind, serve::JsonValue::Kind::Number);
        EXPECT_EQ(it->second.num, h.quantileUpperBound(q)) << suffix;
    }
    // Bucket keys are canonical suffix-before-labels renderings.
    EXPECT_NE(json.find("\"lat_ms_bucket{le=\\\""), std::string::npos);
    EXPECT_NE(json.find("\"lat_ms_count\":100"), std::string::npos);
}

TEST(Metrics, ImportFlatReconstructsHistograms)
{
    obs::Registry source;
    obs::Histogram &h = source.histogram("lat_ms", "", {{"queue", "slow"}});
    h.observe(0.75); // le="1"
    h.observe(0.75);
    h.observe(3.0);  // le="4"

    // Round-trip through the wire format the cluster actually ships:
    // jsonText -> flat JSON parse -> importFlat.
    serve::JsonParseResult parsed = serve::parseFlatJson(source.jsonText());
    ASSERT_TRUE(parsed.ok) << parsed.error;
    std::map<std::string, double> snapshot;
    for (const auto &[key, value] : parsed.object)
        if (value.kind == serve::JsonValue::Kind::Number)
            snapshot[key] = value.num;

    obs::Registry reg;
    size_t imported =
        reg.importFlat(snapshot, "cluster_worker_", {{"worker", "3"}});
    EXPECT_GT(imported, 0u);

    // The family came back as a real histogram (not per-edge gauges):
    // typed as histogram, per-bucket counts de-accumulated, quantiles
    // re-derived from the imported counts.
    obs::Histogram &imp = reg.histogram(
        "cluster_worker_lat_ms", "", {{"queue", "slow"}, {"worker", "3"}});
    EXPECT_EQ(imp.count(), 3u);
    EXPECT_DOUBLE_EQ(imp.sum(), 4.5);
    EXPECT_EQ(imp.bucketCount(obs::Histogram::bucketFor(0.75)), 2u);
    EXPECT_EQ(imp.bucketCount(obs::Histogram::bucketFor(3.0)), 1u);
    EXPECT_EQ(imp.quantileUpperBound(0.5), h.quantileUpperBound(0.5));
    EXPECT_EQ(imp.quantileUpperBound(0.99), h.quantileUpperBound(0.99));

    const std::string prom = reg.promText();
    EXPECT_NE(prom.find("# TYPE cluster_worker_lat_ms histogram"),
              std::string::npos);
    EXPECT_NE(prom.find("cluster_worker_lat_ms_bucket{le=\"1\","
                        "queue=\"slow\",worker=\"3\"} 2"),
              std::string::npos);
}

TEST(Metrics, ImportFlatDropsNonMonotoneHistogramFamilies)
{
    obs::Registry reg;
    std::map<std::string, double> snapshot = {
        {"bad_bucket{le=\"1\"}", 5.0},
        {"bad_bucket{le=\"4\"}", 3.0}, // cumulative count went DOWN
        {"bad_bucket{le=\"+Inf\"}", 7.0},
        {"bad_sum", 9.0},
        {"bad_count", 7.0},
        {"good_total", 1.0},
    };
    size_t imported = reg.importFlat(snapshot, "w_", {});
    EXPECT_EQ(imported, 1u); // only good_total survives
    EXPECT_EQ(reg.gauge("w_good_total").value(), 1.0);
    EXPECT_EQ(reg.promText().find("w_bad"), std::string::npos);
}

// ---------------------------------------------------------------------
// Distributed span shipping: wire format and merged stitching
// ---------------------------------------------------------------------

obs::FlatEvent
flatEvent(char phase, const char *cat, const char *name,
          std::string detail, obs::TimeNanos ts, obs::SpanId id,
          obs::SpanId parent, bool remote, std::string traceId,
          uint32_t tid, uint64_t seq)
{
    obs::FlatEvent fe;
    fe.event.phase = phase;
    fe.event.category = cat;
    fe.event.name = name;
    fe.event.detail = std::move(detail);
    fe.event.ts = ts;
    fe.event.id = id;
    fe.event.parent = parent;
    fe.event.remoteParent = remote;
    fe.event.traceId = std::move(traceId);
    fe.tid = tid;
    fe.seq = seq;
    return fe;
}

TEST(Trace, SpanWireFormatRoundTrips)
{
    std::vector<obs::FlatEvent> events;
    // Awkward bytes in every escaped field: tabs and newlines must
    // survive the tab-separated wire format.
    events.push_back(flatEvent('B', "serve", "job", "d\te\ntail", 100, 7,
                               3, true,
                               "00112233445566778899aabbccddeeff", 1, 0));
    events.push_back(flatEvent('i', "serve", "tick", "", 150, 0, 7, false,
                               "", 1, 1));
    events.push_back(flatEvent('E', "serve", "job", "", 200, 7, 3, true,
                               "00112233445566778899aabbccddeeff", 1, 2));

    std::string encoded = obs::encodeSpanEvents(events);
    std::vector<obs::FlatEvent> decoded = obs::decodeSpanEvents(encoded);
    ASSERT_EQ(decoded.size(), events.size());
    for (size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(decoded[i].event.phase, events[i].event.phase) << i;
        EXPECT_STREQ(decoded[i].event.category, events[i].event.category)
            << i;
        EXPECT_STREQ(decoded[i].event.name, events[i].event.name) << i;
        EXPECT_EQ(decoded[i].event.detail, events[i].event.detail) << i;
        EXPECT_EQ(decoded[i].event.ts, events[i].event.ts) << i;
        EXPECT_EQ(decoded[i].event.id, events[i].event.id) << i;
        EXPECT_EQ(decoded[i].event.parent, events[i].event.parent) << i;
        EXPECT_EQ(decoded[i].event.remoteParent,
                  events[i].event.remoteParent)
            << i;
        EXPECT_EQ(decoded[i].event.traceId, events[i].event.traceId) << i;
        EXPECT_EQ(decoded[i].tid, events[i].tid) << i;
        EXPECT_EQ(decoded[i].seq, events[i].seq) << i;
    }

    // The cap drops from the tail and counts what it dropped.
    uint64_t dropped = 0;
    std::string capped = obs::encodeSpanEvents(events, 1, &dropped);
    EXPECT_EQ(dropped, 2u);
    EXPECT_EQ(obs::decodeSpanEvents(capped).size(), 1u);

    // Tolerates empty and garbage input without crashing.
    EXPECT_TRUE(obs::decodeSpanEvents("").empty());
    EXPECT_TRUE(obs::decodeSpanEvents("not\ta\tspan\n").empty());
}

/**
 * Synthetic cluster forest: a coordinator batch span with two
 * remote-rooted job subtrees, as recorded when workers run in-process
 * (the loopback tests).  Returns {local, t1 subtree, t2 subtree}.
 */
std::vector<std::vector<obs::FlatEvent>>
syntheticClusterForest()
{
    const char *t1 = "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa";
    const char *t2 = "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb";
    std::vector<obs::FlatEvent> local = {
        flatEvent('B', "cluster", "batch", "jobs=2", 10, 1, 0, false, "",
                  0, 0),
        flatEvent('E', "cluster", "batch", "", 500, 1, 0, false, "", 0, 1),
    };
    std::vector<obs::FlatEvent> sub1 = {
        flatEvent('B', "serve", "job", "j1", 20, 100, 1, true, t1, 5, 0),
        flatEvent('B', "segment-evolve", "evolve", "", 30, 101, 100, false,
                  t1, 5, 1),
        flatEvent('E', "segment-evolve", "evolve", "", 40, 101, 100, false,
                  t1, 5, 2),
        flatEvent('E', "serve", "job", "", 50, 100, 1, true, t1, 5, 3),
    };
    // The kernel-category child must NOT reach the merged signature:
    // profiling hooks are not part of the structural span tree the
    // signature makes partition-invariant.
    std::vector<obs::FlatEvent> sub2 = {
        flatEvent('B', "serve", "job", "j2", 60, 200, 1, true, t2, 6, 0),
        flatEvent('B', "kernel", "sparse-pair-rotation", "", 62, 201, 200,
                  false, t2, 6, 1),
        flatEvent('E', "kernel", "sparse-pair-rotation", "", 64, 201, 200,
                  false, t2, 6, 2),
        flatEvent('E', "serve", "job", "", 70, 200, 1, true, t2, 6, 3),
    };
    return {local, sub1, sub2};
}

TEST(Trace, MergedSignatureInvariantToWorkerPartition)
{
    auto forest = syntheticClusterForest();
    const auto &local = forest[0];
    const auto &sub1 = forest[1];
    const auto &sub2 = forest[2];

    auto concat = [](std::vector<obs::FlatEvent> a,
                     const std::vector<obs::FlatEvent> &b) {
        a.insert(a.end(), b.begin(), b.end());
        return a;
    };

    // One worker ran both jobs...
    std::vector<obs::ForeignSpans> one(1);
    one[0].process = "worker 0";
    one[0].events = concat(sub1, sub2);
    const std::string sigOne = obs::mergedSpanTreeSignature(local, one);

    // ...vs two workers with one job each (ids deliberately collide
    // across workers: the per-worker remap keeps them apart).
    std::vector<obs::ForeignSpans> two(2);
    two[0].process = "worker 0";
    two[0].events = sub1;
    two[1].process = "worker 1";
    two[1].events = sub2;
    const std::string sigTwo = obs::mergedSpanTreeSignature(local, two);

    ASSERT_FALSE(sigOne.empty());
    EXPECT_EQ(sigOne, sigTwo);
    EXPECT_EQ(sigOne,
              "cluster:batch[jobs=2](serve:job[j1](segment-evolve:evolve),"
              "serve:job[j2])\n");

    // In-process workers leave their spans in the coordinator's own
    // buffers too; the merge must not double-count them (the shipped
    // copies are the authoritative ones).
    std::vector<obs::FlatEvent> pollutedLocal =
        concat(concat(local, sub1), sub2);
    EXPECT_EQ(obs::mergedSpanTreeSignature(pollutedLocal, two), sigOne);
}

TEST(Trace, RemoteRootedSelectionFollowsTraceIds)
{
    auto forest = syntheticClusterForest();
    std::vector<obs::FlatEvent> all = forest[0];
    all.insert(all.end(), forest[1].begin(), forest[1].end());
    all.insert(all.end(), forest[2].begin(), forest[2].end());

    // Only the requested cycle's trace ids ship.
    std::vector<obs::FlatEvent> t1only = obs::remoteRootedEvents(
        all, {"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"});
    EXPECT_EQ(t1only.size(), forest[1].size());
    for (const auto &fe : t1only)
        EXPECT_EQ(fe.event.traceId, "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa");

    // The local view strips every remote-rooted subtree.
    std::vector<obs::FlatEvent> localOnly = obs::withoutRemoteRooted(all);
    EXPECT_EQ(localOnly.size(), forest[0].size());
    EXPECT_EQ(obs::spanTreeSignature(localOnly),
              "cluster:batch[jobs=2]\n");
}

// ---------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------

TEST(Flight, RingOverflowCountsDropsAndDumpStaysParseable)
{
    obs::flight::configure(16); // idempotent: first capacity wins
    obs::flight::resetForTest();
    ASSERT_TRUE(obs::flight::enabled());
    EXPECT_TRUE(obs::flight::explicitlyConfigured());

    for (int i = 0; i < 40; ++i)
        obs::flight::recordInstant("test", "tick", std::to_string(i));
    EXPECT_EQ(obs::flight::recordedCount(), 40u);
    // Overwriting the oldest entries is the point, and it is counted.
    EXPECT_EQ(obs::flight::droppedCount(), 40u - 16u);

    const std::string json = obs::flight::renderJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"flight\":{"), std::string::npos);
    EXPECT_NE(json.find("\"dropped\":24"), std::string::npos);
    EXPECT_NE(json.find("\"events\":["), std::string::npos);
    // Ring wrap kept the NEWEST entries: ticks 0..23 were overwritten,
    // 24..39 survive.
    EXPECT_EQ(json.find("\"detail\":\"23\""), std::string::npos);
    EXPECT_NE(json.find("\"detail\":\"24\""), std::string::npos);
    EXPECT_NE(json.find("\"detail\":\"39\""), std::string::npos);

    // The signal-path dump produces the same shape through raw write(2).
    const std::string path = ::testing::TempDir() + "flight_dump_test.json";
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        size_t wrote = obs::flight::dump(fileno(f));
        std::fclose(f);
        EXPECT_EQ(wrote, 16u);
    }
    std::ifstream in(path);
    std::stringstream buf;
    buf << in.rdbuf();
    std::remove(path.c_str());
    const std::string dumped = buf.str();
    EXPECT_NE(dumped.find("\"flight\":{"), std::string::npos);
    EXPECT_NE(dumped.find("\"events\":["), std::string::npos);
    // Braces and brackets balance: the dump is one well-formed object.
    int depth = 0;
    bool inString = false;
    for (size_t i = 0; i < dumped.size(); ++i) {
        char c = dumped[i];
        if (inString) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                inString = false;
            continue;
        }
        if (c == '"')
            inString = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            --depth;
        EXPECT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(inString);
}

TEST(Flight, ConcurrentWritersNeverTearAnEntry)
{
    // Two writers whose ring indices collide on one slot: each claims
    // it with a CAS or drops its entry (counted), so every surviving
    // entry is one writer's whole text.  TSan (CI sanitize-thread)
    // checks the slot writes for races.
    obs::flight::configure(16); // idempotent: first capacity wins
    obs::flight::resetForTest();
    constexpr int kPerThread = 20000;
    std::vector<std::thread> writers;
    for (char fill : {'a', 'b'}) {
        writers.emplace_back([fill] {
            for (int i = 0; i < kPerThread; ++i)
                obs::flight::recordInstant(
                    "test", "race", std::string(1 + i % 300, fill));
        });
    }
    for (std::thread &t : writers)
        t.join();
    EXPECT_EQ(obs::flight::recordedCount(), 2u * kPerThread);

    const std::string json = obs::flight::renderJson();
    const std::string marker = "\"detail\":\"";
    size_t events = 0;
    for (size_t at = json.find(marker); at != std::string::npos;
         at = json.find(marker, at + 1)) {
        const size_t begin = at + marker.size();
        const size_t end = json.find('"', begin);
        ASSERT_NE(end, std::string::npos);
        const std::string detail = json.substr(begin, end - begin);
        ASSERT_FALSE(detail.empty());
        EXPECT_EQ(detail, std::string(detail.size(), detail[0]))
            << "torn entry";
        ++events;
    }
    EXPECT_GT(events, 0u);
    // Every entry is either in the ring or counted as dropped.
    EXPECT_GE(events + obs::flight::droppedCount(), 2u * kPerThread);
}

TEST(Flight, CapturesClosedSpansEvenWithTracingOff)
{
    obs::flight::configure();
    obs::flight::resetForTest();
    ASSERT_FALSE(obs::tracingEnabled());
    const uint64_t before = obs::flight::recordedCount();
    {
        obs::Span span("solver", "flight-only", "d=3");
    }
    EXPECT_EQ(obs::flight::recordedCount(), before + 1);
    const std::string json = obs::flight::renderJson();
    EXPECT_NE(json.find("flight-only"), std::string::npos);
    EXPECT_NE(json.find("d=3"), std::string::npos);

    // Truncation is counted, never an error.
    obs::flight::note("test", std::string(4096, 'x'));
    EXPECT_GE(obs::flight::truncatedCount(), 1u);
}

} // namespace
} // namespace rasengan
