/**
 * @file
 * End-to-end benchmark harness: fixed seeded work goes in through the
 * real driver binaries, a result digest and named metrics come out.
 *
 * Usage (bench/e2e/run.sh builds everything and passes --bin/--work):
 *   e2e_harness --bin DIR --work DIR [--expected FILE] [--spans DIR]
 *               [--workload NAME] [--seed N] [--seconds S]
 *               [--trace 0|1] [--smoke]
 *
 * Without --workload every workload runs in turn.  With --trace 0 a run
 * repeats rounds of the workload for --seconds and reports end-to-end
 * metrics; with --trace 1 it runs the traced pass (traced.h) once and
 * reports per-layer metrics.  Every metric is printed as
 * `name workload value unit`; the last line of stdout is one JSON
 * object {"correct","attempted","failed","metrics"}.  A failed output
 * check prints the reason on stderr, reports no metrics, and exits 1.
 */

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "drivers.h"
#include "outcome.h"
#include "serve/jsonl.h"
#include "traced.h"
#include "workloads.h"

using namespace e2e;

namespace {

struct Options
{
    std::string bin;
    std::string work;
    std::string spans;
    std::string expected;
    std::string workload; ///< "" = all
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
};

bool
parseArgs(int argc, char **argv, Options &opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        const char *v = i + 1 < argc ? argv[i + 1] : nullptr;
        auto take = [&]() {
            ++i;
            return std::string(v);
        };
        if (flag == "--smoke") {
            opt.smoke = true;
        } else if (v == nullptr) {
            std::fprintf(stderr, "missing value for %s\n", flag.c_str());
            return false;
        } else if (flag == "--bin") {
            opt.bin = take();
        } else if (flag == "--work") {
            opt.work = take();
        } else if (flag == "--spans") {
            opt.spans = take();
        } else if (flag == "--expected") {
            opt.expected = take();
        } else if (flag == "--workload") {
            opt.workload = take();
        } else if (flag == "--seed") {
            opt.seed = std::strtoull(take().c_str(), nullptr, 10);
        } else if (flag == "--seconds") {
            opt.seconds = std::strtod(take().c_str(), nullptr);
        } else if (flag == "--trace") {
            const std::string t = take();
            if (t != "0" && t != "1") {
                std::fprintf(stderr, "--trace takes 0 or 1\n");
                return false;
            }
            opt.trace = t == "1";
        } else {
            std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
            return false;
        }
    }
    if (opt.bin.empty() || opt.work.empty()) {
        std::fprintf(stderr, "--bin and --work are required\n");
        return false;
    }
    if (!(opt.seconds > 0.0)) {
        std::fprintf(stderr, "--seconds must be positive\n");
        return false;
    }
    if (opt.spans.empty())
        opt.spans = opt.work;
    return true;
}

/**
 * Host-speed canary: median of five timings of a fixed single-thread
 * integer loop.  Printed, never scored: it shows host drift beside the
 * metrics.
 */
double
calibrationMs()
{
    std::vector<double> samples;
    for (int rep = 0; rep < 5; ++rep) {
        const double start = nowMs();
        uint64_t x = 0x9e3779b97f4a7c15ull;
        for (int i = 0; i < 10'000'000; ++i)
            x = (x ^ (x >> 29)) * 0xbf58476d1ce4e5b9ull + 1;
        volatile uint64_t sink = x;
        (void)sink;
        samples.push_back(nowMs() - start);
    }
    return median(samples);
}

/**
 * --trace 0: set-up time, then rounds of the workload through its
 * driver until --seconds have passed, then the output checks.  Every
 * round runs the same requests, so every round must return the same
 * bytes.
 */
Outcome
measureEndToEnd(const Workload &w, const Paths &paths, const Options &opt,
                const std::string &expectedDigest)
{
    Outcome out;
    out.attempted = w.requests.size();
    writeRequests(w, paths);
    const double setupS = setupSeconds(w, paths, opt.smoke ? 5 : 21);
    if (setupS <= 0.0) {
        out.fail("driver set-up launches failed, see " + paths.work);
        return out;
    }

    // Cross-path reference: the cluster and the daemon must answer with
    // the bytes single-process batch serve writes for the same requests.
    std::string reference;
    if (w.driver != Driver::Serve) {
        Round ref = batchRound(paths, Driver::Serve, w.serveArgs,
                               "reference");
        if (!ref.ok) {
            out.fail(ref.error);
            return out;
        }
        reference = ref.bytes;
    }

    std::vector<Round> rounds;
    const double start = nowMs();
    do {
        const std::string tag = "round" + std::to_string(rounds.size());
        rounds.push_back(w.driver == Driver::Daemon
                             ? daemonRound(w, paths, tag)
                             : batchRound(paths, w.driver, w.driverArgs,
                                          tag));
        if (!rounds.back().ok) {
            out.fail(rounds.back().error);
            return out;
        }
    } while (!opt.smoke && nowMs() - start < opt.seconds * 1e3);

    const std::string &bytes = rounds.front().bytes;
    Check check = checkRound(w, bytes);
    if (!check.ok) {
        out.fail(check.error);
        return out;
    }
    for (size_t r = 1; r < rounds.size(); ++r)
        if (rounds[r].bytes != bytes) {
            out.fail("round " + std::to_string(r) +
                     " returned different result bytes than round 0");
            return out;
        }
    if (!reference.empty() && bytes != reference) {
        out.fail("result bytes differ from rasengan_serve on the same "
                 "requests");
        return out;
    }
    if (!expectedDigest.empty() && digest(bytes) != expectedDigest) {
        out.fail("result digest " + digest(bytes) + " != committed " +
                 expectedDigest);
        return out;
    }
    if (check.okJobs == 0) {
        out.fail("no job succeeded");
        return out;
    }

    // Each round yields one value of every timing metric, and the run
    // reports its best round.  Other tenants of a shared host only ever
    // slow a round down, in minute-long spells, so the best round tracks
    // the code and the median round tracks the host.
    const double okJobs = static_cast<double>(check.okJobs);
    std::vector<double> throughput, p50, p95, cpuMs, rss;
    double genLate = 0.0;
    for (const Round &r : rounds) {
        throughput.push_back(okJobs / r.wallS);
        cpuMs.push_back(r.proc.cpuS * 1e3 / okJobs);
        rss.push_back(r.proc.maxRssMb);
        genLate = std::max(genLate, r.genLateMsMax);
        if (w.driver == Driver::Daemon) {
            std::vector<double> latency;
            for (const auto &[id, ms] : r.latencyMsById)
                latency.push_back(ms);
            p50.push_back(quantile(latency, 0.50));
            p95.push_back(quantile(latency, 0.95));
        } else {
            // A batch answers every job when the driver exits.
            p50.push_back(r.wallS * 1e3);
            p95.push_back(r.wallS * 1e3);
        }
    }
    out.attempted = w.requests.size() * rounds.size();
    out.failed = check.failedJobs * rounds.size();
    out.metric("jobs_per_s", quantile(throughput, 1.0), "1/s");
    out.metric("latency_p50_ms", quantile(p50, 0.0), "ms");
    out.metric("latency_p95_ms", quantile(p95, 0.0), "ms");
    out.metric("setup_s", setupS, "s");
    out.metric("peak_rss_mb", median(rss), "MB");
    out.metric("cpu_ms_per_job", quantile(cpuMs, 0.0), "ms");
    out.note("rounds", static_cast<double>(rounds.size()), "count");
    out.note("jobs_per_s.median_round", median(throughput), "1/s");
    if (w.driver == Driver::Daemon)
        out.note("gen_late_ms_max", genLate, "ms");
    out.digest = digest(bytes);
    return out;
}

void
printJson(bool correct, uint64_t attempted, uint64_t failed,
          const std::vector<std::pair<std::string, Metric>> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].first.c_str(),
                    metrics[i].second.value,
                    metrics[i].second.unit.c_str());
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt))
        return 2;

    std::vector<std::string> names = workloadNames();
    if (!opt.workload.empty()) {
        Workload probe;
        if (!makeWorkload(opt.workload, opt.seed, opt.smoke, probe)) {
            std::fprintf(stderr, "unknown workload %s\n",
                         opt.workload.c_str());
            return 2;
        }
        names = {opt.workload};
    }

    // Committed digests: flat JSON with the seed they hold for and one
    // "<workload>" / "<workload>.smoke" key per workload.
    rasengan::serve::JsonObject expected;
    std::string text;
    if (!opt.expected.empty() && readFile(opt.expected, text))
        expected = rasengan::serve::parseFlatJson(text).object;
    const bool digestSeed = expected.count("seed") != 0 &&
                            expected["seed"].num ==
                                static_cast<double>(opt.seed);

    const double calibStart = calibrationMs();
    bool correct = true;
    uint64_t attempted = 0, failed = 0;
    std::vector<std::pair<std::string, Metric>> scored;
    for (const std::string &name : names) {
        Workload w;
        makeWorkload(name, opt.seed, opt.smoke, w);
        Paths paths{opt.bin, opt.work + "/" + name + "-" +
                                 std::to_string(::getpid())};
        std::filesystem::create_directories(paths.work);
        std::filesystem::create_directories(opt.spans);
        const std::string key = name + (opt.smoke ? ".smoke" : "");
        const std::string digestWanted =
            digestSeed && expected.count(key) ? expected[key].str : "";
        const std::string spanFile = opt.spans + "/" + name + "-seed" +
                                     std::to_string(opt.seed) + ".json";

        Outcome o = opt.trace ? measureTraced(w, paths, digestWanted,
                                              opt.smoke ? 1 : 3, spanFile)
                              : measureEndToEnd(w, paths, opt,
                                                digestWanted);
        attempted += o.attempted;
        failed += o.failed;
        if (!o.correct) {
            correct = false;
            std::fprintf(stderr, "e2e: %s: FAILED: %s\n", name.c_str(),
                         o.error.c_str());
            continue;
        }
        std::filesystem::remove_all(paths.work);
        std::printf("digest %s %s %s\n", name.c_str(), o.digest.c_str(),
                    digestWanted.empty() ? "(no committed digest for "
                                           "this seed)"
                                         : "(matches committed)");
        if (opt.trace)
            std::printf("spans %s %s\n", name.c_str(), spanFile.c_str());
        for (const Metric &m : o.notes)
            std::printf("%s %s %.6g %s\n", m.name.c_str(), name.c_str(),
                        m.value, m.unit.c_str());
        for (const Metric &m : o.metrics) {
            std::printf("%s %s %.6g %s\n", m.name.c_str(), name.c_str(),
                        m.value, m.unit.c_str());
            scored.emplace_back(
                names.size() == 1 ? m.name : name + "/" + m.name, m);
        }
    }
    std::printf("host.calib_ms start %.4g ms\nhost.calib_ms end %.4g ms\n",
                calibStart, calibrationMs());
    if (!correct)
        scored.clear();
    printJson(correct, attempted, failed, scored);
    return correct ? 0 : 1;
}
