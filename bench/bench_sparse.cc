/**
 * @file
 * A/B benchmark for the sparse simulation engine: the seed hash-map
 * engine (bench/legacy_sparsestate.h, preserved verbatim as an
 * independent reference) against the flat structure-of-arrays engine
 * (qsim/sparsestate.h).
 *
 * Workload: the full pruned transition chain of the Figure-10
 * scalability FLP instances (up to 105 variables, maxTrackedStates
 * 20000 like bench_fig10), applied from the trivial feasible state --
 * exactly the inner loop the optimizer executes hundreds of times per
 * solve.  Every A/B case also records the maximum absolute amplitude
 * difference between the engines so the artifact doubles as an
 * agreement check (CI asserts <= 1e-10).
 *
 * Knobs: RASENGAN_BENCH_FAST=1 trims sizes/repeats for CI smoke runs;
 * RASENGAN_BENCH_JSON overrides the output path (BENCH_sparse.json).
 */

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/rasengan.h"
#include "legacy_sparsestate.h"
#include "problems/suite.h"
#include "qsim/sparsestate.h"

namespace {

using namespace rasengan;

struct Record
{
    std::string kernel;
    std::string variant; ///< "legacy" or "soa"
    int repeats = 0;
    double medianMs = 0.0;
    double minMs = 0.0;
    std::vector<std::pair<std::string, double>> extra;
};

std::vector<Record> g_records;

double
medianOf(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Record &
timeKernel(const std::string &kernel, const std::string &variant,
           int repeats, const std::function<void()> &body)
{
    body(); // warmup
    std::vector<double> ms;
    ms.reserve(repeats);
    for (int r = 0; r < repeats; ++r) {
        Stopwatch sw;
        sw.start();
        body();
        sw.stop();
        ms.push_back(sw.seconds() * 1e3);
    }
    Record rec;
    rec.kernel = kernel;
    rec.variant = variant;
    rec.repeats = repeats;
    rec.medianMs = medianOf(ms);
    rec.minMs = *std::min_element(ms.begin(), ms.end());
    g_records.push_back(std::move(rec));
    return g_records.back();
}

/** One Figure-10 instance: problem + pruned chain + evolution times. */
struct ChainCase
{
    int numVars = 0;
    problems::Problem problem;
    std::vector<core::TransitionHamiltonian> transitions;
    std::vector<int> steps; ///< chain positions into `transitions`
    std::vector<double> times;
};

ChainCase
makeChainCase(int num_vars)
{
    ChainCase c{.numVars = num_vars,
                .problem = problems::makeScalabilityFlp(num_vars),
                .transitions = {},
                .steps = {},
                .times = {}};
    core::RasenganOptions opts;
    opts.maxTrackedStates = 20000; // bench_fig10's reachability cap
    core::PipelineArtifacts art =
        core::buildPipelineArtifacts(c.problem, opts);
    c.transitions = std::move(art.transitions);
    c.steps = art.chain.steps;
    Rng rng(17);
    c.times.reserve(c.steps.size());
    for (size_t k = 0; k < c.steps.size(); ++k)
        c.times.push_back(rng.uniformReal(0.3, 1.1));
    return c;
}

/** Run the full chain on the legacy engine; returns the final state. */
bench::LegacySparseState
runLegacy(const ChainCase &c)
{
    bench::LegacySparseState s(c.numVars, c.problem.trivialFeasible());
    for (size_t k = 0; k < c.steps.size(); ++k) {
        const auto &tau = c.transitions[c.steps[k]];
        s.applyPairRotation(tau.mask(), tau.patternPlus(), c.times[k]);
    }
    return s;
}

/** Run the full chain on the SoA engine; returns the final state. */
qsim::SparseState
runSoa(const ChainCase &c)
{
    qsim::SparseState s(c.numVars, c.problem.trivialFeasible());
    for (size_t k = 0; k < c.steps.size(); ++k) {
        const auto &tau = c.transitions[c.steps[k]];
        s.applyPairRotation(tau.mask(), tau.patternPlus(), c.times[k]);
    }
    return s;
}

/** Max |amp_legacy - amp_soa| over the union of both supports. */
double
maxAmplitudeDiff(const bench::LegacySparseState &legacy,
                 const qsim::SparseState &soa)
{
    double max_diff = 0.0;
    for (const auto &[x, a] : legacy.amplitudes())
        max_diff = std::max(max_diff, std::abs(a - soa.amplitude(x)));
    for (size_t i = 0; i < soa.keys().size(); ++i)
        max_diff = std::max(max_diff,
                            std::abs(soa.amps()[i] -
                                     legacy.amplitude(soa.keys()[i])));
    return max_diff;
}

void
benchEngineAB(const std::vector<int> &sizes, int repeats)
{
    bench::banner("legacy hash-map vs flat SoA");
    bench::Table table({"vars", "chain", "support", "legacy_ms", "soa_ms",
                        "speedup", "max_diff"});
    table.printHeader();

    for (int v : sizes) {
        ChainCase c = makeChainCase(v);

        bench::LegacySparseState legacy_final = runLegacy(c);
        qsim::SparseState soa_final = runSoa(c);
        const double max_diff = maxAmplitudeDiff(legacy_final, soa_final);

        // NOTE: timeKernel's Record& is only valid until the next call
        // pushes into g_records -- attach extras before re-entering.
        auto commonExtras = [&](Record &r, size_t support) {
            r.extra.emplace_back("vars", v);
            r.extra.emplace_back("chain_steps",
                                 static_cast<double>(c.steps.size()));
            r.extra.emplace_back("support",
                                 static_cast<double>(support));
        };

        Record &old_rec =
            timeKernel("chain_evolution_" + std::to_string(v), "legacy",
                       repeats, [&] {
                           bench::LegacySparseState s = runLegacy(c);
                           volatile size_t sink = s.supportSize();
                           (void)sink;
                       });
        commonExtras(old_rec, soa_final.supportSize());
        old_rec.extra.emplace_back("max_abs_diff", max_diff);
        const double legacy_ms = old_rec.medianMs;

        Record &new_rec =
            timeKernel("chain_evolution_" + std::to_string(v), "soa",
                       repeats, [&] {
                           qsim::SparseState s = runSoa(c);
                           volatile size_t sink = s.supportSize();
                           (void)sink;
                       });
        const double soa_ms = new_rec.medianMs;
        const double speedup =
            soa_ms > 0.0 ? legacy_ms / soa_ms : 0.0;
        commonExtras(new_rec, soa_final.supportSize());
        new_rec.extra.emplace_back("max_abs_diff", max_diff);
        new_rec.extra.emplace_back("speedup_vs_legacy", speedup);

        table.cell(v);
        table.cell(static_cast<int>(c.steps.size()));
        table.cell(static_cast<int>(soa_final.supportSize()));
        table.cell(legacy_ms);
        table.cell(soa_ms);
        table.cell(speedup, "%.2f");
        table.cell(max_diff, "%.2e");
        table.endRow();
    }
}

void
writeJson(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"sparse\",\n");
    std::fprintf(f, "  \"records\": [\n");
    for (size_t i = 0; i < g_records.size(); ++i) {
        const Record &r = g_records[i];
        std::fprintf(f,
                     "    {\"kernel\": \"%s\", \"variant\": \"%s\", "
                     "\"repeats\": %d, "
                     "\"median_ms\": %.6f, \"min_ms\": %.6f",
                     r.kernel.c_str(), r.variant.c_str(), r.repeats,
                     r.medianMs, r.minMs);
        for (const auto &[key, value] : r.extra)
            std::fprintf(f, ", \"%s\": %g", key.c_str(), value);
        std::fprintf(f, "}%s\n", i + 1 < g_records.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::printf("\nwrote %zu records to %s\n", g_records.size(),
                path.c_str());
}

} // namespace

int
main()
{
    const bool fast = bench::fastMode();
    const int repeats = fast ? 3 : 5;

    // Figure-10 FLP sizes; fast mode keeps the tail short for CI.
    std::vector<int> sizes;
    for (int v : problems::scalabilityFlpSizes()) {
        if (v > (fast ? 60 : 105))
            break;
        if (v >= 14)
            sizes.push_back(v);
    }

    std::printf("sparse engine bench: %zu FLP sizes (max %d vars), "
                "%d repeats%s\n",
                sizes.size(), sizes.back(), repeats,
                fast ? " (fast mode)" : "");

    benchEngineAB(sizes, repeats);

    const char *env = std::getenv("RASENGAN_BENCH_JSON");
    writeJson(env && *env ? env : "BENCH_sparse.json");
    return 0;
}
