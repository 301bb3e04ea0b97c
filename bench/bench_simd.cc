/**
 * @file
 * Scalar-vs-SIMD A/B for the amplitude kernel tier (qsim/simd.h),
 * written as a machine-readable artifact (BENCH_simd.json).
 *
 * For every ISA the build and CPU support, each hot kernel family is
 * timed against the scalar reference on identical inputs:
 *
 *   - dense_1q_layer:     apply1q sweep over every qubit (>= 20 qubits
 *                         outside fast mode);
 *   - dense_cx_chain:     applyControlled1q chain;
 *   - dense_diag_evo:     applyDiagonalEvolution (scalar libm phase
 *                         factors, vectorized multiply);
 *   - dense_diag_terms:   applyDiagonalTerms with a deep coalesced
 *                         term block (vectorized control-mask scan).
 *
 * Every SIMD record carries speedup_vs_scalar and max_abs_diff; the
 * determinism contract makes the latter exactly 0.0, and CI fails the
 * artifact otherwise.
 *
 * Knobs: RASENGAN_BENCH_FAST=1 shrinks sizes/repeats;
 * RASENGAN_BENCH_JSON overrides the output path.
 */

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "circuit/fusion.h"
#include "circuit/gatematrix.h"
#include "common/timer.h"
#include "qsim/simd.h"
#include "qsim/statevector.h"

namespace {

using namespace rasengan;
using Complex = std::complex<double>;

struct Record
{
    std::string kernel;
    std::string isa;
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
timeKernel(const std::string &kernel, qsim::SimdIsa isa, int repeats,
           const std::function<void()> &body)
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
    rec.isa = qsim::simdIsaName(isa);
    rec.repeats = repeats;
    rec.medianMs = medianOf(ms);
    rec.minMs = *std::min_element(ms.begin(), ms.end());
    g_records.push_back(std::move(rec));
    return g_records.back();
}

double
maxAbsDiff(const std::vector<Complex> &a, const std::vector<Complex> &b)
{
    double worst = a.size() == b.size()
                       ? 0.0
                       : std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < a.size() && i < b.size(); ++i)
        worst = std::max(worst, std::abs(a[i] - b[i]));
    return worst;
}

/**
 * A/B one dense kernel: run @p body once per ISA on a fresh state
 * prepared by @p prepare, recording time, speedup vs scalar, and the
 * max |amp| deviation from the scalar run's final state (expected 0).
 */
void
abDense(const std::string &kernel, int n, int repeats,
        const std::function<void(qsim::Statevector &)> &prepare,
        const std::function<void(qsim::Statevector &)> &body,
        bench::Table &table)
{
    std::vector<Complex> scalar_amps;
    double scalar_ms = 0.0;
    for (qsim::SimdIsa isa : qsim::simdAvailableIsas()) {
        if (!qsim::setSimdIsa(isa))
            continue;
        qsim::Statevector sv(n);
        prepare(sv);
        Record &rec =
            timeKernel(kernel, isa, repeats, [&] { body(sv); });
        rec.extra.emplace_back("qubits", n);
        double diff = 0.0;
        if (isa == qsim::SimdIsa::Scalar) {
            scalar_amps = sv.amplitudes();
            scalar_ms = rec.medianMs;
        } else {
            diff = maxAbsDiff(sv.amplitudes(), scalar_amps);
            rec.extra.emplace_back("max_abs_diff", diff);
            rec.extra.emplace_back("speedup_vs_scalar",
                                   rec.medianMs > 0.0
                                       ? scalar_ms / rec.medianMs
                                       : 0.0);
        }
        table.cell(kernel);
        table.cell(rec.isa);
        table.cell(rec.medianMs);
        table.cell(isa == qsim::SimdIsa::Scalar
                       ? 1.0
                       : (rec.medianMs > 0.0 ? scalar_ms / rec.medianMs
                                             : 0.0),
                   "%.2f");
        table.cell(diff, "%.1e");
        table.endRow();
    }
}

void
benchDense(int n, int repeats, bench::Table &table)
{
    const qsim::Mat2 h = circuit::gateMatrix(circuit::GateKind::H, 0.0);
    const qsim::Mat2 ry =
        circuit::gateMatrix(circuit::GateKind::RY, 0.371);
    const qsim::Mat2 x = circuit::gateMatrix(circuit::GateKind::X, 0.0);

    auto spread = [&](qsim::Statevector &sv) {
        for (int q = 0; q < sv.numQubits(); ++q)
            sv.apply1q(q, h);
    };

    abDense("dense_1q_layer", n, repeats, spread,
            [&](qsim::Statevector &sv) {
                for (int q = 0; q < sv.numQubits(); ++q)
                    sv.apply1q(q, ry);
            },
            table);

    abDense("dense_cx_chain", n, repeats, spread,
            [&](qsim::Statevector &sv) {
                for (int q = 0; q + 1 < sv.numQubits(); ++q)
                    sv.applyControlled1q({q}, q + 1, x);
            },
            table);

    std::vector<double> values(size_t{1} << n);
    for (size_t i = 0; i < values.size(); ++i)
        values[i] = 1e-3 * static_cast<double>(i % 97);
    abDense("dense_diag_evo", n, repeats, spread,
            [&](qsim::Statevector &sv) {
                sv.applyDiagonalEvolution(values, 0.25);
            },
            table);

    // A deep coalesced diagonal block, the shape fusion emits for long
    // RZ/CP chains: the control-mask scan dominates.
    std::vector<circuit::DiagTerm> terms;
    for (int q = 0; q < n; ++q)
        terms.push_back({0, uint64_t{1} << q, 0.0, 0.02 * (q + 1)});
    for (int q = 0; q + 1 < n; ++q)
        terms.push_back({uint64_t{1} << q, uint64_t{1} << (q + 1), 0.0,
                         0.01 * (q + 1)});
    abDense("dense_diag_terms", n, repeats, spread,
            [&](qsim::Statevector &sv) { sv.applyDiagonalTerms(terms); },
            table);
}

void
writeJson(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "cannot open %s for writing\n",
                     path.c_str());
        return;
    }
    std::fprintf(f, "{\n  \"benchmark\": \"simd\",\n");
    std::fprintf(f, "  \"best_isa\": \"%s\",\n",
                 qsim::simdIsaName(qsim::simdBestIsa()));
    std::fprintf(f, "  \"records\": [\n");
    for (size_t i = 0; i < g_records.size(); ++i) {
        const Record &r = g_records[i];
        std::fprintf(f,
                     "    {\"kernel\": \"%s\", \"isa\": \"%s\", "
                     "\"repeats\": %d, \"median_ms\": %.6f, "
                     "\"min_ms\": %.6f",
                     r.kernel.c_str(), r.isa.c_str(), r.repeats,
                     r.medianMs, r.minMs);
        for (const auto &[key, value] : r.extra)
            std::fprintf(f, ", \"%s\": %g", key.c_str(), value);
        std::fprintf(f, "}%s\n", i + 1 < g_records.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %zu records to %s\n", g_records.size(),
                path.c_str());
}

} // namespace

int
main()
{
    const bool fast = bench::fastMode();
    const int repeats = fast ? 5 : 7;
    const int n_dense = fast ? 16 : 20;

    std::printf("simd bench: best ISA %s, %d dense qubits, %d repeats%s\n",
                qsim::simdIsaName(qsim::simdBestIsa()), n_dense, repeats,
                fast ? " (fast mode)" : "");

    bench::banner("scalar vs SIMD kernels");
    bench::Table table(
        {"kernel", "isa", "median_ms", "speedup", "max_diff"});
    table.printHeader();
    benchDense(n_dense, repeats, table);

    const char *env = std::getenv("RASENGAN_BENCH_JSON");
    writeJson(env && *env ? env : "BENCH_simd.json");
    return 0;
}
