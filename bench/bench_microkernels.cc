/**
 * @file
 * Microbenchmarks for the hot simulation kernels, hand-rolled so the
 * results land in a machine-readable artifact (BENCH_kernels.json).
 *
 * Each kernel runs serially and is timed for >= 5 repeats and reported
 * as the median:
 *
 *   - the dense kernels (gate application, diagonal evolution, the norm
 *     reduction) under the scalar ISA and the best vector ISA;
 *   - alias-table sampling (dense, and the sparse segment sampler at
 *     the suite's support sizes) and noisy trajectories;
 *   - fusion on vs. off for full-circuit application (a transpiled
 *     Rasengan segment circuit and a synthetic deep circuit), with the
 *     fused/source gate counts recorded alongside the times.
 *
 * Knobs: RASENGAN_BENCH_FAST=1 shrinks sizes/repeats for CI smoke runs;
 * RASENGAN_BENCH_JSON overrides the output path.
 */

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench_util.h"
#include "circuit/fusion.h"
#include "circuit/transpile.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/rasengan.h"
#include "problems/suite.h"
#include "qsim/counts.h"
#include "qsim/noise.h"
#include "qsim/simd.h"
#include "qsim/sparsestate.h"
#include "qsim/statevector.h"

namespace {

using namespace rasengan;

struct Record
{
    std::string kernel;
    std::string variant; ///< "isa=NAME", "serial", "fused", "unfused"
    int repeats = 0;
    double medianMs = 0.0;
    double minMs = 0.0;
    /** Extra kernel-specific fields (gate counts, shots, ...). */
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

/**
 * Time @p body for @p repeats runs (after one untimed warmup) and
 * record the median.  @p setup runs before each timed repeat, outside
 * the timed region.
 */
Record &
timeKernel(const std::string &kernel, const std::string &variant,
           int repeats, const std::function<void()> &setup,
           const std::function<void()> &body)
{
    setup();
    body(); // warmup: first-touch pages, populate caches
    std::vector<double> ms;
    ms.reserve(repeats);
    for (int r = 0; r < repeats; ++r) {
        setup();
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

/** Deep, structured circuit exercising runs + diagonal chains. */
circuit::Circuit
layeredCircuit(int n, int layers)
{
    circuit::Circuit circ(n);
    for (int l = 0; l < layers; ++l) {
        for (int q = 0; q < n; ++q) {
            circ.h(q);
            circ.rz(q, 0.1 * (l + 1));
            circ.rx(q, 0.05 * (q + 1));
        }
        for (int q = 0; q < n; ++q)
            circ.p(q, 0.2);
        for (int q = 0; q + 1 < n; ++q)
            circ.cp(q, q + 1, 0.15);
        for (int q = 0; q + 1 < n; q += 2)
            circ.cx(q, q + 1);
    }
    return circ;
}

void
benchGateKernels(int n, int repeats)
{
    bench::banner("dense gate kernels");
    bench::Table table({"kernel", "isa", "median_ms"});
    table.printHeader();

    qsim::Mat2 h = qsim::gateMatrix(circuit::GateKind::H, 0.0);
    qsim::Mat2 x = qsim::gateMatrix(circuit::GateKind::X, 0.0);
    qsim::Statevector sv(n);
    std::vector<double> values(sv.dimension());
    for (size_t i = 0; i < values.size(); ++i)
        values[i] = 1e-3 * static_cast<double>(i % 97);

    // Scalar is always present; the best vector ISA adds a second row
    // per kernel when the CPU has one.
    std::vector<qsim::SimdIsa> isas = {qsim::SimdIsa::Scalar};
    if (qsim::simdBestIsa() != qsim::SimdIsa::Scalar)
        isas.push_back(qsim::simdBestIsa());

    for (qsim::SimdIsa isa : isas) {
        if (!qsim::setSimdIsa(isa))
            continue;
        const std::string isa_name = qsim::simdIsaName(isa);
        const std::string variant = "isa=" + isa_name;
        auto row = [&](const char *label, const std::string &kernel,
                       const std::function<void()> &body) {
            Record &rec = timeKernel(kernel, variant, repeats, [] {}, body);
            rec.extra.emplace_back("qubits", n);
            table.cell(label);
            table.cell(isa_name);
            table.cell(rec.medianMs);
            table.endRow();
        };
        row("h_layer", "apply1q_hadamard_layer", [&] {
            for (int q = 0; q < n; ++q)
                sv.apply1q(q, h);
        });
        row("cx_chain", "cx_chain", [&] {
            for (int q = 0; q + 1 < n; ++q)
                sv.applyControlled1q({q}, q + 1, x);
        });
        row("diag_evo", "diagonal_evolution",
            [&] { sv.applyDiagonalEvolution(values, 0.25); });
        row("norm", "norm_reduction", [&] {
            volatile double sink = sv.normSquared();
            (void)sink;
        });
    }
    qsim::setSimdIsa(qsim::simdBestIsa());
}

void
benchSampling(int n, uint64_t shots, int repeats)
{
    bench::banner("alias sampling");
    bench::Table table({"kernel", "median_ms"});
    table.printHeader();

    qsim::Statevector sv(n);
    qsim::Mat2 h = qsim::gateMatrix(circuit::GateKind::H, 0.0);
    for (int q = 0; q < n; ++q)
        sv.apply1q(q, h);

    Record &rec = timeKernel("sample_alias", "serial", repeats, [] {}, [&] {
        Rng rng(7);
        qsim::Counts counts = sv.sample(rng, shots);
        volatile uint64_t sink = counts.total();
        (void)sink;
    });
    rec.extra.emplace_back("qubits", n);
    rec.extra.emplace_back("shots", static_cast<double>(shots));
    table.cell("sample");
    table.cell(rec.medianMs);
    table.endRow();

    // The Rasengan segment sampler's shape: supports of <= 8 states at
    // 512 shots, timed over many calls (one call is ~1 us).
    for (size_t support : {1, 4, 8}) {
        std::vector<BitVec> keys;
        std::vector<std::complex<double>> amps;
        for (size_t i = 0; i < support; ++i) {
            keys.push_back(BitVec::fromIndex(3 * i + 1));
            amps.emplace_back(0.1 * static_cast<double>(i + 1), 0.2);
        }
        const qsim::SparseState state =
            qsim::SparseState::fromSorted(n, keys, amps);
        const uint64_t sparse_shots = 512;
        const int calls = 2000;
        Record &sparse = timeKernel(
            "sample_sparse", "support=" + std::to_string(support), repeats,
            [] {}, [&] {
                Rng rng(7);
                uint64_t total = 0;
                for (int c = 0; c < calls; ++c)
                    total += state.sample(rng, sparse_shots).total();
                volatile uint64_t sink = total;
                (void)sink;
            });
        sparse.extra.emplace_back("support", static_cast<double>(support));
        sparse.extra.emplace_back("shots", static_cast<double>(sparse_shots));
        sparse.extra.emplace_back("calls", calls);
        table.cell("sparse/" + std::to_string(support));
        table.cell(sparse.medianMs);
        table.endRow();
    }
}

void
benchTrajectories(int repeats)
{
    bench::banner("noisy trajectories");
    bench::Table table({"kernel", "median_ms"});
    table.printHeader();

    const int n = 12;
    circuit::Circuit circ = layeredCircuit(n, 3);
    qsim::NoiseModel noise;
    noise.depol1q = 0.001;
    noise.depol2q = 0.005;
    noise.readoutError = 0.01;

    Record &rec = timeKernel(
        "noisy_trajectories", "serial", repeats, [] {}, [&] {
            Rng rng(3);
            qsim::Counts counts = qsim::sampleNoisy(
                circ, n, BitVec{}, noise, rng, 256, /*trajectories=*/8);
            volatile uint64_t sink = counts.total();
            (void)sink;
        });
    rec.extra.emplace_back("qubits", n);
    rec.extra.emplace_back("trajectories", 8);
    table.cell("noisy");
    table.cell(rec.medianMs);
    table.endRow();
}

void
benchFusion(int n, int layers, int repeats)
{
    bench::banner("gate fusion (full circuit)");
    bench::Table table({"circuit", "variant", "median_ms", "gates"});
    table.printHeader();

    struct Case
    {
        std::string name;
        circuit::Circuit circ;
    };
    std::vector<Case> cases;
    cases.push_back({"layered", layeredCircuit(n, layers)});

    // A transpiled Rasengan segment: the shape this pass is built for.
    problems::Problem p = problems::makeBenchmark("S2");
    core::RasenganSolver solver(p, {});
    std::vector<double> nominal(solver.numParams(), 0.5);
    cases.push_back({"segment_S2",
                     circuit::transpile(solver.segmentCircuit(
                         0, p.trivialFeasible(), nominal))});

    for (const Case &c : cases) {
        const int nq = c.circ.numQubits();
        circuit::FusedProgram prog = circuit::fuseCircuit(c.circ);

        circuit::setFusionEnabled(false);
        Record &plain = timeKernel(
            c.name + "_apply", "unfused", repeats, [] {},
            [&] {
                qsim::Statevector sv(nq);
                sv.applyCircuit(c.circ);
            });
        plain.extra.emplace_back("gates",
                                 static_cast<double>(prog.sourceOps));
        table.cell(c.name);
        table.cell("unfused");
        table.cell(plain.medianMs);
        table.cell(static_cast<int>(prog.sourceOps));
        table.endRow();

        circuit::setFusionEnabled(true);
        Record &fused = timeKernel(
            c.name + "_apply", "fused", repeats, [] {},
            [&] {
                qsim::Statevector sv(nq);
                sv.applyFused(prog);
            });
        fused.extra.emplace_back("gates",
                                 static_cast<double>(prog.fusedOps()));
        fused.extra.emplace_back("fusion_ratio",
                                 prog.fusedOps() == 0
                                     ? 0.0
                                     : static_cast<double>(prog.sourceOps) /
                                           static_cast<double>(
                                               prog.fusedOps()));
        table.cell(c.name);
        table.cell("fused");
        table.cell(fused.medianMs);
        table.cell(static_cast<int>(prog.fusedOps()));
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
    std::fprintf(f, "{\n  \"benchmark\": \"microkernels\",\n");
    std::fprintf(f, "  \"records\": [\n");
    for (size_t i = 0; i < g_records.size(); ++i) {
        const Record &r = g_records[i];
        std::fprintf(f,
                     "    {\"kernel\": \"%s\", \"variant\": \"%s\", "
                     "\"repeats\": %d, \"median_ms\": %.6f, "
                     "\"min_ms\": %.6f",
                     r.kernel.c_str(), r.variant.c_str(), r.repeats,
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

    std::printf("microkernel bench: %d dense qubits, %d repeats%s\n",
                n_dense, repeats, fast ? " (fast mode)" : "");

    benchGateKernels(n_dense, repeats);
    benchSampling(fast ? 14 : 18, fast ? 20000 : 100000, repeats);
    benchTrajectories(repeats);
    benchFusion(fast ? 10 : 12, fast ? 4 : 8, repeats);

    const char *env = std::getenv("RASENGAN_BENCH_JSON");
    writeJson(env && *env ? env : "BENCH_kernels.json");
    return 0;
}
