/**
 * @file
 * Tests for the parallelism substrate (common/parallel.h): the job
 * pool's dynamic dispatch and the blocked reductions' fixed
 * association, plus randomized gate-fusion equivalence and the alias
 * sampler.
 *
 * Thread-count invariance of whole batches is asserted where threads
 * remain, on the batch scheduler (tests/test_serve.cc).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <complex>
#include <cstdlib>
#include <limits>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/fusion.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "qsim/density.h"
#include "qsim/statevector.h"

namespace rasengan {
namespace {

const std::vector<int> kSweep = {1, 2, 7};

/** RAII: restore the env-derived thread configuration on scope exit. */
struct ThreadGuard
{
    ~ThreadGuard() { parallel::setThreadCount(0); }
};

/** RAII: restore the fusion toggle on scope exit. */
struct FusionGuard
{
    bool saved = circuit::fusionEnabled();
    ~FusionGuard() { circuit::setFusionEnabled(saved); }
};

/**
 * Random circuit over the full simulator-supported gate set (everything
 * except measurement/reset, which the dense path rejects mid-circuit).
 */
circuit::Circuit
randomCircuit(int n, int depth, Rng &rng)
{
    circuit::Circuit circ(n);
    auto pickOther = [&](int q) {
        int r = static_cast<int>(rng.uniformInt(0, n - 2));
        return r >= q ? r + 1 : r;
    };
    for (int g = 0; g < depth; ++g) {
        int kind = static_cast<int>(rng.uniformInt(0, 10));
        int q = static_cast<int>(rng.uniformInt(0, n - 1));
        double theta = rng.uniformReal(-M_PI, M_PI);
        switch (kind) {
          case 0: circ.x(q); break;
          case 1: circ.h(q); break;
          case 2: circ.rx(q, theta); break;
          case 3: circ.ry(q, theta); break;
          case 4: circ.rz(q, theta); break;
          case 5: circ.p(q, theta); break;
          case 6: circ.cx(pickOther(q), q); break;
          case 7: circ.cp(pickOther(q), q, theta); break;
          case 8: circ.swap(q, pickOther(q)); break;
          case 9: {
            int c0 = pickOther(q);
            int c1 = c0;
            while (c1 == c0 || c1 == q)
                c1 = static_cast<int>(rng.uniformInt(0, n - 1));
            circ.mcx({c0, c1}, q);
            break;
          }
          default: {
            int c0 = pickOther(q);
            int c1 = c0;
            while (c1 == c0 || c1 == q)
                c1 = static_cast<int>(rng.uniformInt(0, n - 1));
            circ.mcp({c0, c1}, q, theta);
            break;
          }
        }
    }
    return circ;
}

// ---------------------------------------------------------------------
// Job pool and blocked reductions
// ---------------------------------------------------------------------

TEST(ParallelForDynamic, CoversRangeExactlyOnceAtEveryThreadCount)
{
    ThreadGuard guard;
    constexpr uint64_t n = 4099; // not a multiple of any sweep count
    for (int tc : kSweep) {
        parallel::setThreadCount(tc);
        std::vector<std::atomic<int>> hits(n);
        for (auto &h : hits)
            h.store(0);
        parallel::parallelForDynamic(0, n, [&](uint64_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (uint64_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "index " << i << " @ " << tc;
    }
}

TEST(ParallelForDynamic, NestedCallsRunSeriallyWithoutDeadlock)
{
    ThreadGuard guard;
    parallel::setThreadCount(4);
    constexpr uint64_t n = 64;
    std::vector<std::atomic<int>> hits(n);
    for (auto &h : hits)
        h.store(0);
    parallel::parallelForDynamic(0, 8, [&](uint64_t outer) {
        parallel::parallelForDynamic(outer * 8, outer * 8 + 8,
                                     [&](uint64_t i) {
                                         EXPECT_TRUE(
                                             parallel::inParallelRegion());
                                         hits[i].fetch_add(1);
                                     });
    });
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1);
    int calls = 0;
    parallel::parallelForDynamic(3, 3, [&](uint64_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(Parallel, EnvVariableConfiguresPool)
{
    ThreadGuard guard;
    ::setenv("RASENGAN_THREADS", "5", 1);
    parallel::setThreadCount(0); // re-resolve from the environment
    EXPECT_EQ(parallel::threadCount(), 5);
    ::unsetenv("RASENGAN_THREADS");
    parallel::setThreadCount(0);
    EXPECT_GE(parallel::threadCount(), 1);
}

/**
 * Run @p sum as three jobs on the job pool at every sweep thread count
 * and check each job got @p expected to the bit: a reduction is a
 * serial blocked loop, whichever thread runs it.
 */
template <typename T, typename Sum>
void
expectSameOnPoolThreads(const Sum &sum, const T &expected)
{
    ThreadGuard guard;
    for (int tc : kSweep) {
        parallel::setThreadCount(tc);
        std::vector<T> got(3);
        parallel::parallelForDynamic(0, got.size(),
                                     [&](uint64_t j) { got[j] = sum(); });
        for (const T &g : got)
            EXPECT_EQ(g, expected) << "threads=" << tc; // bitwise
    }
}

TEST(ReduceBlocks, BitIdenticalAcrossThreadCounts)
{
    constexpr uint64_t n = 200000;
    std::vector<double> data(n);
    Rng rng(42);
    for (auto &v : data)
        v = rng.uniformReal(-1.0, 1.0);

    auto sum = [&]() {
        return parallel::reduceBlocks(
            0, n, parallel::kReduceBlock, [&](uint64_t b, uint64_t e) {
                double acc = 0.0;
                for (uint64_t i = b; i < e; ++i)
                    acc += data[i];
                return acc;
            });
    };
    // Reference: per-block partials added in index order.
    double expected = 0.0;
    for (uint64_t b = 0; b < n; b += parallel::kReduceBlock) {
        uint64_t e = std::min(n, b + parallel::kReduceBlock);
        double acc = 0.0;
        for (uint64_t i = b; i < e; ++i)
            acc += data[i];
        expected += acc;
    }
    EXPECT_EQ(sum(), expected); // bitwise, not NEAR
    double flat = 0.0;
    for (double v : data)
        flat += v;
    EXPECT_NE(expected, flat) << "input too benign to pin the association";
    expectSameOnPoolThreads(sum, expected);
}

TEST(ReduceBlocks, ComplexBitIdenticalAcrossThreadCounts)
{
    constexpr uint64_t n = 123457; // deliberately not block-aligned
    std::vector<std::complex<double>> data(n);
    Rng rng(43);
    for (auto &v : data)
        v = {rng.uniformReal(-1.0, 1.0), rng.uniformReal(-1.0, 1.0)};

    auto sum = [&]() {
        return parallel::reduceBlocksComplex(
            0, n, parallel::kReduceBlock, [&](uint64_t b, uint64_t e) {
                std::complex<double> acc{0.0, 0.0};
                for (uint64_t i = b; i < e; ++i)
                    acc += data[i];
                return acc;
            });
    };
    std::complex<double> expected{0.0, 0.0};
    for (uint64_t b = 0; b < n; b += parallel::kReduceBlock) {
        std::complex<double> acc{0.0, 0.0};
        for (uint64_t i = b; i < std::min(n, b + parallel::kReduceBlock);
             ++i)
            acc += data[i];
        expected += acc;
    }
    EXPECT_EQ(sum(), expected);
    expectSameOnPoolThreads(sum, expected);
}

// ---------------------------------------------------------------------
// Gate fusion
// ---------------------------------------------------------------------

TEST(Fusion, RandomCircuitEquivalence)
{
    FusionGuard fusion_guard;
    Rng rng(2026);
    size_t total_source = 0;
    size_t total_fused = 0;
    for (int trial = 0; trial < 500; ++trial) {
        int n = 5 + static_cast<int>(rng.uniformInt(0, 1));
        int depth = 10 + static_cast<int>(rng.uniformInt(0, 40));
        circuit::Circuit circ = randomCircuit(n, depth, rng);

        circuit::setFusionEnabled(false);
        qsim::Statevector plain(n);
        plain.applyCircuit(circ);

        circuit::FusedProgram prog = circuit::fuseCircuit(circ);
        EXPECT_LE(prog.fusedOps(), prog.sourceOps) << "trial " << trial;
        total_source += prog.sourceOps;
        total_fused += prog.fusedOps();
        qsim::Statevector fused(n);
        fused.applyFused(prog);

        const auto &pa = plain.amplitudes();
        const auto &fa = fused.amplitudes();
        ASSERT_EQ(pa.size(), fa.size());
        for (size_t i = 0; i < pa.size(); ++i) {
            ASSERT_NEAR(std::abs(pa[i] - fa[i]), 0.0, 1e-12)
                << "trial " << trial << " amplitude " << i;
        }
    }
    // Across 500 random circuits the pass must actually shorten the
    // program, not merely preserve semantics.
    EXPECT_LT(total_fused, total_source);
}

TEST(Fusion, CollapsesSingleQubitRunsAndDiagonalChains)
{
    circuit::Circuit circ(3);
    // Five 1q gates on wire 0 -> one fused unitary.
    circ.h(0);
    circ.rx(0, 0.3);
    circ.rz(0, -0.7);
    circ.ry(0, 0.1);
    circ.h(0);
    // A diagonal chain across wires -> one fused diagonal block.
    circ.p(1, 0.2);
    circ.rz(2, 0.4);
    circ.cp(1, 2, 0.6);
    circuit::FusedProgram prog = circuit::fuseCircuit(circ);
    EXPECT_EQ(prog.sourceOps, 8u);
    EXPECT_EQ(prog.fusedOps(), 2u);
}

TEST(Fusion, DropsIdentityRuns)
{
    circuit::Circuit circ(2);
    // H H = I on wire 0: the fused run cancels and must be elided.
    circ.h(0);
    circ.h(0);
    circ.x(1);
    circ.x(1);
    // Keep the circuit above the applyCircuit fusion threshold.
    circ.rx(0, 0.5);
    circuit::FusedProgram prog = circuit::fuseCircuit(circ);
    EXPECT_EQ(prog.fusedOps(), 1u);

    qsim::Statevector sv(2);
    sv.applyFused(prog);
    qsim::Statevector expected(2);
    expected.apply1q(0, circuit::gateMatrix(circuit::GateKind::RX, 0.5));
    for (size_t i = 0; i < sv.amplitudes().size(); ++i)
        EXPECT_NEAR(std::abs(sv.amplitudes()[i] - expected.amplitudes()[i]),
                    0.0, 1e-14);
}

TEST(Fusion, ToggleDisablesThePass)
{
    FusionGuard fusion_guard;
    circuit::setFusionEnabled(false);
    EXPECT_FALSE(circuit::fusionEnabled());
    circuit::setFusionEnabled(true);
    EXPECT_TRUE(circuit::fusionEnabled());
}

// ---------------------------------------------------------------------
// Alias sampler
// ---------------------------------------------------------------------

TEST(AliasTable, MatchesWeightDistribution)
{
    std::vector<double> weights = {1.0, 0.0, 3.0, 2.0, 0.5, 0.0, 4.5};
    double total = 11.0;
    qsim::AliasTable table(weights);
    Rng rng(17);
    std::vector<uint64_t> hits(weights.size(), 0);
    constexpr uint64_t draws = 200000;
    for (uint64_t s = 0; s < draws; ++s) {
        size_t idx = table.sample(rng);
        ASSERT_LT(idx, weights.size());
        ++hits[idx];
    }
    for (size_t i = 0; i < weights.size(); ++i) {
        double expected = weights[i] / total;
        double got = static_cast<double>(hits[i]) / draws;
        if (weights[i] == 0.0)
            EXPECT_EQ(hits[i], 0u) << "slot " << i;
        else
            EXPECT_NEAR(got, expected, 0.01) << "slot " << i;
    }
}

TEST(AliasTable, DeterministicForFixedSeed)
{
    std::vector<double> weights = {0.2, 1.7, 0.0, 2.6, 1.1};
    qsim::AliasTable a(weights);
    qsim::AliasTable b(weights);
    Rng ra(23);
    Rng rb(23);
    for (int s = 0; s < 1000; ++s)
        ASSERT_EQ(a.sample(ra), b.sample(rb));
}

TEST(AliasTable, SingleOutcome)
{
    std::vector<double> weights = {3.25};
    qsim::AliasTable table(weights);
    Rng rng(1);
    for (int s = 0; s < 100; ++s)
        EXPECT_EQ(table.sample(rng), 0u);
}

TEST(AliasTable, BlockSampleMatchesPerShotReference)
{
    // The block sampler returns the per-shot reference's indices and
    // leaves the engine where the reference does, for lengths on both
    // sides of a block.
    const std::vector<std::vector<double>> tables = {
        {3.25},
        {1.0, 1.0},
        {0.2, 1.7, 0.0, 2.6, 1.1},
        {1.0, 0.0, 3.0, 2.0, 0.5, 0.0, 4.5}};
    for (const std::vector<double> &weights : tables) {
        qsim::AliasTable table(weights);
        for (size_t len : {0, 1, 255, 256, 257, 1000}) {
            Rng fast(31), ref(31);
            std::vector<uint32_t> out(len);
            table.sample(fast, out);
            for (size_t i = 0; i < len; ++i)
                ASSERT_EQ(out[i], table.sample(ref))
                    << weights.size() << " weights, len " << len;
            EXPECT_EQ(fast.engine(), ref.engine()) << len;
        }
    }
}

TEST(AliasTable, DenseSamplersAddEachShotInDrawOrder)
{
    // Statevector::sample and DensityMatrix::sample make one Counts::add
    // per shot, in draw order, with the register mask applied: the same
    // map sequence as the per-shot reference.
    const int n = 5, bits = 3;
    qsim::Statevector sv(n);
    qsim::DensityMatrix rho(n, BitVec{});
    for (int q = 0; q < n; ++q) {
        const circuit::Gate ry{circuit::GateKind::RY, {}, {q}, 0.3 + 0.4 * q};
        sv.apply1q(q, qsim::gateMatrix(ry.kind, ry.param));
        rho.applyGate(ry);
    }
    std::vector<double> weights;
    for (const std::complex<double> &a : sv.amplitudes())
        weights.push_back(std::norm(a));
    const qsim::AliasTable sv_table(weights);
    std::vector<double> diag = rho.diagonal();
    for (double &d : diag)
        d = std::max(d, 0.0); // as DensityMatrix::sample clamps
    const qsim::AliasTable rho_table(diag);
    const auto perShot = [&](const qsim::AliasTable &table, Rng &rng,
                             uint64_t shots) {
        qsim::Counts counts;
        for (uint64_t s = 0; s < shots; ++s)
            counts.add(BitVec::fromIndex(table.sample(rng) & 7));
        return counts;
    };
    const auto sequence = [](const qsim::Counts &c) {
        return std::vector<std::pair<BitVec, uint64_t>>(c.map().begin(),
                                                        c.map().end());
    };
    for (uint64_t shots : {1, 257, 700}) {
        Rng fast(shots), ref(shots);
        EXPECT_EQ(sequence(sv.sample(fast, shots, bits)),
                  sequence(perShot(sv_table, ref, shots)));
        EXPECT_EQ(fast.engine(), ref.engine());
        EXPECT_EQ(sequence(rho.sample(fast, shots, bits)),
                  sequence(perShot(rho_table, ref, shots)));
        EXPECT_EQ(fast.engine(), ref.engine());
    }
}

// The pool's workers are alive in this binary (RASENGAN_THREADS), and a
// fork()ed child of a multi-threaded process can hang (a TSan build
// did, in the first test below): the death tests re-execute instead.
TEST(AliasTable, RejectsDegenerateInput)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH({ qsim::AliasTable t((std::vector<double>{})); },
                 "alias");
    EXPECT_DEATH({ qsim::AliasTable t(std::vector<double>{0.0, 0.0}); },
                 "alias");
}

TEST(AliasTable, RejectsNonFiniteWeights)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_DEATH({ qsim::AliasTable t(std::vector<double>{0.5, nan}); },
                 "non-finite");
    EXPECT_DEATH({ qsim::AliasTable t(std::vector<double>{inf, 1.0}); },
                 "non-finite");
    EXPECT_DEATH({ qsim::AliasTable t(std::vector<double>{-1.0, 2.0}); },
                 "negative");
    // Two weights that individually pass but overflow the sum.
    const double huge = std::numeric_limits<double>::max();
    EXPECT_DEATH({ qsim::AliasTable t(std::vector<double>{huge, huge}); },
                 "overflow");
}

TEST(AliasTable, WeightedIndexRejectsNonFinite)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    Rng rng(3);
    const double nan = std::nan("");
    EXPECT_DEATH(rng.weightedIndex({1.0, nan}), "non-finite");
    EXPECT_DEATH(rng.weightedIndex({0.0, 0.0}), "degenerate");
}

} // namespace
} // namespace rasengan
