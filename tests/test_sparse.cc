/**
 * @file
 * Tests for the flat structure-of-arrays sparse engine
 * (qsim/sparsestate.h): cross-validation against a dense reference
 * evolution at 1e-12, prune/renormalize edge cases, key-order
 * invariants of the merge kernels, the blocked summation order of the
 * norm, reset() against a fresh state, and deterministic Counts
 * serialization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>
#include <sstream>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/transition.h"
#include "qsim/counts.h"
#include "qsim/sparsestate.h"
#include "qsim/statevector.h"

namespace rasengan {
namespace {

using core::TransitionHamiltonian;
using qsim::SparseState;
using Complex = SparseState::Complex;

constexpr double kPi = std::numbers::pi;

/** Random transition vector with entries in {-1, 0, 1}, not all zero. */
linalg::IntVec
randomTransition(int n, Rng &rng)
{
    for (;;) {
        linalg::IntVec u(n);
        bool nonzero = false;
        for (int i = 0; i < n; ++i) {
            u[i] = static_cast<int>(rng.uniformInt(0, 2)) - 1;
            nonzero |= u[i] != 0;
        }
        if (nonzero)
            return u;
    }
}

/**
 * Reference evolution on a dense 2^n amplitude vector, straight from
 * the partner/dark semantics of Definition 1 (no pruning, no sparse
 * bookkeeping): every state with a partner takes the two-level
 * rotation, dark states are untouched.
 */
void
denseReferenceApply(std::vector<Complex> &amps,
                    const TransitionHamiltonian &tau, double t)
{
    const Complex ms = Complex{0.0, -1.0} * std::sin(t);
    const double c = std::cos(t);
    std::vector<Complex> next = amps;
    for (uint64_t idx = 0; idx < amps.size(); ++idx) {
        BitVec x = BitVec::fromIndex(idx);
        if (auto y = tau.partner(x))
            next[idx] = c * amps[idx] + ms * amps[y->toIndex()];
    }
    amps = std::move(next);
}

void
expectMatchesDenseReference(int n, int steps, uint64_t seed)
{
    Rng rng(seed);
    BitVec start = BitVec::fromIndex(rng.uniformInt(0, (1u << n) - 1));
    SparseState sparse(n, start);
    std::vector<Complex> dense(uint64_t{1} << n, Complex{0.0, 0.0});
    dense[start.toIndex()] = Complex{1.0, 0.0};

    for (int k = 0; k < steps; ++k) {
        TransitionHamiltonian tau(randomTransition(n, rng));
        double t = rng.uniformReal(0.1, 1.4);
        tau.applyTo(sparse, t);
        denseReferenceApply(dense, tau, t);
    }

    for (uint64_t idx = 0; idx < dense.size(); ++idx) {
        BitVec y = BitVec::fromIndex(idx);
        EXPECT_NEAR(std::abs(sparse.amplitude(y) - dense[idx]), 0.0, 1e-12)
            << "n=" << n << " seed=" << seed << " y=" << idx;
    }
}

TEST(SparseVsDense, RandomChainsUpTo14Qubits)
{
    expectMatchesDenseReference(4, 12, 11);
    expectMatchesDenseReference(8, 16, 12);
    expectMatchesDenseReference(12, 20, 13);
    expectMatchesDenseReference(14, 20, 14);
}

TEST(SparseState, KeysStayStrictlySortedUnderRotationsAndX)
{
    Rng rng(21);
    const int n = 10;
    SparseState s(n, BitVec::fromIndex(37));
    for (int k = 0; k < 25; ++k) {
        TransitionHamiltonian tau(randomTransition(n, rng));
        tau.applyTo(s, rng.uniformReal(0.1, 1.4));
        if (k % 3 == 0)
            s.applyX(static_cast<int>(rng.uniformInt(0, n - 1)));
        const auto &keys = s.keys();
        for (size_t i = 1; i < keys.size(); ++i)
            ASSERT_TRUE(keys[i - 1] < keys[i]) << "after step " << k;
        ASSERT_EQ(keys.size(), s.amps().size());
    }
}

TEST(SparseState, ApplyXMatchesAmplitudeRelabeling)
{
    Rng rng(31);
    const int n = 9;
    SparseState s(n, BitVec::fromIndex(5));
    for (int k = 0; k < 8; ++k)
        TransitionHamiltonian(randomTransition(n, rng))
            .applyTo(s, rng.uniformReal(0.2, 1.2));
    SparseState flipped = s;
    const int q = 4;
    flipped.applyX(q);
    ASSERT_EQ(flipped.supportSize(), s.supportSize());
    for (size_t i = 0; i < s.keys().size(); ++i) {
        BitVec y = s.keys()[i];
        y.flip(q);
        EXPECT_EQ(flipped.amplitude(y), s.amps()[i]);
    }
}

TEST(SparseState, RotationCreatesUnpopulatedPartner)
{
    TransitionHamiltonian tau({-1, 1, 0, 0});
    SparseState s(4, BitVec::fromString("1000"));
    const double t = 0.8;
    // Partner |0100> is not populated: the rotation must create it with
    // amplitude -i sin(t) while the source keeps cos(t).
    s.applyPairRotation(tau.mask(), tau.patternPlus(), t);
    ASSERT_EQ(s.supportSize(), 2u);
    EXPECT_NEAR(std::abs(s.amplitude(BitVec::fromString("1000")) -
                         Complex{std::cos(t), 0.0}),
                0.0, 1e-15);
    EXPECT_NEAR(std::abs(s.amplitude(BitVec::fromString("0100")) -
                         Complex{0.0, -std::sin(t)}),
                0.0, 1e-15);
}

TEST(SparseState, DarkStatesAreUntouched)
{
    // |0000> is dark for u = (-1,1,0,0): neither pattern matches.
    TransitionHamiltonian tau({-1, 1, 0, 0});
    SparseState s(4, BitVec{});
    s.applyPairRotation(tau.mask(), tau.patternPlus(), 1.1);
    ASSERT_EQ(s.supportSize(), 1u);
    EXPECT_EQ(s.amplitude(BitVec{}), (Complex{1.0, 0.0}));
}

TEST(SparseState, PruneDropsBelowThresholdAndCountsRemovals)
{
    SparseState s = SparseState::fromSorted(
        4,
        {BitVec::fromIndex(1), BitVec::fromIndex(3), BitVec::fromIndex(9)},
        {Complex{1e-14, 0.0}, Complex{0.8, 0.0}, Complex{0.0, 0.6}});
    EXPECT_EQ(s.prune(1e-24), 1u);
    ASSERT_EQ(s.supportSize(), 2u);
    EXPECT_EQ(s.keys()[0], BitVec::fromIndex(3));
    EXPECT_EQ(s.keys()[1], BitVec::fromIndex(9));
    // Nothing left below threshold: a second prune removes nothing.
    EXPECT_EQ(s.prune(1e-24), 0u);
    ASSERT_EQ(s.supportSize(), 2u);
    s.renormalize();
    EXPECT_NEAR(s.normSquared(), 1.0, 1e-12);
}

TEST(SparseState, PruneCanEmptyTheSupport)
{
    SparseState s = SparseState::fromSorted(
        3, {BitVec::fromIndex(2), BitVec::fromIndex(5)},
        {Complex{1e-15, 0.0}, Complex{0.0, 1e-16}});
    EXPECT_EQ(s.prune(1e-24), 2u);
    EXPECT_EQ(s.supportSize(), 0u);
    EXPECT_EQ(s.normSquared(), 0.0);
}

TEST(SparseState, SingleStatePruneKeepsItWhenAboveThreshold)
{
    SparseState s(6, BitVec::fromIndex(17));
    EXPECT_EQ(s.prune(), 0u);
    ASSERT_EQ(s.supportSize(), 1u);
    EXPECT_EQ(s.amplitude(BitVec::fromIndex(17)), (Complex{1.0, 0.0}));
}

TEST(SparseState, HalfPiRotationPrunesTheSource)
{
    // cos(pi/2) ~ 6e-17 -> |amp|^2 ~ 4e-33 < default threshold: the
    // default policy drops the rotated-away source state.
    TransitionHamiltonian tau({1, -1, 0});
    SparseState s(3, BitVec::fromString("010"));
    tau.applyTo(s, kPi / 2);
    EXPECT_EQ(s.supportSize(), 1u);
    // With pruning disabled the numerical zero survives.
    SparseState kept(3, BitVec::fromString("010"));
    tau.applyTo(kept, kPi / 2, /*prune_threshold=*/0.0);
    EXPECT_EQ(kept.supportSize(), 2u);
}

TEST(SparseState, FromSortedRejectsUnsortedKeys)
{
    EXPECT_DEATH(SparseState::fromSorted(
                     3, {BitVec::fromIndex(5), BitVec::fromIndex(2)},
                     {Complex{1.0, 0.0}, Complex{0.0, 0.0}}),
                 "");
}

TEST(SparseState, NormSquaredSumsFixedBlocksInIndexOrder)
{
    // Past one 2^14-state block the association of the sum shows in the
    // bits.  Both engines' normSquared must add per-block partials in
    // index order (common/parallel.h reduceBlocks) at any size.
    auto blockedSum = [](const std::vector<Complex> &amps) {
        double blocked = 0.0;
        for (size_t lo = 0; lo < amps.size(); lo += parallel::kReduceBlock) {
            double block = 0.0;
            for (size_t i = lo;
                 i < std::min<size_t>(lo + parallel::kReduceBlock,
                                      amps.size());
                 ++i)
                block += std::norm(amps[i]);
            blocked += block;
        }
        // A flat sum of the same data rounds differently, so a change of
        // association cannot pass unnoticed.
        double flat = 0.0;
        for (const Complex &a : amps)
            flat += std::norm(a);
        EXPECT_NE(std::memcmp(&flat, &blocked, sizeof(double)), 0);
        return blocked;
    };

    const size_t n = 40000;
    Rng rng(41);
    std::vector<BitVec> keys;
    std::vector<Complex> amps;
    for (size_t i = 0; i < n; ++i) {
        keys.push_back(BitVec::fromIndex(3 * i + 1));
        amps.emplace_back(rng.normal(), rng.normal());
    }
    const double sparse_want = blockedSum(amps);
    SparseState s = SparseState::fromSorted(64, keys, amps);
    const double sparse_got = s.normSquared();
    EXPECT_EQ(std::memcmp(&sparse_got, &sparse_want, sizeof(double)), 0)
        << sparse_got << " vs " << sparse_want;

    // The dense engine, 2^16 amplitudes.
    qsim::Statevector sv(16);
    for (Complex &a : sv.mutableAmplitudes())
        a = Complex{rng.normal(), rng.normal()};
    const double dense_want = blockedSum(sv.amplitudes());
    const double dense_got = sv.normSquared();
    EXPECT_EQ(std::memcmp(&dense_got, &dense_want, sizeof(double)), 0)
        << dense_got << " vs " << dense_want;
}

/** Keys equal and amplitudes bitwise equal. */
void
expectSameState(const SparseState &got, const SparseState &want,
                const std::string &where)
{
    ASSERT_EQ(got.numQubits(), want.numQubits()) << where;
    ASSERT_EQ(got.keys(), want.keys()) << where;
    ASSERT_EQ(got.amps().size(), want.amps().size()) << where;
    EXPECT_EQ(std::memcmp(got.amps().data(), want.amps().data(),
                          want.amps().size() * sizeof(Complex)),
              0)
        << where;
}

TEST(SparseState, ResetMatchesFreshState)
{
    // A used state -- rotations that create and prune partners, X
    // gates, and a prune that empties the support -- reset to b must
    // then evolve exactly as a fresh SparseState(n, b).
    Rng rng(57);
    const int n = 10;
    SparseState used(n, BitVec::fromIndex(300));
    for (int trial = 0; trial < 20; ++trial) {
        for (int k = 0; k < 12; ++k) {
            TransitionHamiltonian tau(randomTransition(n, rng));
            // Every fourth angle is pi/2, which rotates sources to
            // numerical zero and so prunes them.
            tau.applyTo(used, k % 4 == 0 ? kPi / 2
                                         : rng.uniformReal(-2.0, 2.0));
            if (k % 5 == 0)
                used.applyX(static_cast<int>(rng.uniformInt(0, n - 1)));
        }
        if (trial % 3 == 0) {
            // No |amp|^2 reaches 2: this prune empties the support.
            const size_t before = used.supportSize();
            EXPECT_EQ(used.prune(2.0), before);
            ASSERT_EQ(used.supportSize(), 0u);
        }

        const BitVec b =
            BitVec::fromIndex(rng.uniformInt(0, (1u << n) - 1));
        used.reset(b);
        SparseState fresh(n, b);
        const std::string where = "trial " + std::to_string(trial);
        expectSameState(used, fresh, where + " after reset");
        for (int k = 0; k < 10; ++k) {
            TransitionHamiltonian tau(randomTransition(n, rng));
            const double t =
                k % 3 == 0 ? kPi / 2 : rng.uniformReal(-2.0, 2.0);
            tau.applyTo(used, t);
            tau.applyTo(fresh, t);
            expectSameState(used, fresh,
                            where + " step " + std::to_string(k));
        }
    }
}

std::string
serializeCounts(const qsim::Counts &counts, int n)
{
    std::ostringstream os;
    for (const auto &[outcome, cnt] : counts.sorted())
        os << outcome.toString(n) << ":" << cnt << "\n";
    return os.str();
}

TEST(CountsDeterminism, SerializationIsByteIdenticalAcrossInsertionOrder)
{
    Rng rng(77);
    std::vector<std::pair<BitVec, uint64_t>> entries;
    for (int i = 0; i < 200; ++i)
        entries.emplace_back(BitVec::fromIndex(rng.uniformInt(0, 1 << 16)),
                             1 + rng.uniformInt(0, 50));

    qsim::Counts forward, backward, shuffled;
    for (const auto &[k, v] : entries)
        forward.add(k, v);
    for (auto it = entries.rbegin(); it != entries.rend(); ++it)
        backward.add(it->first, it->second);
    std::vector<std::pair<BitVec, uint64_t>> perm = entries;
    for (size_t i = perm.size(); i > 1; --i)
        std::swap(perm[i - 1], perm[rng.uniformInt(0, i - 1)]);
    for (const auto &[k, v] : perm)
        shuffled.add(k, v);

    const std::string ref = serializeCounts(forward, 17);
    EXPECT_EQ(serializeCounts(backward, 17), ref);
    EXPECT_EQ(serializeCounts(shuffled, 17), ref);

    // sorted() is strictly ascending and preserves the totals.
    auto sorted = forward.sorted();
    for (size_t i = 1; i < sorted.size(); ++i)
        EXPECT_TRUE(sorted[i - 1].first < sorted[i].first);
    uint64_t total = 0;
    for (const auto &[k, v] : sorted)
        total += v;
    EXPECT_EQ(total, forward.total());
}

TEST(CountsDeterminism, ExpectationIsInsertionOrderIndependent)
{
    // The FP sum must be accumulated in sorted order: identical bytes
    // out regardless of how the histogram was built.
    Rng rng(101);
    std::vector<std::pair<BitVec, uint64_t>> entries;
    for (int i = 0; i < 300; ++i)
        entries.emplace_back(BitVec::fromIndex(rng.uniformInt(0, 1 << 20)),
                             1 + rng.uniformInt(0, 9));
    qsim::Counts forward, backward;
    for (const auto &[k, v] : entries)
        forward.add(k, v);
    for (auto it = entries.rbegin(); it != entries.rend(); ++it)
        backward.add(it->first, it->second);
    auto value = [](const BitVec &x) {
        return std::sin(static_cast<double>(x.low64() % 997)) * 1e6;
    };
    const double a = forward.expectation(value);
    const double b = backward.expectation(value);
    EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0);
}

} // namespace
} // namespace rasengan
