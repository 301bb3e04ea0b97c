/**
 * @file
 * Tests for chain construction, pruning and early stop (Theorem 1 and
 * Section 4.1).  The central property: the reachable set of the built
 * chain covers EVERY feasible solution, with and without pruning, across
 * the entire benchmark suite.  The incremental sweeps (chain cursor,
 * grown augmentation closure) are also checked against full-rescan
 * references, field by field.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "core_reference.h"
#include "core/basis.h"
#include "core/chain.h"
#include "problems/builder.h"
#include "problems/io.h"
#include "problems/suite.h"

namespace rasengan::core {
namespace {

/** Replay a chain classically and return the final reachable set. */
std::set<BitVec>
replay(const std::vector<TransitionHamiltonian> &transitions,
       const Chain &chain, const BitVec &start)
{
    reference::StateSet reachable{start};
    for (int k : chain.steps) {
        for (const BitVec &y :
             reference::expandStates(reachable, transitions[k]))
            reachable.insert(y);
    }
    return {reachable.begin(), reachable.end()};
}

class ChainCoverage : public ::testing::TestWithParam<std::string>
{
};

TEST_P(ChainCoverage, PrunedChainCoversAllFeasibleSolutions)
{
    problems::Problem p = problems::makeBenchmark(GetParam());
    auto transitions = makeTransitions(transitionVectors(p));
    Chain chain = buildChain(transitions, p.trivialFeasible());
    EXPECT_EQ(chain.reachableCount, p.feasibleCount()) << GetParam();

    std::set<BitVec> reached =
        replay(transitions, chain, p.trivialFeasible());
    std::set<BitVec> feasible(p.feasibleSolutions().begin(),
                              p.feasibleSolutions().end());
    EXPECT_EQ(reached, feasible) << GetParam();
}

TEST_P(ChainCoverage, UnsimplifiedVectorsAlsoCover)
{
    problems::Problem p = problems::makeBenchmark(GetParam());
    auto transitions = makeTransitions(transitionVectors(p, false));
    Chain chain = buildChain(transitions, p.trivialFeasible());
    EXPECT_EQ(chain.reachableCount, p.feasibleCount()) << GetParam();
}

TEST_P(ChainCoverage, ReachableSetIsAlwaysFeasible)
{
    // Even without augmentation, the walk never leaves the feasible set.
    problems::Problem p = problems::makeBenchmark(GetParam());
    auto transitions =
        makeTransitions(simplifyBasis(homogeneousBasis(p)));
    Chain chain = buildChain(transitions, p.trivialFeasible());
    std::set<BitVec> reached =
        replay(transitions, chain, p.trivialFeasible());
    EXPECT_LE(reached.size(), p.feasibleCount()) << GetParam();
    for (const BitVec &x : reached)
        EXPECT_TRUE(p.isFeasible(x)) << GetParam();
}

TEST_P(ChainCoverage, PruningShortensWithoutLosingCoverage)
{
    problems::Problem p = problems::makeBenchmark(GetParam());
    auto transitions = makeTransitions(transitionVectors(p));

    ChainOptions no_prune;
    no_prune.prune = false;
    no_prune.earlyStop = true; // same round budget as the pruned walk
    Chain full = buildChain(transitions, p.trivialFeasible(), no_prune);

    Chain pruned = buildChain(transitions, p.trivialFeasible());
    EXPECT_LE(pruned.steps.size(), full.steps.size()) << GetParam();
    EXPECT_EQ(pruned.reachableCount, full.reachableCount) << GetParam();

    std::set<BitVec> a = replay(transitions, pruned, p.trivialFeasible());
    std::set<BitVec> b = replay(transitions, full, p.trivialFeasible());
    EXPECT_EQ(a, b) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, ChainCoverage,
                         ::testing::ValuesIn(problems::benchmarkIds()));

TEST(Chain, UnprunedLengthIsMSquared)
{
    problems::Problem p = problems::makeBenchmark("F1");
    auto transitions =
        makeTransitions(simplifyBasis(homogeneousBasis(p)));
    const int m = static_cast<int>(transitions.size());
    ChainOptions opts;
    opts.prune = false;
    opts.earlyStop = false;
    Chain chain = buildChain(transitions, p.trivialFeasible(), opts);
    EXPECT_EQ(static_cast<int>(chain.steps.size()), m * m);
}

TEST(Chain, CoverageIsMonotone)
{
    problems::Problem p = problems::makeBenchmark("S2");
    auto transitions =
        makeTransitions(simplifyBasis(homogeneousBasis(p)));
    Chain chain = buildChain(transitions, p.trivialFeasible());
    for (size_t i = 1; i < chain.coverage.size(); ++i)
        EXPECT_GE(chain.coverage[i], chain.coverage[i - 1]);
    ASSERT_FALSE(chain.coverage.empty());
    EXPECT_EQ(chain.coverage.back(), chain.reachableCount);
}

TEST(Chain, PrunedStepsAllExpand)
{
    // With pruning on, every kept step must add at least one new state
    // (this is the definition of a non-redundant Hamiltonian).
    problems::Problem p = problems::makeBenchmark("G1");
    auto transitions =
        makeTransitions(simplifyBasis(homogeneousBasis(p)));
    Chain chain = buildChain(transitions, p.trivialFeasible());
    size_t prev = 1;
    for (size_t i = 0; i < chain.coverage.size(); ++i) {
        EXPECT_GT(chain.coverage[i], prev);
        prev = chain.coverage[i];
    }
}

TEST(Chain, EarlyStopBoundsUnprunedTail)
{
    problems::Problem p = problems::makeBenchmark("K1");
    auto transitions =
        makeTransitions(simplifyBasis(homogeneousBasis(p)));
    const int m = static_cast<int>(transitions.size());

    ChainOptions stop_only;
    stop_only.prune = false;
    stop_only.earlyStop = true;
    // earlyStop is only honored when pruning is requested in the solver;
    // here we exercise the chain-level flag directly.
    Chain chain = buildChain(transitions, p.trivialFeasible(), stop_only);
    // After coverage saturates, at most m further steps may follow.
    size_t full = chain.reachableCount;
    int steps_after_saturation = 0;
    bool saturated = false;
    for (size_t i = 0; i < chain.coverage.size(); ++i) {
        if (saturated)
            ++steps_after_saturation;
        if (chain.coverage[i] == full)
            saturated = true;
    }
    EXPECT_LE(steps_after_saturation, m);
}

TEST(Chain, EmptyTransitionsYieldEmptyChain)
{
    Chain chain = buildChain({}, BitVec{});
    EXPECT_TRUE(chain.steps.empty());
    // The start state itself is always reachable.
    EXPECT_EQ(chain.reachableCount, 1u);
}

TEST(Chain, RoundsOverrideShortensChain)
{
    problems::Problem p = problems::makeBenchmark("S2");
    auto transitions =
        makeTransitions(simplifyBasis(homogeneousBasis(p)));
    ChainOptions one_round;
    one_round.rounds = 1;
    one_round.prune = false;
    one_round.earlyStop = false;
    Chain chain = buildChain(transitions, p.trivialFeasible(), one_round);
    EXPECT_EQ(chain.steps.size(), transitions.size());
}

TEST(Chain, TrackingCapStopsTheWalk)
{
    problems::Problem p = problems::makeBenchmark("S4");
    auto transitions = makeTransitions(transitionVectors(p));
    ChainOptions opts;
    opts.maxTrackedStates = 1; // force the cap immediately
    Chain chain = buildChain(transitions, p.trivialFeasible(), opts);
    EXPECT_TRUE(chain.capped);
    // The walk stops at the cap with the steps found so far.
    EXPECT_GT(chain.steps.size(), 0u);
    EXPECT_LT(chain.steps.size(), transitions.size() * transitions.size());
}

TEST(Chain, MaxChainLengthBoundsSteps)
{
    problems::Problem p = problems::makeBenchmark("S4");
    auto transitions = makeTransitions(transitionVectors(p));
    ChainOptions opts;
    opts.prune = false;
    opts.earlyStop = false;
    opts.maxChainLength = 5;
    Chain chain = buildChain(transitions, p.trivialFeasible(), opts);
    EXPECT_EQ(chain.steps.size(), 5u);
}

TEST(Chain, ExpandStatesFindsPartners)
{
    TransitionHamiltonian tau({1, -1});
    reference::StateSet states{
        BitVec::fromString("01"), // partner: "10"
        BitVec::fromString("00"), // dark
    };
    auto partners = reference::expandStates(states, tau);
    ASSERT_EQ(partners.size(), 1u);
    EXPECT_EQ(partners[0], BitVec::fromString("10"));
}

// ---- Differential tests against slow references --------------------------

/**
 * A small random instance from equalities and slack-compiled
 * inequalities with mixed-sign coefficients: the feasible-difference
 * basis and the augmentation pass both get exercised.
 */
problems::Problem
randomBuilderProblem(uint64_t seed)
{
    Rng rng(seed * 104729 + 7);
    const int n = static_cast<int>(rng.uniformInt(4, 9));
    BitVec x0;
    for (int i = 0; i < n; ++i)
        if (rng.bernoulli(0.5))
            x0.set(i);
    problems::ProblemBuilder builder("rand" + std::to_string(seed), "RAND",
                                     n);
    for (int i = 0; i < n; ++i)
        builder.objectiveLinear(i, static_cast<double>(rng.uniformInt(1, 9)));
    const int rows = static_cast<int>(rng.uniformInt(1, 3));
    for (int r = 0; r < rows; ++r) {
        std::vector<problems::ProblemBuilder::Term> terms;
        int64_t lhs = 0;
        for (int i = 0; i < n; ++i) {
            if (!rng.bernoulli(0.6))
                continue;
            int64_t coeff = rng.uniformInt(1, 2) * (rng.bernoulli(0.5) ? 1 : -1);
            terms.emplace_back(i, coeff);
            lhs += x0.get(i) ? coeff : 0;
        }
        if (terms.empty())
            continue;
        if (rng.bernoulli(0.5))
            builder.addEquality(terms, lhs);
        else
            builder.addLessEqual(terms, lhs + rng.uniformInt(0, 2));
    }
    return builder.build(x0);
}

TEST(ChainReference, SuiteChainsMatchFullRescan)
{
    for (const std::string &id : problems::benchmarkIds()) {
        problems::Problem p = problems::makeBenchmark(id);
        reference::expectChainMatchesReference(transitionVectors(p),
                                               p.trivialFeasible(), id);
        // The bare simplified basis leaves states unreachable on some
        // encodings: the sweep must agree on partial coverage too.
        reference::expectChainMatchesReference(
            simplifyBasis(homogeneousBasis(p)), p.trivialFeasible(),
            id + " bare");
    }
}

TEST(ChainReference, RandomBuilderChainsMatchFullRescan)
{
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        problems::Problem p = randomBuilderProblem(seed);
        reference::expectChainMatchesReference(transitionVectors(p),
                                               p.trivialFeasible(), p.id());
        reference::expectChainMatchesReference(
            homogeneousBasis(p), p.trivialFeasible(), p.id() + " bare");
    }
}

TEST(ChainReference, SuiteTransitionVectorsMatchScratchClosure)
{
    for (const std::string &id : problems::benchmarkIds()) {
        problems::Problem p = problems::makeBenchmark(id);
        for (bool simplify : {true, false}) {
            EXPECT_EQ(transitionVectors(p, simplify),
                      reference::transitionVectors(p, simplify))
                << id << " simplify=" << simplify;
        }
    }
}

TEST(ChainReference, RandomBuilderTransitionVectorsMatchScratchClosure)
{
    for (uint64_t seed = 1; seed <= 40; ++seed) {
        problems::Problem p = randomBuilderProblem(seed);
        for (bool simplify : {true, false}) {
            EXPECT_EQ(transitionVectors(p, simplify),
                      reference::transitionVectors(p, simplify))
                << p.id() << " simplify=" << simplify;
        }
    }
}

TEST(ChainReference, ScalabilityTransitionVectorsMatchReference)
{
    // 6-21 vars enumerate and augment; from 27 vars on the instances are
    // non-enumerable and take the basis-union path.
    for (int vars : {6, 10, 14, 21, 27, 33}) {
        problems::Problem p = problems::makeScalabilityFlp(vars);
        for (bool simplify : {true, false}) {
            EXPECT_EQ(transitionVectors(p, simplify),
                      reference::transitionVectors(p, simplify))
                << p.id() << " simplify=" << simplify;
        }
    }
}

TEST(ChainReference, OverLimitParsedFlpKeepsOriginalVectors)
{
    // makeScalabilityFlp disables enumeration above 24 vars, but the
    // problem text does not carry that flag, so the parsed copy takes
    // the enumerable branch.  With more feasible states than
    // max_feasible it must keep the original vectors exactly like the
    // library instance, or the chain can collapse to a few steps.
    const problems::Problem lib = problems::makeScalabilityFlp(27);
    ASSERT_FALSE(lib.enumerationEnabled());
    auto parsed = problems::parseProblem(problems::writeProblem(lib));
    ASSERT_TRUE(parsed.problem.has_value()) << parsed.error;
    const problems::Problem &p = *parsed.problem;
    ASSERT_TRUE(p.enumerationEnabled());
    const size_t limit = 16;
    ASSERT_GT(p.feasibleCount(), limit);

    auto reached = [](const problems::Problem &q, size_t max_feasible) {
        auto transitions =
            makeTransitions(transitionVectors(q, true, max_feasible));
        return buildChain(transitions, q.trivialFeasible()).reachableCount;
    };
    EXPECT_GE(reached(p, limit), reached(lib, limit));
    EXPECT_EQ(transitionVectors(p, true, limit),
              reference::transitionVectors(p, true, limit));
}

} // namespace
} // namespace rasengan::core
