/**
 * @file
 * Slow references for the transition-set build, shared by the tests
 * that pin the production code to them: the entrywise Algorithm 1 loop,
 * hash-set closures recomputed from nothing, and a chain walk that
 * rescans the whole reachable set at every step.
 */

#ifndef RASENGAN_TESTS_CORE_REFERENCE_H
#define RASENGAN_TESTS_CORE_REFERENCE_H

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/basis.h"
#include "core/chain.h"
#include "core/transition.h"
#include "linalg/nullspace.h"
#include "problems/problem.h"

namespace rasengan::core::reference {

using StateSet = std::unordered_set<BitVec, BitVecHash>;

/** u_i +/- u_j; nullopt when an entry leaves {-1, 0, 1}. */
inline std::optional<linalg::IntVec>
combine(const linalg::IntVec &a, const linalg::IntVec &b, int sign)
{
    linalg::IntVec out(a.size());
    for (size_t i = 0; i < a.size(); ++i) {
        out[i] = a[i] + sign * b[i];
        if (out[i] < -1 || out[i] > 1)
            return std::nullopt;
    }
    return out;
}

/** Algorithm 1 entry by entry: the loop simplifyBasis packs into masks. */
inline std::vector<linalg::IntVec>
simplifyBasis(std::vector<linalg::IntVec> basis, int max_passes = 8)
{
    if (basis.size() < 2)
        return basis;
    for (int pass = 0; pass < max_passes; ++pass) {
        bool changed = false;
        for (size_t i = 0; i < basis.size(); ++i) {
            for (size_t j = 0; j < basis.size(); ++j) {
                if (i == j)
                    continue;
                int current = linalg::nonZeroCount(basis[i]);
                for (int sign : {+1, -1}) {
                    auto cand = combine(basis[i], basis[j], sign);
                    if (cand && linalg::nonZeroCount(*cand) > 0 &&
                        linalg::nonZeroCount(*cand) < current) {
                        basis[i] = std::move(*cand);
                        current = linalg::nonZeroCount(basis[i]);
                        changed = true;
                    }
                }
            }
        }
        if (!changed)
            break;
    }
    return basis;
}

/**
 * One full-rescan step of the reachability expansion: all partners of
 * @p states under @p transition (including already-known ones).
 */
inline std::vector<BitVec>
expandStates(const StateSet &states, const TransitionHamiltonian &transition)
{
    std::vector<BitVec> partners;
    for (const BitVec &x : states) {
        if (auto y = transition.partner(x))
            partners.push_back(*y);
    }
    return partners;
}

/** The full-rescan sweep: every step expands the whole reachable set. */
inline Chain
buildChain(const std::vector<TransitionHamiltonian> &transitions,
           const BitVec &start, const ChainOptions &options)
{
    Chain chain;
    const int m = static_cast<int>(transitions.size());
    if (m == 0) {
        chain.reachableCount = 1;
        return chain;
    }
    const int rounds = options.rounds > 0
                           ? options.rounds
                           : (options.earlyStop ? m * m : m);
    StateSet reachable{start};
    int useless_streak = 0;
    bool stopped = false;
    for (int round = 0; round < rounds && !stopped; ++round) {
        for (int k = 0; k < m && !stopped; ++k) {
            chain.unprunedSteps.push_back(k);
            bool expanded = false;
            for (const BitVec &y : expandStates(reachable, transitions[k]))
                expanded |= reachable.insert(y).second;
            chain.unprunedCoverage.push_back(reachable.size());
            if (expanded || !options.prune) {
                chain.steps.push_back(k);
                chain.coverage.push_back(reachable.size());
            }
            if (reachable.size() > options.maxTrackedStates) {
                chain.capped = true;
                stopped = true;
            }
            if (chain.steps.size() >= options.maxChainLength)
                stopped = true;
            useless_streak = expanded ? 0 : useless_streak + 1;
            if (options.earlyStop && useless_streak >= m)
                stopped = true;
        }
    }
    chain.reachableCount = reachable.size();
    return chain;
}

/** Closure of {start} under every vector, recomputed from nothing. */
inline StateSet
closureFromScratch(const std::vector<TransitionHamiltonian> &vectors,
                   const BitVec &start)
{
    StateSet reached{start};
    std::vector<BitVec> frontier{start};
    while (!frontier.empty()) {
        std::vector<BitVec> next;
        for (const BitVec &x : frontier)
            for (const auto &tau : vectors)
                if (auto y = tau.partner(x); y && reached.insert(*y).second)
                    next.push_back(*y);
        frontier = std::move(next);
    }
    return reached;
}

/**
 * transitionVectors built from the references: the entrywise
 * Algorithm 1, a from-scratch closure after every appended augmentation
 * vector, and a closure re-check of the final simplification even when
 * it changed nothing.
 */
inline std::vector<linalg::IntVec>
transitionVectors(const problems::Problem &problem, bool simplify,
                  size_t max_feasible = size_t{1} << 18)
{
    auto basis = homogeneousBasis(problem);
    if (simplify)
        basis = reference::simplifyBasis(basis);
    const auto *feasible = problem.enumerationEnabled()
                               ? &problem.feasibleSolutions()
                               : nullptr;
    if (!feasible || feasible->size() > max_feasible) {
        if (simplify) {
            for (auto &u : homogeneousBasis(problem))
                if (std::find(basis.begin(), basis.end(), u) == basis.end())
                    basis.push_back(std::move(u));
        }
        return basis;
    }
    if (feasible->size() <= 1)
        return basis;

    const BitVec &start = problem.trivialFeasible();
    auto transitions = makeTransitions(basis);
    auto reached = closureFromScratch(transitions, start);
    const int n = problem.numVars();
    for (const BitVec &target : *feasible) {
        if (reached.count(target))
            continue;
        linalg::IntVec u(n);
        for (int i = 0; i < n; ++i)
            u[i] = (target.get(i) ? 1 : 0) - (start.get(i) ? 1 : 0);
        basis.push_back(u);
        transitions.emplace_back(basis.back());
        reached = closureFromScratch(transitions, start);
    }
    if (simplify && basis.size() > 1) {
        auto candidate = reference::simplifyBasis(basis);
        if (closureFromScratch(makeTransitions(candidate), start).size() ==
            reached.size())
            basis = std::move(candidate);
    }
    return basis;
}

/** Named chain-option variants covering every stopping rule. */
inline std::vector<std::pair<std::string, ChainOptions>>
chainVariants()
{
    std::vector<std::pair<std::string, ChainOptions>> out;
    out.emplace_back("default", ChainOptions{});
    ChainOptions no_prune;
    no_prune.prune = false;
    out.emplace_back("no-prune", no_prune);
    ChainOptions tu_bound = no_prune;
    tu_bound.earlyStop = false;
    out.emplace_back("no-prune-no-stop", tu_bound);
    ChainOptions two_rounds;
    two_rounds.rounds = 2;
    out.emplace_back("rounds-2", two_rounds);
    ChainOptions capped;
    capped.maxTrackedStates = 5;
    out.emplace_back("capped", capped);
    ChainOptions short_chain;
    short_chain.prune = false;
    short_chain.maxChainLength = 3;
    out.emplace_back("max-length-3", short_chain);
    return out;
}

inline void
expectSameChain(const Chain &got, const Chain &want, const std::string &what)
{
    EXPECT_EQ(got.steps, want.steps) << what;
    EXPECT_EQ(got.coverage, want.coverage) << what;
    EXPECT_EQ(got.unprunedSteps, want.unprunedSteps) << what;
    EXPECT_EQ(got.unprunedCoverage, want.unprunedCoverage) << what;
    EXPECT_EQ(got.reachableCount, want.reachableCount) << what;
    EXPECT_EQ(got.capped, want.capped) << what;
}

/** buildChain equals the full-rescan walk under every chain variant. */
inline void
expectChainMatchesReference(const std::vector<linalg::IntVec> &vectors,
                            const BitVec &start, const std::string &what)
{
    auto transitions = makeTransitions(vectors);
    for (const auto &[name, opts] : chainVariants()) {
        expectSameChain(core::buildChain(transitions, start, opts),
                        reference::buildChain(transitions, start, opts),
                        what + " " + name);
    }
}

/**
 * transitionVectors (with and without simplification) equals its
 * reference on @p problem, and so do the chains over both vector sets.
 */
inline void
expectTransitionSetMatchesReference(const problems::Problem &problem,
                                    const std::string &what)
{
    for (bool simplify : {true, false}) {
        const auto got = core::transitionVectors(problem, simplify);
        EXPECT_EQ(got, reference::transitionVectors(problem, simplify))
            << what << " simplify=" << simplify;
        expectChainMatchesReference(got, problem.trivialFeasible(),
                                    what + " simplify=" +
                                        std::to_string(simplify));
    }
}

} // namespace rasengan::core::reference

#endif // RASENGAN_TESTS_CORE_REFERENCE_H
