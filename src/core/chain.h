/**
 * @file
 * Transition-chain construction, pruning, and early stop (Section 4.1).
 *
 * Theorem 1: repeating the m transition Hamiltonians for m rounds (m^2
 * operators) covers every feasible solution reachable from the initial
 * one.  Pruning removes operators that expand nothing: a classical
 * reachability sweep tracks the set of feasible basis states the chain
 * prefix can populate (the offline equivalent of the paper's intermediate
 * measurements), drops steps that add no new state, and truncates the
 * tail after m consecutive useless steps (early stop).
 */

#ifndef RASENGAN_CORE_CHAIN_H
#define RASENGAN_CORE_CHAIN_H

#include <vector>

#include "common/bitvec.h"
#include "core/transition.h"

namespace rasengan::core {

struct ChainOptions
{
    int rounds = -1;           ///< basis repetitions; -1 = m (Theorem 1)
    bool prune = true;         ///< drop non-expanding operators (opt 2)
    bool earlyStop = true;     ///< truncate after m useless operators
    size_t maxTrackedStates = size_t{1} << 20; ///< reachability cap: the
                               ///< walk stops once the tracked feasible
                               ///< set outgrows it (scalability guard)
    size_t maxChainLength = 20000; ///< hard cap on kept steps
};

struct Chain
{
    /** Indices into the transition list, in execution order. */
    std::vector<int> steps;
    /** Reachable feasible-state count after each kept step. */
    std::vector<size_t> coverage;
    /** Steps of the unpruned m*rounds chain (for the Figure 17 bench). */
    std::vector<int> unprunedSteps;
    /** Coverage after each unpruned step. */
    std::vector<size_t> unprunedCoverage;
    /** Reachable feasible states at the end (capped runs: lower bound). */
    size_t reachableCount = 0;
    /** True when maxTrackedStates was hit and pruning went conservative. */
    bool capped = false;
};

/**
 * Build the transition chain starting from feasible state @p start.
 *
 * The reachability sweep applies each candidate operator to the current
 * reachable set R: states matching either pattern flip to their partner;
 * a step is kept (pruning on) iff it adds at least one new state to R.
 * Each operator scans each state of R once over the whole walk.
 */
Chain buildChain(const std::vector<TransitionHamiltonian> &transitions,
                 const BitVec &start, const ChainOptions &options = {});

} // namespace rasengan::core

#endif // RASENGAN_CORE_CHAIN_H
