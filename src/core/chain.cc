#include "core/chain.h"

#include "common/bitvecset.h"
#include "common/logging.h"

namespace rasengan::core {

Chain
buildChain(const std::vector<TransitionHamiltonian> &transitions,
           const BitVec &start, const ChainOptions &options)
{
    Chain chain;
    const int m = static_cast<int>(transitions.size());
    if (m == 0) {
        chain.reachableCount = 1; // only the start state
        return chain;
    }
    // Theorem 1: m rounds suffice for totally unimodular constraints; the
    // general bound is m^3 operators (m^2 rounds).  With early stop on,
    // default to the general bound and let saturation terminate the walk;
    // without it, stick to the TU bound to keep the chain finite.
    const int rounds = options.rounds > 0
                           ? options.rounds
                           : (options.earlyStop ? m * m : m);

    // The reachable set R, in insertion order, plus a cursor per
    // operator: every partner of R[0, scanned[k]) under k is in R
    // already (R only grows), so step k scans just the newer states.
    // The partner map is an involution, so the states step k adds have
    // their k-partners in R too and are never rescanned by k.
    BitVecSet reachable(start);
    std::vector<size_t> scanned(m, 0);
    int useless_streak = 0;
    bool stopped = false;

    for (int round = 0; round < rounds && !stopped; ++round) {
        for (int k = 0; k < m && !stopped; ++k) {
            chain.unprunedSteps.push_back(k);

            const size_t before = reachable.size();
            for (size_t i = scanned[k]; i < before; ++i)
                if (auto y = transitions[k].partner(reachable[i]))
                    reachable.insert(*y);
            scanned[k] = reachable.size();
            const bool expanded = reachable.size() > before;
            chain.unprunedCoverage.push_back(reachable.size());

            if (expanded || !options.prune) {
                chain.steps.push_back(k);
                chain.coverage.push_back(reachable.size());
            }

            if (reachable.size() > options.maxTrackedStates) {
                // The tracked feasible set outgrew the budget: stop the
                // walk here; coverage becomes a lower bound.
                chain.capped = true;
                stopped = true;
            }
            if (chain.steps.size() >= options.maxChainLength)
                stopped = true;

            if (expanded) {
                useless_streak = 0;
            } else {
                ++useless_streak;
                if (options.earlyStop && useless_streak >= m) {
                    // m consecutive operators produced nothing new: no
                    // remaining prefix of the round can either.
                    stopped = true;
                }
            }
        }
    }

    chain.reachableCount = reachable.size();
    return chain;
}

} // namespace rasengan::core
