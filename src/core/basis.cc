#include "core/basis.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>
#include <unordered_set>

#include "common/logging.h"
#include "core/transition.h"
#include "linalg/nullspace.h"
#include "linalg/rational.h"
#include "linalg/solve.h"
#include "obs/prof.h"

namespace rasengan::core {

namespace {

/** How far the vector leaves {-1, 0, 1}: sum of per-entry excess. */
int
rangeViolation(const linalg::IntVec &v)
{
    int score = 0;
    for (int64_t e : v)
        if (std::abs(e) > 1)
            score += static_cast<int>(std::abs(e)) - 1;
    return score;
}

bool
allSigned01(const std::vector<linalg::IntVec> &basis)
{
    for (const auto &u : basis)
        if (!linalg::isSigned01(u))
            return false;
    return true;
}

/** Incremental rational Gaussian elimination for independence checks. */
class RankTracker
{
  public:
    explicit RankTracker(int n) : n_(n) {}

    /** Insert @p v if independent of the current span; report success. */
    bool
    tryAdd(const linalg::IntVec &v)
    {
        std::vector<linalg::Rational> row(n_);
        for (int i = 0; i < n_; ++i)
            row[i] = linalg::Rational(v[i]);
        for (const auto &[lead, basis_row] : rows_) {
            if (row[lead].isZero())
                continue;
            linalg::Rational factor = row[lead];
            for (int i = 0; i < n_; ++i)
                row[i] -= factor * basis_row[i];
        }
        int lead = -1;
        for (int i = 0; i < n_; ++i) {
            if (!row[i].isZero()) {
                lead = i;
                break;
            }
        }
        if (lead < 0)
            return false;
        linalg::Rational inv = linalg::Rational(1) / row[lead];
        for (int i = 0; i < n_; ++i)
            row[i] *= inv;
        rows_.emplace_back(lead, std::move(row));
        return true;
    }

    size_t rank() const { return rows_.size(); }

  private:
    int n_;
    std::vector<std::pair<int, std::vector<linalg::Rational>>> rows_;
};

/**
 * Fallback basis for constraint systems whose RREF kernel basis leaves
 * {-1,0,1}: differences of feasible solutions are kernel vectors with
 * entries in {-1,0,1} by construction (this is literally the paper's
 * u = x_g - x_p).  Greedily extract a maximal independent, sparse set.
 */
std::vector<linalg::IntVec>
feasibleDifferenceBasis(const problems::Problem &problem, size_t target)
{
    constexpr size_t kEnumLimit = 4096;
    auto sols = linalg::enumerateBinary(problem.constraints(),
                                        problem.bounds(), kEnumLimit);
    fatal_if(sols.empty(), "{}: no feasible solutions for difference basis",
             problem.id());
    const int n = problem.numVars();
    std::vector<int> x0 = problem.trivialFeasible().toVector(n);

    if (sols.size() == 1) {
        // Unique feasible solution: nothing to transition between.
        return {};
    }
    std::vector<linalg::IntVec> diffs;
    diffs.reserve(sols.size());
    for (const auto &sol : sols) {
        linalg::IntVec d(n);
        bool zero = true;
        for (int i = 0; i < n; ++i) {
            d[i] = sol[i] - x0[i];
            zero &= d[i] == 0;
        }
        if (!zero)
            diffs.push_back(std::move(d));
    }
    std::stable_sort(diffs.begin(), diffs.end(),
                     [](const linalg::IntVec &a, const linalg::IntVec &b) {
                         return linalg::nonZeroCount(a) <
                                linalg::nonZeroCount(b);
                     });

    RankTracker tracker(n);
    std::vector<linalg::IntVec> basis;
    for (const auto &d : diffs) {
        if (basis.size() >= target)
            break;
        if (tracker.tryAdd(d))
            basis.push_back(d);
    }
    fatal_if(basis.empty(), "{}: could not extract a difference basis",
             problem.id());
    return basis;
}

} // namespace

std::vector<linalg::IntVec>
homogeneousBasis(const problems::Problem &problem)
{
    auto basis = linalg::nullspaceBasis(problem.constraints());
    if (allSigned01(basis))
        return basis;

    // Repair pass: fold other basis vectors into the violating ones while
    // that strictly reduces how far they leave {-1,0,1}.
    for (int pass = 0; pass < 32 && !allSigned01(basis); ++pass) {
        bool changed = false;
        for (size_t i = 0; i < basis.size(); ++i) {
            if (linalg::isSigned01(basis[i]))
                continue;
            for (size_t j = 0; j < basis.size(); ++j) {
                if (i == j)
                    continue;
                int current = rangeViolation(basis[i]);
                for (int sign : {+1, -1}) {
                    linalg::IntVec cand(basis[i].size());
                    for (size_t k = 0; k < cand.size(); ++k)
                        cand[k] = basis[i][k] + sign * basis[j][k];
                    if (rangeViolation(cand) < current &&
                        linalg::nonZeroCount(cand) > 0) {
                        basis[i] = std::move(cand);
                        current = rangeViolation(basis[i]);
                        changed = true;
                    }
                }
            }
        }
        if (!changed)
            break;
    }
    if (allSigned01(basis))
        return basis;

    // General 0/1 systems (e.g. set covering): fall back to differences
    // of enumerated feasible solutions.
    return feasibleDifferenceBasis(problem, basis.size());
}

namespace {

/** u_i +/- u_j; nullopt when an entry leaves {-1, 0, 1}. */
std::optional<linalg::IntVec>
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

} // namespace

std::vector<linalg::IntVec>
simplifyBasis(std::vector<linalg::IntVec> basis, int max_passes)
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
                    // Elementary operations keep the basis independent, so
                    // candidates are never zero; the > 0 check guards the
                    // invariant anyway.
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

namespace {

using StateSet = std::unordered_set<BitVec, BitVecHash>;

/**
 * Add @p seeds to @p reached and close the set under +/-u moves for
 * every u in @p vectors, expanding from the states that were new.
 * States already in @p reached must have all their partners there.
 */
void
growClosure(const std::vector<TransitionHamiltonian> &vectors,
            StateSet &reached, const std::vector<BitVec> &seeds)
{
    std::vector<BitVec> frontier;
    for (const BitVec &x : seeds)
        if (reached.insert(x).second)
            frontier.push_back(x);
    while (!frontier.empty()) {
        const BitVec x = frontier.back();
        frontier.pop_back();
        for (const auto &tau : vectors)
            if (auto y = tau.partner(x); y && reached.insert(*y).second)
                frontier.push_back(*y);
    }
}

/** Closure of {start} under +/-u moves for every u in @p vectors. */
StateSet
reachableClosure(const std::vector<TransitionHamiltonian> &vectors,
                 const BitVec &start)
{
    StateSet reached;
    growClosure(vectors, reached, {start});
    return reached;
}

/** The first @p limit feasible states of @p problem, in DFS order. */
std::vector<BitVec>
feasibleUpTo(const problems::Problem &problem, size_t limit)
{
    const auto raw = linalg::enumerateBinary(problem.constraints(),
                                             problem.bounds(), limit);
    std::vector<BitVec> out(raw.size());
    for (size_t k = 0; k < raw.size(); ++k)
        for (size_t i = 0; i < raw[k].size(); ++i)
            if (raw[k][i])
                out[k].set(static_cast<int>(i));
    return out;
}

} // namespace

std::vector<linalg::IntVec>
transitionVectors(const problems::Problem &problem, bool simplify,
                  size_t max_feasible)
{
    const auto original = homogeneousBasis(problem);
    auto basis = simplify ? simplifyBasis(original) : original;
    // Connectivity cannot be verified without enumeration, and the
    // simplified vectors alone can disconnect the walk (sparser vectors
    // are dark on more states).  Keep the union: pruning later drops
    // whichever copies do not expand.
    auto withOriginals = [&] {
        if (simplify) {
            for (const auto &u : original) {
                if (std::find(basis.begin(), basis.end(), u) == basis.end())
                    basis.push_back(u);
            }
        }
        return basis;
    };
    if (!problem.enumerationEnabled())
        return withOriginals();
    // Enumerating one state past the limit decides the size without
    // walking a huge feasible set; within the limit the DFS yields the
    // whole set in feasibleSolutions() order.
    const auto feasible = feasibleUpTo(problem, max_feasible + 1);
    if (feasible.size() > max_feasible)
        return withOriginals();
    if (feasible.size() <= 1)
        return basis;

    RASENGAN_PROF("transition", "augment-connectivity");
    const BitVec &start = problem.trivialFeasible();
    auto transitions = makeTransitions(basis);
    StateSet reached = reachableClosure(transitions, start);

    const int n = problem.numVars();
    for (const BitVec &target : feasible) {
        if (reached.count(target))
            continue;
        // Connect the orphaned state directly to the start: the
        // difference of two feasible solutions is a signed-0/1 kernel
        // vector (Equation 3).
        linalg::IntVec u(n);
        for (int i = 0; i < n; ++i)
            u[i] = (target.get(i) ? 1 : 0) - (start.get(i) ? 1 : 0);
        panic_if(linalg::nonZeroCount(u) == 0,
                 "duplicate feasible state in augmentation");
        basis.push_back(u);
        transitions.emplace_back(basis.back());
        // The new vector may capture more than one orphan, so update the
        // closure before looking at the next target.  It is closed under
        // every older vector: growth can only start at the new vector's
        // partners of reached states.
        std::vector<BitVec> seeds;
        for (const BitVec &x : reached)
            if (auto y = transitions.back().partner(x))
                seeds.push_back(*y);
        growClosure(transitions, reached, seeds);
    }

    // Augmentation vectors (raw feasible differences) can have wide
    // supports; run Algorithm 1 once more over the full set and keep the
    // result only when it preserves the walk's coverage.
    if (simplify && basis.size() > 1) {
        auto candidate = simplifyBasis(basis);
        auto cand_reached =
            reachableClosure(makeTransitions(candidate), start);
        if (cand_reached.size() == reached.size())
            basis = std::move(candidate);
    }
    return basis;
}

int
totalNonZeros(const std::vector<linalg::IntVec> &basis)
{
    int total = 0;
    for (const auto &u : basis)
        total += linalg::nonZeroCount(u);
    return total;
}

} // namespace rasengan::core
