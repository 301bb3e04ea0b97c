#include "core/basis.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/bitvecset.h"
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

/**
 * A signed-0/1 vector as two bit masks: the +1 entries and the -1
 * entries.  Entries are disjoint by construction.
 */
struct SignedMasks
{
    BitVec plus;
    BitVec minus;

    int nonZeros() const { return plus.popcount() + minus.popcount(); }
};

/**
 * a + b as masks, or false when an entry leaves {-1, 0, 1}: that
 * happens exactly where both are +1 or both are -1.  Where the signs
 * differ the entries cancel.
 */
bool
addMasks(const SignedMasks &a, const BitVec &b_plus, const BitVec &b_minus,
         SignedMasks &out)
{
    const BitVec clash = (a.plus & b_plus) | (a.minus & b_minus);
    if (clash != BitVec{})
        return false;
    const BitVec any_plus = a.plus | b_plus;
    const BitVec any_minus = a.minus | b_minus;
    const BitVec cancel = any_plus & any_minus;
    out.plus = any_plus ^ cancel;
    out.minus = any_minus ^ cancel;
    return true;
}

} // namespace

std::vector<linalg::IntVec>
simplifyBasis(std::vector<linalg::IntVec> basis, int max_passes)
{
    // Precondition: same-length signed-0/1 vectors a BitVec can hold.
    const size_t n = basis.empty() ? 0 : basis.front().size();
    fatal_if(n > static_cast<size_t>(kMaxBits),
             "simplifyBasis: {} entries exceed {}", n, kMaxBits);
    for (size_t k = 0; k < basis.size(); ++k) {
        fatal_if(basis[k].size() != n,
                 "simplifyBasis: vector {} has {} entries, not {}", k,
                 basis[k].size(), n);
        fatal_if(!linalg::isSigned01(basis[k]),
                 "simplifyBasis: vector {} has entries outside {{-1,0,1}}",
                 k);
    }
    if (basis.size() < 2)
        return basis;
    std::vector<SignedMasks> packed(basis.size());
    for (size_t k = 0; k < basis.size(); ++k) {
        for (size_t i = 0; i < n; ++i) {
            if (basis[k][i] == 1)
                packed[k].plus.set(static_cast<int>(i));
            else if (basis[k][i] == -1)
                packed[k].minus.set(static_cast<int>(i));
        }
    }

    // Algorithm 1 over the masks: u_i + u_j, then u_i - u_j (the masks
    // of -u_j swap plus and minus), in the same i/j/sign order as the
    // entrywise loop, replacing u_i whenever the count strictly drops.
    for (int pass = 0; pass < max_passes; ++pass) {
        bool changed = false;
        for (size_t i = 0; i < packed.size(); ++i) {
            for (size_t j = 0; j < packed.size(); ++j) {
                if (i == j)
                    continue;
                int current = packed[i].nonZeros();
                for (bool add : {true, false}) {
                    const SignedMasks &b = packed[j];
                    SignedMasks cand;
                    if (!addMasks(packed[i], add ? b.plus : b.minus,
                                  add ? b.minus : b.plus, cand))
                        continue;
                    // Elementary operations keep the basis independent,
                    // so candidates are never zero; the > 0 check
                    // guards the invariant anyway.
                    const int count = cand.nonZeros();
                    if (count > 0 && count < current) {
                        packed[i] = cand;
                        current = count;
                        changed = true;
                    }
                }
            }
        }
        if (!changed)
            break;
    }

    for (size_t k = 0; k < basis.size(); ++k) {
        for (size_t i = 0; i < n; ++i) {
            const int bit = static_cast<int>(i);
            basis[k][i] = packed[k].plus.get(bit)    ? 1
                          : packed[k].minus.get(bit) ? -1
                                                     : 0;
        }
    }
    return basis;
}

namespace {

/**
 * Close @p reached under +/-u moves for every u in @p vectors, expanding
 * its items from index @p from on.  Every item before @p from must have
 * all its partners in @p reached already.
 */
void
growClosure(const std::vector<TransitionHamiltonian> &vectors,
            BitVecSet &reached, size_t from)
{
    for (size_t k = from; k < reached.size(); ++k) {
        const BitVec x = reached[k];
        for (const auto &tau : vectors)
            if (auto y = tau.partner(x))
                reached.insert(*y);
    }
}

/** Closure of {start} under +/-u moves for every u in @p vectors. */
BitVecSet
reachableClosure(const std::vector<TransitionHamiltonian> &vectors,
                 const BitVec &start)
{
    BitVecSet reached(start);
    growClosure(vectors, reached, 0);
    return reached;
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
    const auto feasible = linalg::enumerateBinaryBits(
        problem.constraints(), problem.bounds(), max_feasible + 1);
    if (feasible.size() > max_feasible)
        return withOriginals();
    if (feasible.size() <= 1)
        return basis;

    RASENGAN_PROF("transition", "augment-connectivity");
    const BitVec &start = problem.trivialFeasible();
    auto transitions = makeTransitions(basis);
    BitVecSet reached = reachableClosure(transitions, start);

    const int n = problem.numVars();
    for (const BitVec &target : feasible) {
        if (reached.contains(target))
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
        const size_t closed = reached.size();
        for (size_t k = 0; k < closed; ++k)
            if (auto y = transitions.back().partner(reached[k]))
                reached.insert(*y);
        growClosure(transitions, reached, closed);
    }

    // Augmentation vectors (raw feasible differences) can have wide
    // supports; run Algorithm 1 once more over the full set and keep the
    // result only when it preserves the walk's coverage.  An unchanged
    // set has the same closure, so it needs no re-check.
    if (simplify && basis.size() > 1) {
        auto candidate = simplifyBasis(basis);
        if (candidate != basis &&
            reachableClosure(makeTransitions(candidate), start).size() ==
                reached.size())
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
