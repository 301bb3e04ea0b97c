/**
 * @file
 * A constrained binary optimization instance (Equation 1 of the paper):
 * minimize f(x) subject to C x = b, x in {0,1}^n.
 */

#ifndef RASENGAN_PROBLEMS_PROBLEM_H
#define RASENGAN_PROBLEMS_PROBLEM_H

#include <optional>
#include <string>
#include <vector>

#include "common/bitvec.h"
#include "linalg/matrix.h"
#include "problems/objective.h"

namespace rasengan::problems {

class Problem
{
  public:
    /**
     * @param id        benchmark label, e.g. "F1"
     * @param family    family label, e.g. "FLP"
     * @param c         equality constraint matrix
     * @param b         constraint bounds
     * @param objective minimization objective
     * @param trivial   a feasible solution the generator constructs in
     *                  linear time (Section 5.1); validated here
     */
    Problem(std::string id, std::string family, linalg::IntMat c,
            linalg::IntVec b, QuadraticObjective objective, BitVec trivial);

    const std::string &id() const { return id_; }
    const std::string &family() const { return family_; }
    int numVars() const { return constraints_.cols(); }
    int numConstraints() const { return constraints_.rows(); }

    const linalg::IntMat &constraints() const { return constraints_; }
    const linalg::IntVec &bounds() const { return bvec_; }
    const QuadraticObjective &objectiveFn() const { return objective_; }

    /** Objective value of assignment @p x (lower is better). */
    double objective(const BitVec &x) const { return objective_.eval(x); }

    /**
     * True iff C x = b.  Stops at the first unsatisfied row; the verdict
     * equals violation(x) == 0.
     */
    bool isFeasible(const BitVec &x) const;

    /**
     * L1 constraint violation ||C x - b||_1, computed from the
     * coefficient-mask table: row r's activity is
     * sum_v v * popcount(x & mask_{r,v}) over its distinct nonzero
     * coefficients v, a few word operations per row instead of a loop
     * over all n columns.  Bits of @p x at or above numVars() are
     * ignored.
     */
    int64_t violation(const BitVec &x) const;

    /**
     * f(x) + lambda * ||C x - b||_1: the soft-constrained objective
     * penalty-term methods optimize and the value infeasible outputs are
     * scored with in the ARG metric.
     */
    double penalizedObjective(const BitVec &x, double lambda) const;

    /** The generator's linear-time feasible solution. */
    const BitVec &trivialFeasible() const { return trivial_; }

    /**
     * All feasible solutions (cached after the first call).  Aborts when
     * the instance was constructed for scalability runs and enumeration
     * was disabled.
     */
    const std::vector<BitVec> &feasibleSolutions() const;

    /** Number of feasible solutions. */
    size_t feasibleCount() const { return feasibleSolutions().size(); }

    /** Minimum objective over the feasible set. */
    double optimalValue() const;

    /** A feasible solution attaining optimalValue(). */
    BitVec optimalSolution() const;

    /** Mean objective over the feasible set (Figure 11's baseline). */
    double meanFeasibleValue() const;

    /** Maximum objective over the feasible set. */
    double worstFeasibleValue() const;

    /**
     * Approximation ratio gap (Equation 9): |(E_opt - E_real) / E_opt|.
     */
    double arg(double e_real) const;

    /**
     * Provide a closed-form optimum (used by generators whose structure
     * admits one, so scalability instances avoid enumeration).
     */
    void setExactOptimal(double value);

    /** Disable feasible-set enumeration (large scalability instances). */
    void disableEnumeration() { enumerable_ = false; }

    /** True when feasibleSolutions() may be called. */
    bool enumerationEnabled() const { return enumerable_; }

  private:
    /** Columns of one row that carry coefficient @c coeff. */
    struct MaskTerm
    {
        BitVec mask;
        int64_t coeff;
    };

    /** (C x)_r from row @p r's mask terms. */
    int64_t rowActivity(size_t r, const BitVec &x) const;

    std::string id_;
    std::string family_;
    linalg::IntMat constraints_;
    linalg::IntVec bvec_;
    QuadraticObjective objective_;
    BitVec trivial_;
    /**
     * Row r's terms are maskTerms_[rowStart_[r] .. rowStart_[r + 1]),
     * one per distinct nonzero coefficient in order of first column.
     */
    std::vector<MaskTerm> maskTerms_;
    std::vector<size_t> rowStart_;
    bool enumerable_ = true;
    std::optional<double> exactOptimal_;

    mutable std::optional<std::vector<BitVec>> feasibleCache_;
};

} // namespace rasengan::problems

#endif // RASENGAN_PROBLEMS_PROBLEM_H
