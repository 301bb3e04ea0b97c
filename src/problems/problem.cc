#include "problems/problem.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "linalg/solve.h"

namespace rasengan::problems {

Problem::Problem(std::string id, std::string family, linalg::IntMat c,
                 linalg::IntVec b, QuadraticObjective objective,
                 BitVec trivial)
    : id_(std::move(id)), family_(std::move(family)),
      constraints_(std::move(c)), bvec_(std::move(b)),
      objective_(std::move(objective)), trivial_(trivial)
{
    fatal_if(static_cast<int>(bvec_.size()) != constraints_.rows(),
             "{}: bounds size {} != constraint rows {}", id_, bvec_.size(),
             constraints_.rows());
    fatal_if(objective_.numVars() != constraints_.cols(),
             "{}: objective over {} vars, constraints over {}", id_,
             objective_.numVars(), constraints_.cols());

    rowStart_.reserve(constraints_.rows() + 1);
    rowStart_.push_back(0);
    for (int r = 0; r < constraints_.rows(); ++r) {
        const size_t first = maskTerms_.size();
        for (int col = 0; col < constraints_.cols(); ++col) {
            const int64_t v = constraints_.at(r, col);
            if (v == 0)
                continue;
            auto term = std::find_if(
                maskTerms_.begin() + first, maskTerms_.end(),
                [v](const MaskTerm &t) { return t.coeff == v; });
            if (term == maskTerms_.end()) {
                maskTerms_.push_back({BitVec{}, v});
                term = maskTerms_.end() - 1;
            }
            term->mask.set(col);
        }
        rowStart_.push_back(maskTerms_.size());
    }

    fatal_if(!isFeasible(trivial_),
             "{}: generator's trivial solution violates the constraints",
             id_);
}

int64_t
Problem::rowActivity(size_t r, const BitVec &x) const
{
    int64_t acc = 0;
    for (size_t k = rowStart_[r]; k < rowStart_[r + 1]; ++k)
        acc += maskTerms_[k].coeff * (x & maskTerms_[k].mask).popcount();
    return acc;
}

bool
Problem::isFeasible(const BitVec &x) const
{
    for (size_t r = 0; r < bvec_.size(); ++r)
        if (rowActivity(r, x) != bvec_[r])
            return false;
    return true;
}

int64_t
Problem::violation(const BitVec &x) const
{
    int64_t total = 0;
    for (size_t r = 0; r < bvec_.size(); ++r)
        total += std::abs(rowActivity(r, x) - bvec_[r]);
    return total;
}

double
Problem::penalizedObjective(const BitVec &x, double lambda) const
{
    return objective_.eval(x) +
           lambda * static_cast<double>(violation(x));
}

const std::vector<BitVec> &
Problem::feasibleSolutions() const
{
    if (!feasibleCache_) {
        fatal_if(!enumerable_,
                 "{}: feasible-set enumeration disabled for this instance",
                 id_);
        feasibleCache_ = linalg::enumerateBinaryBits(constraints_, bvec_);
    }
    return *feasibleCache_;
}

double
Problem::optimalValue() const
{
    if (exactOptimal_)
        return *exactOptimal_;
    const auto &sols = feasibleSolutions();
    fatal_if(sols.empty(), "{}: no feasible solutions", id_);
    double best = objective_.eval(sols[0]);
    for (const BitVec &x : sols)
        best = std::min(best, objective_.eval(x));
    return best;
}

BitVec
Problem::optimalSolution() const
{
    const auto &sols = feasibleSolutions();
    fatal_if(sols.empty(), "{}: no feasible solutions", id_);
    const BitVec *best = &sols[0];
    double best_v = objective_.eval(sols[0]);
    for (const BitVec &x : sols) {
        double v = objective_.eval(x);
        if (v < best_v) {
            best_v = v;
            best = &x;
        }
    }
    return *best;
}

double
Problem::meanFeasibleValue() const
{
    const auto &sols = feasibleSolutions();
    fatal_if(sols.empty(), "{}: no feasible solutions", id_);
    double acc = 0.0;
    for (const BitVec &x : sols)
        acc += objective_.eval(x);
    return acc / static_cast<double>(sols.size());
}

double
Problem::worstFeasibleValue() const
{
    const auto &sols = feasibleSolutions();
    fatal_if(sols.empty(), "{}: no feasible solutions", id_);
    double worst = objective_.eval(sols[0]);
    for (const BitVec &x : sols)
        worst = std::max(worst, objective_.eval(x));
    return worst;
}

double
Problem::arg(double e_real) const
{
    double e_opt = optimalValue();
    panic_if(std::abs(e_opt) < 1e-12,
             "{}: ARG undefined for zero optimal value", id_);
    return std::abs((e_opt - e_real) / e_opt);
}

void
Problem::setExactOptimal(double value)
{
    exactOptimal_ = value;
}

} // namespace rasengan::problems
