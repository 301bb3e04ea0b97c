#include "linalg/solve.h"

#include <algorithm>

#include "linalg/rref.h"
#include "obs/prof.h"

namespace rasengan::linalg {

std::optional<std::vector<Rational>>
solveParticular(const IntMat &c, const IntVec &b)
{
    fatal_if(static_cast<int>(b.size()) != c.rows(),
             "solveParticular: b size {} != rows {}", b.size(), c.rows());
    // Eliminate on the augmented matrix [C | b].
    RatMat aug(c.rows(), c.cols() + 1);
    for (int r = 0; r < c.rows(); ++r) {
        for (int col = 0; col < c.cols(); ++col)
            aug.at(r, col) = Rational(c.at(r, col));
        aug.at(r, c.cols()) = Rational(b[r]);
    }
    RrefResult rr = rref(aug);

    // Inconsistent iff some pivot lands in the augmented column.
    for (int col : rr.pivotCols)
        if (col == c.cols())
            return std::nullopt;

    std::vector<Rational> x(c.cols(), Rational(0));
    for (size_t p = 0; p < rr.pivotCols.size(); ++p)
        x[rr.pivotCols[p]] = rr.mat.at(static_cast<int>(p), c.cols());
    return x;
}

namespace {

/**
 * Shared pruned DFS over binary assignments.  Variables are assigned in
 * index order; lo_/hi_ track, per row, the bounds of C x over all
 * completions of the current partial assignment.
 *
 * Every node the search enters has passed the pruning check on every
 * row.  Committing a variable changes only the rows of its nonzero
 * entries, so only those rows are updated and re-checked: the search
 * visits the same nodes as a full check would, in the same order.
 */
class BinaryDfs
{
  public:
    BinaryDfs(const IntMat &c, const IntVec &b)
        : b_(b), n_(c.cols()),
          x_(static_cast<size_t>(c.cols()), 0),
          lo_(c.rows(), 0), hi_(c.rows(), 0), acc_(c.rows(), 0),
          entries_(static_cast<size_t>(c.cols()))
    {
        // Initially every variable is free: bounds accumulate the
        // negative/positive parts of each row.
        for (int r = 0; r < c.rows(); ++r) {
            for (int col = 0; col < n_; ++col) {
                int64_t a = c.at(r, col);
                if (a == 0)
                    continue;
                entries_[col].emplace_back(r, a);
                (a < 0 ? lo_ : hi_)[r] += a;
            }
        }
    }

    /**
     * Call @p visit on each solution in DFS order until it returns
     * false or @p limit solutions were visited (0 = no limit).
     */
    void
    run(size_t limit, const BinaryVisitor &visit)
    {
        limit_ = limit;
        visit_ = &visit;
        bool feasible = true;
        for (size_t r = 0; r < b_.size(); ++r)
            feasible &= rowFeasible(r);
        if (feasible)
            recurse(0);
    }

  private:
    /** acc_[r] + [lo_[r], hi_[r]] must contain b_[r]. */
    bool
    rowFeasible(size_t r) const
    {
        return acc_[r] + lo_[r] <= b_[r] && acc_[r] + hi_[r] >= b_[r];
    }

    void
    recurse(int var)
    {
        if (var == n_) {
            ++found_;
            if (!(*visit_)(x_) || (limit_ && found_ >= limit_))
                done_ = true;
            return;
        }
        for (int64_t value : {0, 1}) {
            x_[var] = value;
            // Commit variable `var`: move its contribution from the free
            // bounds into the accumulated sum.
            bool feasible = true;
            for (auto [r, a] : entries_[var]) {
                (a < 0 ? lo_ : hi_)[r] -= a;
                acc_[r] += a * value;
                feasible &= rowFeasible(r);
            }
            if (feasible)
                recurse(var + 1);
            for (auto [r, a] : entries_[var]) {
                acc_[r] -= a * value;
                (a < 0 ? lo_ : hi_)[r] += a;
            }
            if (done_)
                return;
        }
        x_[var] = 0;
    }

    const IntVec &b_;
    int n_;
    IntVec x_;
    IntVec lo_, hi_;
    IntVec acc_;
    /** Per column: its nonzero (row, coefficient) entries. */
    std::vector<std::vector<std::pair<size_t, int64_t>>> entries_;
    size_t limit_ = 0;
    const BinaryVisitor *visit_ = nullptr;
    size_t found_ = 0;
    bool done_ = false;
};

} // namespace

std::optional<IntVec>
solveBinary(const IntMat &c, const IntVec &b)
{
    fatal_if(static_cast<int>(b.size()) != c.rows(),
             "solveBinary: b size {} != rows {}", b.size(), c.rows());
    std::optional<IntVec> first;
    BinaryDfs(c, b).run(1, [&](const IntVec &x) {
        first = x;
        return false;
    });
    return first;
}

void
visitBinary(const IntMat &c, const IntVec &b, size_t limit,
            const BinaryVisitor &visit)
{
    fatal_if(static_cast<int>(b.size()) != c.rows(),
             "visitBinary: b size {} != rows {}", b.size(), c.rows());
    RASENGAN_PROF("linalg", "enumerate-binary");
    BinaryDfs(c, b).run(limit, visit);
}

std::vector<IntVec>
enumerateBinary(const IntMat &c, const IntVec &b, size_t limit)
{
    std::vector<IntVec> found;
    visitBinary(c, b, limit, [&](const IntVec &x) {
        found.push_back(x);
        return true;
    });
    return found;
}

std::vector<BitVec>
enumerateBinaryBits(const IntMat &c, const IntVec &b, size_t limit)
{
    fatal_if(c.cols() > kMaxBits,
             "enumerateBinaryBits: {} columns exceed a BitVec's {}",
             c.cols(), kMaxBits);
    std::vector<BitVec> found;
    visitBinary(c, b, limit, [&](const IntVec &x) {
        BitVec bits;
        for (size_t i = 0; i < x.size(); ++i)
            if (x[i])
                bits.set(static_cast<int>(i));
        found.push_back(bits);
        return true;
    });
    return found;
}

bool
satisfies(const IntMat &c, const IntVec &b, const IntVec &x)
{
    if (static_cast<int>(x.size()) != c.cols() ||
        static_cast<int>(b.size()) != c.rows()) {
        return false;
    }
    IntVec cx = applyInt(c, x);
    return cx == b;
}

} // namespace rasengan::linalg
