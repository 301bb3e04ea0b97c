/**
 * @file
 * Unit tests for src/linalg: exact rationals, RREF, integer nullspace,
 * binary feasibility search, determinants and total unimodularity.
 *
 * Several tests use the worked example of the paper (Figure 1a /
 * Equation 4): C = [[1,1,-1,0,0],[0,0,1,1,-1]], b = [0,1].
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "linalg/nullspace.h"
#include "linalg/rational.h"
#include "linalg/rref.h"
#include "linalg/solve.h"
#include "linalg/unimodular.h"

namespace rasengan::linalg {
namespace {

IntMat
paperMatrix()
{
    return IntMat{{1, 1, -1, 0, 0}, {0, 0, 1, 1, -1}};
}

IntVec
paperBounds()
{
    return {0, 1};
}

TEST(Rational, NormalizesToLowestTerms)
{
    Rational r(6, -4);
    EXPECT_EQ(r.num(), -3);
    EXPECT_EQ(r.den(), 2);
    EXPECT_EQ(Rational(0, 7), Rational(0));
}

TEST(Rational, Arithmetic)
{
    Rational half(1, 2), third(1, 3);
    EXPECT_EQ(half + third, Rational(5, 6));
    EXPECT_EQ(half - third, Rational(1, 6));
    EXPECT_EQ(half * third, Rational(1, 6));
    EXPECT_EQ(half / third, Rational(3, 2));
    EXPECT_EQ(-half, Rational(-1, 2));
    EXPECT_EQ(half.abs(), half);
    EXPECT_EQ((-half).abs(), half);
}

TEST(Rational, Comparisons)
{
    EXPECT_LT(Rational(1, 3), Rational(1, 2));
    EXPECT_GT(Rational(-1, 3), Rational(-1, 2));
    EXPECT_LE(Rational(2, 4), Rational(1, 2));
    EXPECT_GE(Rational(1, 2), Rational(2, 4));
    EXPECT_NE(Rational(1, 2), Rational(1, 3));
}

TEST(Rational, IntegerQueries)
{
    EXPECT_TRUE(Rational(4, 2).isInteger());
    EXPECT_EQ(Rational(4, 2).toInt(), 2);
    EXPECT_FALSE(Rational(1, 2).isInteger());
    EXPECT_TRUE(Rational(0).isZero());
    EXPECT_NEAR(Rational(1, 4).toDouble(), 0.25, 1e-15);
}

TEST(Rational, ToStringForms)
{
    EXPECT_EQ(Rational(5).toString(), "5");
    EXPECT_EQ(Rational(-1, 2).toString(), "-1/2");
}

TEST(Matrix, InitializerAndAccess)
{
    IntMat m{{1, 2}, {3, 4}, {5, 6}};
    EXPECT_EQ(m.rows(), 3);
    EXPECT_EQ(m.cols(), 2);
    EXPECT_EQ(m.at(2, 1), 6);
    m.at(0, 0) = 9;
    EXPECT_EQ(m.row(0), (std::vector<int64_t>{9, 2}));
}

TEST(Matrix, ApplyInt)
{
    IntMat m{{1, -1}, {2, 0}};
    EXPECT_EQ(applyInt(m, {3, 1}), (IntVec{2, 6}));
}

TEST(Matrix, SwapRows)
{
    IntMat m{{1, 2}, {3, 4}};
    m.swapRows(0, 1);
    EXPECT_EQ(m.at(0, 0), 3);
    EXPECT_EQ(m.at(1, 1), 2);
}

TEST(Rref, IdentityIsFixedPoint)
{
    RatMat eye{{1, 0}, {0, 1}};
    RrefResult r = rref(eye);
    EXPECT_EQ(r.rank, 2);
    EXPECT_EQ(r.mat, eye);
    EXPECT_EQ(r.pivotCols, (std::vector<int>{0, 1}));
}

TEST(Rref, RankOfSingularMatrix)
{
    IntMat m{{1, 2, 3}, {2, 4, 6}, {1, 0, 1}};
    EXPECT_EQ(rank(m), 2);
}

TEST(Rref, PaperMatrixHasRankTwo)
{
    EXPECT_EQ(rank(paperMatrix()), 2);
}

TEST(Nullspace, DimensionMatchesRankNullity)
{
    auto basis = nullspaceBasis(paperMatrix());
    EXPECT_EQ(basis.size(), 3u); // n - rank = 5 - 2
}

TEST(Nullspace, VectorsAreInKernel)
{
    IntMat c = paperMatrix();
    for (const auto &u : nullspaceBasis(c)) {
        IntVec cu = applyInt(c, u);
        for (int64_t v : cu)
            EXPECT_EQ(v, 0);
    }
}

TEST(Nullspace, PaperBasisIsSigned01)
{
    for (const auto &u : nullspaceBasis(paperMatrix())) {
        EXPECT_TRUE(isSigned01(u));
        EXPECT_GT(nonZeroCount(u), 0);
    }
}

TEST(Nullspace, FullColumnRankHasEmptyBasis)
{
    IntMat m{{1, 0}, {0, 1}, {1, 1}};
    EXPECT_TRUE(nullspaceBasis(m).empty());
}

TEST(Nullspace, ScalesFractionsToPrimitiveIntegers)
{
    // RREF of [2, 1] gives pivot value 1/2 on the free column; the
    // integer basis vector must be scaled to [-1, 2] (primitive).
    IntMat m{{2, 1}};
    auto basis = nullspaceBasis(m);
    ASSERT_EQ(basis.size(), 1u);
    IntVec u = basis[0];
    EXPECT_EQ(applyInt(m, u), (IntVec{0}));
    EXPECT_EQ(std::abs(u[0]) + std::abs(u[1]), 3); // {-1,2} up to sign
}

TEST(Solve, ParticularSolutionSatisfiesSystem)
{
    IntMat c = paperMatrix();
    IntVec b = paperBounds();
    auto x = solveParticular(c, b);
    ASSERT_TRUE(x.has_value());
    for (int r = 0; r < c.rows(); ++r) {
        Rational acc(0);
        for (int col = 0; col < c.cols(); ++col)
            acc += Rational(c.at(r, col)) * (*x)[col];
        EXPECT_EQ(acc, Rational(b[r]));
    }
}

TEST(Solve, DetectsInconsistency)
{
    IntMat c{{1, 1}, {1, 1}};
    EXPECT_FALSE(solveParticular(c, {0, 1}).has_value());
    EXPECT_FALSE(solveBinary(c, {0, 1}).has_value());
}

TEST(Solve, BinarySolutionOfPaperSystem)
{
    auto x = solveBinary(paperMatrix(), paperBounds());
    ASSERT_TRUE(x.has_value());
    EXPECT_TRUE(satisfies(paperMatrix(), paperBounds(), *x));
}

TEST(Solve, EnumerateFindsAllFiveFeasibleSolutions)
{
    // The paper's example has exactly five feasible solutions
    // (Figure 6a narrates "all five feasible solutions").
    auto sols = enumerateBinary(paperMatrix(), paperBounds());
    EXPECT_EQ(sols.size(), 5u);
    std::set<IntVec> unique(sols.begin(), sols.end());
    EXPECT_EQ(unique.size(), sols.size());
    for (const auto &x : sols)
        EXPECT_TRUE(satisfies(paperMatrix(), paperBounds(), x));
    // Spot-check the solutions listed in Section 3.
    EXPECT_TRUE(unique.count({0, 0, 0, 1, 0}));
    EXPECT_TRUE(unique.count({1, 0, 1, 0, 0}));
    EXPECT_TRUE(unique.count({0, 1, 1, 0, 0}));
    EXPECT_TRUE(unique.count({1, 0, 1, 1, 1}));
    EXPECT_TRUE(unique.count({0, 1, 1, 1, 1}));
}

TEST(Solve, EnumerateRespectsLimit)
{
    auto sols = enumerateBinary(paperMatrix(), paperBounds(), 2);
    EXPECT_EQ(sols.size(), 2u);
}

/** Solutions as bit vectors, entry i -> bit i. */
std::vector<BitVec>
asBits(const std::vector<IntVec> &sols)
{
    std::vector<BitVec> out;
    for (const IntVec &x : sols) {
        BitVec bits;
        for (size_t i = 0; i < x.size(); ++i)
            if (x[i])
                bits.set(static_cast<int>(i));
        out.push_back(bits);
    }
    return out;
}

TEST(Solve, BitEnumeratorMatchesVectorEnumerator)
{
    // enumerateBinaryBits and a visitor that stops itself yield the
    // vector enumerator's sequence, also under the "limit + 1" cut that
    // decides whether a feasible set exceeds a bound.  Pairs of
    // variables summing to 1, over up to 100 columns, cross the BitVec
    // word boundary; the solution count is 2^pairs.
    Rng rng(0xb17u);
    for (int trial = 0; trial < 40; ++trial) {
        const int pairs = static_cast<int>(rng.uniformInt(1, 50));
        const int n = 2 * pairs;
        IntMat c(pairs, n);
        IntVec b(pairs, 1);
        for (int r = 0; r < pairs; ++r) {
            const int64_t sign = rng.bernoulli(0.5) ? 1 : -1;
            c.at(r, 2 * r) = sign;
            c.at(r, 2 * r + 1) = sign;
            b[r] = sign;
        }
        const size_t cut = static_cast<size_t>(rng.uniformInt(1, 40));
        for (size_t limit : {cut, cut + 1}) {
            const auto want = enumerateBinary(c, b, limit);
            EXPECT_EQ(enumerateBinaryBits(c, b, limit), asBits(want))
                << "trial " << trial << " limit " << limit;

            std::vector<IntVec> visited;
            visitBinary(c, b, 0, [&](const IntVec &x) {
                visited.push_back(x);
                return visited.size() < limit;
            });
            EXPECT_EQ(visited, want) << "trial " << trial;
        }
        if (pairs <= 6) {
            const auto all = enumerateBinary(c, b);
            EXPECT_EQ(all.size(), size_t{1} << pairs);
            EXPECT_EQ(enumerateBinaryBits(c, b), asBits(all));
            EXPECT_EQ(enumerateBinaryBits(c, b, all.size() + 1),
                      asBits(all));
        }
    }
}

/**
 * Every binary solution of C x = b in the DFS order: lexicographic with
 * x_0 as the most significant digit, cut at @p limit (0 = no limit).
 */
std::vector<IntVec>
bruteForceSolutions(const IntMat &c, const IntVec &b, size_t limit)
{
    const int n = c.cols();
    std::vector<IntVec> out;
    for (uint64_t code = 0; code < (uint64_t{1} << n); ++code) {
        IntVec x(n);
        for (int i = 0; i < n; ++i)
            x[i] = static_cast<int64_t>((code >> (n - 1 - i)) & 1);
        if (!satisfies(c, b, x))
            continue;
        out.push_back(std::move(x));
        if (limit && out.size() >= limit)
            break;
    }
    return out;
}

TEST(Solve, EnumerateMatchesBruteForce)
{
    // Random systems with zero columns, negative coefficients and both
    // planted (feasible) and arbitrary (often infeasible) right-hand
    // sides: the pruned DFS must list exactly the brute-force solutions
    // in the same order, also when a limit cuts the list short.
    Rng rng(0xe7u);
    for (int trial = 0; trial < 120; ++trial) {
        const int n = static_cast<int>(rng.uniformInt(1, 16));
        const int rows = static_cast<int>(rng.uniformInt(1, 5));
        IntMat c(rows, n);
        for (int col = 0; col < n; ++col) {
            if (rng.bernoulli(0.2))
                continue; // a zero column: the variable is unconstrained
            for (int r = 0; r < rows; ++r)
                c.at(r, col) = rng.bernoulli(0.5) ? rng.uniformInt(-2, 2) : 0;
        }
        IntVec b(rows);
        if (rng.bernoulli(0.7)) {
            IntVec x0(n);
            for (int i = 0; i < n; ++i)
                x0[i] = rng.bernoulli(0.5) ? 1 : 0;
            b = applyInt(c, x0);
        } else {
            for (int r = 0; r < rows; ++r)
                b[r] = rng.uniformInt(-3, 3);
        }

        auto all = bruteForceSolutions(c, b, 0);
        EXPECT_EQ(enumerateBinary(c, b), all) << "trial " << trial;
        for (size_t limit : {size_t{1}, size_t{3}, all.size() + 1}) {
            EXPECT_EQ(enumerateBinary(c, b, limit),
                      bruteForceSolutions(c, b, limit))
                << "trial " << trial << " limit " << limit;
        }
        auto one = solveBinary(c, b);
        ASSERT_EQ(one.has_value(), !all.empty()) << "trial " << trial;
        if (one) {
            EXPECT_EQ(*one, all.front()) << "trial " << trial;
        }
    }
}

TEST(Solve, SatisfiesRejectsWrongSizes)
{
    EXPECT_FALSE(satisfies(paperMatrix(), paperBounds(), {1, 0}));
}

TEST(Determinant, KnownValues)
{
    EXPECT_EQ(determinant(IntMat{{3}}), 3);
    EXPECT_EQ(determinant(IntMat{{1, 2}, {3, 4}}), -2);
    EXPECT_EQ(determinant(IntMat{{2, 0, 0}, {0, 3, 0}, {0, 0, 4}}), 24);
    EXPECT_EQ(determinant(IntMat{{1, 2}, {2, 4}}), 0);
}

TEST(Determinant, RowSwapFlipsSign)
{
    EXPECT_EQ(determinant(IntMat{{0, 1}, {1, 0}}), -1);
}

TEST(Unimodular, PaperMatrixIsTotallyUnimodular)
{
    EXPECT_TRUE(isTotallyUnimodular(paperMatrix()));
}

TEST(Unimodular, DetectsViolation)
{
    // Contains a 2x2 submatrix with determinant 2.
    IntMat m{{1, 1}, {-1, 1}};
    EXPECT_FALSE(isTotallyUnimodular(m));
}

TEST(Unimodular, EntriesOutsideUnitRangeFail)
{
    EXPECT_FALSE(isTotallyUnimodular(IntMat{{2}}));
}

} // namespace
} // namespace rasengan::linalg
