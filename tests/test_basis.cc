/**
 * @file
 * Tests for homogeneous-basis extraction and Algorithm 1 (Hamiltonian
 * simplification): kernel membership, span preservation, nonzero-count
 * reduction (the Figure 5 example), and the simplification invariants
 * across the whole benchmark suite.  The bit-packed Algorithm 1 is
 * checked against the entrywise reference loop.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/basis.h"
#include "core_reference.h"
#include "linalg/nullspace.h"
#include "linalg/rref.h"
#include "problems/io.h"
#include "problems/suite.h"

namespace rasengan::core {
namespace {

/** Stack vectors as rows of a matrix. */
linalg::IntMat
asMatrix(const std::vector<linalg::IntVec> &vs)
{
    if (vs.empty())
        return linalg::IntMat(0, 0);
    linalg::IntMat m(static_cast<int>(vs.size()),
                     static_cast<int>(vs[0].size()));
    for (size_t r = 0; r < vs.size(); ++r)
        for (size_t c = 0; c < vs[0].size(); ++c)
            m.at(static_cast<int>(r), static_cast<int>(c)) = vs[r][c];
    return m;
}

TEST(Basis, Figure5Example)
{
    // u2 = [-1,0,-1,1,0] plus u3 = [1,0,1,0,1] gives [0,0,0,1,1]:
    // 3 nonzeros shrink to 2 (the paper's worked simplification).
    std::vector<linalg::IntVec> basis = {
        {-1, 1, 0, 0, 0}, {-1, 0, -1, 1, 0}, {1, 0, 1, 0, 1}};
    int before = totalNonZeros(basis);
    auto simplified = simplifyBasis(basis, 1);
    EXPECT_LT(totalNonZeros(simplified), before);
    // The second vector must now have only two nonzeros.
    bool has_two = false;
    for (const auto &u : simplified)
        has_two |= linalg::nonZeroCount(u) == 2;
    EXPECT_TRUE(has_two);
}

TEST(Basis, SimplifyKeepsKernelMembership)
{
    linalg::IntMat c{{1, 1, -1, 0, 0}, {0, 0, 1, 1, -1}};
    auto basis = linalg::nullspaceBasis(c);
    auto simplified = simplifyBasis(basis);
    EXPECT_EQ(simplified.size(), basis.size());
    for (const auto &u : simplified) {
        for (int64_t v : applyInt(c, u))
            EXPECT_EQ(v, 0);
        EXPECT_TRUE(linalg::isSigned01(u));
        EXPECT_GT(linalg::nonZeroCount(u), 0);
    }
}

TEST(Basis, SimplifyPreservesSpan)
{
    linalg::IntMat c{{1, 1, -1, 0, 0}, {0, 0, 1, 1, -1}};
    auto basis = linalg::nullspaceBasis(c);
    auto simplified = simplifyBasis(basis);
    // Same count + full rank + kernel membership => same span.
    EXPECT_EQ(linalg::rank(asMatrix(simplified)),
              static_cast<int>(simplified.size()));
}

TEST(Basis, SimplifyNeverIncreasesNonZeros)
{
    for (const std::string &id : problems::benchmarkIds()) {
        problems::Problem p = problems::makeBenchmark(id);
        auto basis = homogeneousBasis(p);
        auto simplified = simplifyBasis(basis);
        EXPECT_LE(totalNonZeros(simplified), totalNonZeros(basis)) << id;
        EXPECT_EQ(simplified.size(), basis.size()) << id;
        EXPECT_EQ(linalg::rank(asMatrix(simplified)),
                  static_cast<int>(simplified.size()))
            << id;
    }
}

TEST(Basis, SimplifiedVectorsStayInKernel)
{
    for (const char *id : {"F2", "K2", "S3", "G2"}) {
        problems::Problem p = problems::makeBenchmark(id);
        auto simplified = simplifyBasis(homogeneousBasis(p));
        for (const auto &u : simplified) {
            for (int64_t v : applyInt(p.constraints(), u))
                EXPECT_EQ(v, 0) << id;
        }
    }
}

TEST(Basis, DimensionIsBoundedByRankNullity)
{
    for (const std::string &id : problems::benchmarkIds()) {
        problems::Problem p = problems::makeBenchmark(id);
        auto basis = homogeneousBasis(p);
        // The RREF/repair path returns exactly the nullity; the
        // feasible-difference fallback may return fewer vectors (only
        // directions realized by feasible differences matter).
        EXPECT_LE(static_cast<int>(basis.size()),
                  p.numVars() - linalg::rank(p.constraints()))
            << id;
        EXPECT_GE(basis.size(), 1u) << id;
    }
}

TEST(Basis, TransitionVectorsConnectFeasibleSpace)
{
    // The executable vector set (with augmentation) must make the
    // feasible set connected for every suite benchmark; the vectors stay
    // kernel members in {-1,0,1}.
    for (const std::string &id : problems::benchmarkIds()) {
        problems::Problem p = problems::makeBenchmark(id);
        auto vectors = transitionVectors(p);
        for (const auto &u : vectors) {
            EXPECT_TRUE(linalg::isSigned01(u)) << id;
            for (int64_t v : applyInt(p.constraints(), u))
                EXPECT_EQ(v, 0) << id;
        }
        EXPECT_GE(vectors.size(), homogeneousBasis(p).size()) << id;
    }
}

TEST(Basis, SingleVectorIsUntouched)
{
    std::vector<linalg::IntVec> one = {{1, -1, 0}};
    EXPECT_EQ(simplifyBasis(one), one);
}

TEST(Basis, FixedPointIsStable)
{
    std::vector<linalg::IntVec> basis = {
        {-1, 1, 0, 0, 0}, {-1, 0, -1, 1, 0}, {1, 0, 1, 0, 1}};
    auto once = simplifyBasis(basis);
    auto twice = simplifyBasis(once);
    EXPECT_EQ(once, twice);
}

// ---- Packed Algorithm 1 against the entrywise reference -------------------

TEST(BasisReference, PackedSimplifyMatchesReferenceOnRandomBases)
{
    // Dense random signed-0/1 vectors, so many combinations hit +/-2 and
    // are rejected; lengths cross the BitVec word boundary.  Random sets
    // can be dependent, which exercises the zero-candidate guard too.
    const int lengths[] = {3, 8, 63, 64, 65, 100, 128};
    Rng rng(2025);
    int rejected = 0;
    for (int trial = 0; trial < 300; ++trial) {
        const int n = lengths[trial % 7];
        const int m = static_cast<int>(rng.uniformInt(2, 10));
        const double density = rng.uniformReal(0.2, 0.9);
        std::vector<linalg::IntVec> basis(m, linalg::IntVec(n, 0));
        for (auto &u : basis) {
            for (auto &e : u)
                if (rng.bernoulli(density))
                    e = rng.bernoulli(0.5) ? 1 : -1;
            u[rng.uniformInt(0, n - 1)] = 1; // never the zero vector
        }
        for (size_t i = 0; i < basis.size(); ++i)
            for (size_t j = 0; j < basis.size(); ++j)
                for (int sign : {+1, -1})
                    rejected += i != j && !reference::combine(
                                              basis[i], basis[j], sign);
        for (int passes : {1, 8}) {
            EXPECT_EQ(simplifyBasis(basis, passes),
                      reference::simplifyBasis(basis, passes))
                << "trial " << trial << " n " << n << " passes " << passes;
        }
    }
    EXPECT_GT(rejected, 1000);
}

TEST(BasisReference, PackedSimplifyMatchesReferenceOnSuiteBases)
{
    // Both simplification inputs transitionVectors has: the homogeneous
    // basis, and a basis with augmentation vectors appended.
    for (const std::string &id : problems::benchmarkIds()) {
        problems::Problem p = problems::makeBenchmark(id);
        for (const auto &basis :
             {homogeneousBasis(p), transitionVectors(p, false)}) {
            EXPECT_EQ(simplifyBasis(basis), reference::simplifyBasis(basis))
                << id;
        }
    }
}

TEST(BasisReference, PackedSimplifyMatchesReferenceOnLargeFlpBases)
{
    // The 27-60 variable FLP instances, parsed from text as requests
    // carry them, so they enumerate and augment.
    for (int vars : {27, 33, 44, 52, 60}) {
        auto parsed = problems::parseProblem(
            problems::writeProblem(problems::makeScalabilityFlp(vars)));
        ASSERT_TRUE(parsed.problem.has_value()) << parsed.error;
        const problems::Problem &p = *parsed.problem;
        for (const auto &basis :
             {homogeneousBasis(p), transitionVectors(p, false)}) {
            EXPECT_EQ(simplifyBasis(basis), reference::simplifyBasis(basis))
                << p.id();
        }
    }
}

TEST(BasisReference, PackedSimplifyRejectsNonSigned01Input)
{
    EXPECT_DEATH(simplifyBasis({{1, 2, 0}, {1, -1, 0}}), "outside");
    EXPECT_DEATH(simplifyBasis({{1, -1, 0}, {1, -1}}), "entries");
}

} // namespace
} // namespace rasengan::core
