/**
 * @file
 * Design-choice ablation: where the homogeneous basis comes from.
 * Compares, per benchmark:
 *   rref      : RREF free-column kernel basis (+ signed-0/1 repair)
 *   hnf       : Hermite-normal-form kernel basis
 *   simplified: rref basis after Algorithm 1
 *   executable: transitionVectors() (simplified + connectivity
 *               augmentation), what the solver actually runs
 * on total nonzeros (the circuit-cost driver) and walk coverage of the
 * feasible set.  Exits 1 when an executable row's coverage falls short
 * of the feasible count: augmentation promises full coverage.
 */

#include "bench_util.h"
#include "core/basis.h"
#include "core/chain.h"
#include "core/rasengan.h"
#include "linalg/hnf.h"
#include "linalg/nullspace.h"
#include "problems/suite.h"

using namespace rasengan;
using namespace rasengan::bench;

namespace {

size_t
coverage(const std::vector<linalg::IntVec> &vectors,
         const problems::Problem &p)
{
    for (const auto &u : vectors)
        if (!linalg::isSigned01(u))
            return 0; // not executable as transitions
    auto transitions = core::makeTransitions(vectors);
    core::Chain chain =
        core::buildChain(transitions, p.trivialFeasible());
    return chain.reachableCount;
}

} // namespace

int
main()
{
    banner("Basis ablation: RREF vs HNF vs Algorithm 1 vs executable set");

    Table table({"bench", "basis", "vectors", "nonzeros", "coverage",
                 "feasible"});
    table.printHeader();

    int short_rows = 0;
    for (const char *id : {"F2", "K2", "J3", "S3", "G2", "G4"}) {
        problems::Problem p = problems::makeBenchmark(id);
        struct Variant
        {
            const char *name;
            std::vector<linalg::IntVec> vectors;
        };
        std::vector<Variant> variants;
        variants.push_back({"rref", core::homogeneousBasis(p)});
        variants.push_back({"hnf", linalg::hnfKernelBasis(p.constraints())});
        variants.push_back(
            {"simplified", core::simplifyBasis(core::homogeneousBasis(p))});
        variants.push_back({"executable", core::transitionVectors(p)});

        for (const Variant &v : variants) {
            bool executable = true;
            for (const auto &u : v.vectors)
                executable &= linalg::isSigned01(u);
            table.cell(id);
            table.cell(std::string(v.name));
            table.cell(static_cast<int>(v.vectors.size()));
            table.cell(core::totalNonZeros(v.vectors));
            const size_t covered = executable ? coverage(v.vectors, p) : 0;
            if (executable)
                table.cell(static_cast<int>(covered));
            else
                table.cell(std::string("n/a"));
            table.cell(static_cast<int>(p.feasibleCount()));
            table.endRow();
            if (std::string(v.name) == "executable" &&
                covered != p.feasibleCount()) {
                std::fprintf(stderr,
                             "%s: executable set covers %zu of %zu "
                             "feasible states\n",
                             id, covered, p.feasibleCount());
                ++short_rows;
            }
        }
    }

    std::printf("\nexpected shape: Algorithm 1 cuts nonzeros (circuit "
                "cost) but can shrink coverage; the executable set "
                "restores full coverage with a handful of difference "
                "vectors.  HNF bases are sometimes sparser than RREF but "
                "are not guaranteed signed-0/1.\n");
    return short_rows > 0 ? 1 : 0;
}
