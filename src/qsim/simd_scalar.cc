/**
 * @file
 * Scalar ISA table: thin wrappers around the simd_generic.h reference
 * bodies.  Always compiled in; the fallback on every target and the
 * reference every vector arm is tested against.
 */

#include "qsim/simd.h"
#include "qsim/simd_generic.h"

namespace rasengan::qsim::detail {

namespace {

const SimdKernels kScalarKernels = {
    SimdIsa::Scalar,
    &simd_generic::pairRotateStrided,
    &simd_generic::pairRotateAdjacent,
    &simd_generic::cmulArray,
    &simd_generic::diagonalEvolution,
    &simd_generic::diagonalTerms,
};

} // namespace

const SimdKernels *
simdScalarTable()
{
    return &kScalarKernels;
}

} // namespace rasengan::qsim::detail
