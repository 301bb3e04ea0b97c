/**
 * @file
 * NEON ISA table (aarch64).  One complex<double> per 128-bit q
 * register; each kernel mirrors the scalar reference arithmetic of
 * simd_generic.h exactly -- separate multiply and add/sub steps, no
 * vfma (this TU, like every simd TU, is compiled with
 * -ffp-contract=off, which matters on aarch64 where GCC contracts by
 * default).  The control-mask kernel delegates to the shared scalar
 * body: it is integer-dominated, and the scalar body is already the
 * canonical op sequence.
 *
 * Gated on __aarch64__; other targets compile this TU to a null table.
 */

#include "qsim/simd.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include "qsim/simd_generic.h"

namespace rasengan::qsim::detail {
namespace {

using Complex = SimdKernels::Complex;
using Mat2 = SimdKernels::Mat2;

/**
 * Complex product (ar*br - ai*bi, ai*br + ar*bi): both lanes of the
 * sub and the add are computed, then the matching lane of each is
 * kept.  Same multiplies, same one add/sub per component as scalar.
 */
inline float64x2_t
cmul2(float64x2_t a, float64x2_t b)
{
    float64x2_t br = vdupq_laneq_f64(b, 0);
    float64x2_t bi = vdupq_laneq_f64(b, 1);
    float64x2_t as = vextq_f64(a, a, 1); // [ai, ar]
    float64x2_t t0 = vmulq_f64(a, br);   // [ar*br, ai*br]
    float64x2_t t1 = vmulq_f64(as, bi);  // [ai*bi, ar*bi]
    float64x2_t sub = vsubq_f64(t0, t1);
    float64x2_t add = vaddq_f64(t0, t1);
    return vsetq_lane_f64(vgetq_lane_f64(add, 1), sub, 1);
}

inline float64x2_t
loadComplex(const Complex &z)
{
    return vld1q_f64(reinterpret_cast<const double *>(&z));
}

void
pairRotateStrided(Complex *amps, uint64_t base, uint64_t len,
                  uint64_t bit, const Mat2 &u)
{
    double *d0 = reinterpret_cast<double *>(amps + base);
    double *d1 = reinterpret_cast<double *>(amps + base + bit);
    const float64x2_t m00 = loadComplex(u.m00);
    const float64x2_t m01 = loadComplex(u.m01);
    const float64x2_t m10 = loadComplex(u.m10);
    const float64x2_t m11 = loadComplex(u.m11);
    for (uint64_t j = 0; j < len; ++j) {
        float64x2_t v0 = vld1q_f64(d0 + 2 * j);
        float64x2_t v1 = vld1q_f64(d1 + 2 * j);
        vst1q_f64(d0 + 2 * j,
                  vaddq_f64(cmul2(v0, m00), cmul2(v1, m01)));
        vst1q_f64(d1 + 2 * j,
                  vaddq_f64(cmul2(v0, m10), cmul2(v1, m11)));
    }
}

void
pairRotateAdjacent(Complex *amps, uint64_t h0, uint64_t h1,
                   const Mat2 &u)
{
    const float64x2_t m00 = loadComplex(u.m00);
    const float64x2_t m01 = loadComplex(u.m01);
    const float64x2_t m10 = loadComplex(u.m10);
    const float64x2_t m11 = loadComplex(u.m11);
    double *d = reinterpret_cast<double *>(amps);
    for (uint64_t h = h0; h < h1; ++h) {
        float64x2_t v0 = vld1q_f64(d + 4 * h);
        float64x2_t v1 = vld1q_f64(d + 4 * h + 2);
        vst1q_f64(d + 4 * h,
                  vaddq_f64(cmul2(v0, m00), cmul2(v1, m01)));
        vst1q_f64(d + 4 * h + 2,
                  vaddq_f64(cmul2(v0, m10), cmul2(v1, m11)));
    }
}

void
cmulArray(Complex *amps, const Complex *factors, uint64_t n)
{
    double *d = reinterpret_cast<double *>(amps);
    const double *f = reinterpret_cast<const double *>(factors);
    for (uint64_t i = 0; i < n; ++i)
        vst1q_f64(d + 2 * i,
                  cmul2(vld1q_f64(d + 2 * i), vld1q_f64(f + 2 * i)));
}

void
diagonalEvolution(Complex *amps, const double *values, double scale,
                  uint64_t i0, uint64_t i1)
{
    double *d = reinterpret_cast<double *>(amps);
    for (uint64_t i = i0; i < i1; ++i) {
        const Complex f =
            simd_generic::phaseFactor(-scale * values[i]);
        vst1q_f64(d + 2 * i, cmul2(vld1q_f64(d + 2 * i),
                                   loadComplex(f)));
    }
}

const SimdKernels kNeonKernels = {
    SimdIsa::Neon,
    &pairRotateStrided,
    &pairRotateAdjacent,
    &cmulArray,
    &diagonalEvolution,
    &simd_generic::diagonalTerms,
};

} // namespace

const SimdKernels *
simdNeonTable()
{
    return &kNeonKernels;
}

} // namespace rasengan::qsim::detail

#else // !__aarch64__

namespace rasengan::qsim::detail {

const SimdKernels *
simdNeonTable()
{
    return nullptr;
}

} // namespace rasengan::qsim::detail

#endif
