/**
 * @file
 * Scalar reference bodies for the SIMD kernel tier (dense engines
 * only; the sparse engine keeps its own scalar loops).
 *
 * These inline functions define the exact IEEE-754 operation sequence
 * every vector arm must reproduce: complex products expand to
 * (ar*br - ai*bi, ai*br + ar*bi), sums stay in the written order, and
 * nothing is reassociated.  The scalar ISA table is a thin wrapper
 * around them; the AVX2/NEON translation units include this header for
 * their sub-vector-width tails, so a tail element and a full-width lane
 * go through literally the same arithmetic.
 *
 * This header is only included from simd_*.cc translation units, all of
 * which are compiled with -ffp-contract=off (see src/qsim/CMakeLists);
 * that is what makes "same operations" mean "same bits" on targets
 * where the compiler would otherwise contract a*b+c into an FMA.
 */

#ifndef RASENGAN_QSIM_SIMD_GENERIC_H
#define RASENGAN_QSIM_SIMD_GENERIC_H

#include <cmath>
#include <complex>
#include <cstdint>

#include "qsim/simd.h"

namespace rasengan::qsim::simd_generic {

using Complex = std::complex<double>;
using Mat2 = circuit::Mat2;

/** a * b expanded as (ar*br - ai*bi, ai*br + ar*bi). */
inline Complex
cmul(const Complex &a, const Complex &b)
{
    const double ar = a.real(), ai = a.imag();
    const double br = b.real(), bi = b.imag();
    return Complex{ar * br - ai * bi, ai * br + ar * bi};
}

/** Rotate one amplitude pair by the 2x2 unitary u (row-major). */
inline void
rotatePair(Complex &a0, Complex &a1, const Mat2 &u)
{
    const Complex r00 = cmul(a0, u.m00);
    const Complex r01 = cmul(a1, u.m01);
    const Complex r10 = cmul(a0, u.m10);
    const Complex r11 = cmul(a1, u.m11);
    a0 = Complex{r00.real() + r01.real(), r00.imag() + r01.imag()};
    a1 = Complex{r10.real() + r11.real(), r10.imag() + r11.imag()};
}

inline void
pairRotateStrided(Complex *amps, uint64_t base, uint64_t len, uint64_t bit,
                  const Mat2 &u)
{
    Complex *p0 = amps + base;
    Complex *p1 = amps + base + bit;
    for (uint64_t j = 0; j < len; ++j)
        rotatePair(p0[j], p1[j], u);
}

inline void
pairRotateAdjacent(Complex *amps, uint64_t h0, uint64_t h1, const Mat2 &u)
{
    for (uint64_t h = h0; h < h1; ++h)
        rotatePair(amps[2 * h], amps[2 * h + 1], u);
}

inline void
cmulArray(Complex *amps, const Complex *factors, uint64_t n)
{
    for (uint64_t i = 0; i < n; ++i)
        amps[i] = cmul(amps[i], factors[i]);
}

/** e^{i*angle} via scalar libm; identical in every arm. */
inline Complex
phaseFactor(double angle)
{
    return std::exp(Complex{0.0, 1.0} * angle);
}

inline void
diagonalEvolution(Complex *amps, const double *values, double scale,
                  uint64_t i0, uint64_t i1)
{
    for (uint64_t i = i0; i < i1; ++i)
        amps[i] = cmul(amps[i], phaseFactor(-scale * values[i]));
}

/** Phase of basis index i under one coalesced diagonal block. */
inline double
diagonalAngle(uint64_t i, const circuit::DiagTerm *terms, size_t num_terms)
{
    double angle = 0.0;
    for (size_t t = 0; t < num_terms; ++t) {
        if ((i & terms[t].controlMask) == terms[t].controlMask)
            angle += (i & terms[t].targetBit) ? terms[t].phase1
                                              : terms[t].phase0;
    }
    return angle;
}

inline void
diagonalTerms(Complex *amps, const circuit::DiagTerm *terms,
              size_t num_terms, uint64_t i0, uint64_t i1)
{
    for (uint64_t i = i0; i < i1; ++i) {
        double angle = diagonalAngle(i, terms, num_terms);
        if (angle != 0.0)
            amps[i] = cmul(amps[i], phaseFactor(angle));
    }
}

} // namespace rasengan::qsim::simd_generic

#endif // RASENGAN_QSIM_SIMD_GENERIC_H
