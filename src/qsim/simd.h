/**
 * @file
 * SIMD kernel tier: runtime-dispatched amplitude kernels.
 *
 * Every hot amplitude loop of the dense engines (statevector, density
 * matrix, noise trajectories) is routed through a table of kernel
 * function pointers (SimdKernels).  The sparse engine is not: its
 * supports stay small, so it runs its own serial scalar loops
 * (qsim/sparsestate.cc).  The table
 * has one implementation per instruction set -- scalar (always built),
 * AVX2 (x86-64, built when the compiler supports -mavx2 and selected
 * only when the CPU reports the feature), NEON (aarch64) -- living in
 * per-ISA translation units so each can be compiled with its own
 * codegen flags without perturbing the rest of the build.
 *
 * Determinism contract.  Results are bit-identical across ISAs:
 *
 *  - every arm performs the *same IEEE-754 operations in the same
 *    per-element association* as the scalar reference
 *    (simd_generic.h); vector arms only widen the loop, they never
 *    reassociate, and no arm uses FMA (all simd TUs are compiled with
 *    -ffp-contract=off so the compiler cannot contract on targets
 *    where fused multiply-add is baseline, e.g. aarch64);
 *  - transcendental factors (the sin/cos inside e^{i*angle}) are always
 *    produced by the same scalar libm calls, in every arm.
 *
 * Selection: RASENGAN_SIMD=auto|avx2|neon|scalar (default auto = best
 * ISA the build and the CPU both support), overridable at runtime with
 * setSimdIsa()/selectSimdIsa() (the CLI --simd flag).  The active ISA
 * is published as the obs gauge `simd_isa_info{isa=...}` and recorded
 * in trace metadata by the CLI/daemon entry points.
 *
 * Switching ISAs while simulation kernels are executing is not
 * supported; callers switch between runs (tests, benches, process
 * startup).
 */

#ifndef RASENGAN_QSIM_SIMD_H
#define RASENGAN_QSIM_SIMD_H

#include <complex>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/fusion.h"
#include "circuit/gatematrix.h"

namespace rasengan::qsim {

enum class SimdIsa : int {
    Scalar = 0,
    Avx2 = 1,
    Neon = 2,
};

/** "scalar", "avx2", "neon". */
const char *simdIsaName(SimdIsa isa);

/**
 * The per-ISA kernel table.  All Complex arrays are the engines' native
 * interleaved std::complex<double> storage; every function operates on
 * an explicit index range.
 */
struct SimdKernels
{
    using Complex = std::complex<double>;
    using Mat2 = circuit::Mat2;

    SimdIsa isa = SimdIsa::Scalar;

    /**
     * Dense pair rotation over a contiguous run: for j in [0, len),
     * rotate the amplitude pair (amps[base+j], amps[base+j+bit]) by the
     * 2x2 unitary @p u.  The dense engine decomposes the pair index
     * space into such runs (run length 2^target); the controlled kernel
     * feeds it the maximal contiguous segments of control-satisfying
     * bases.
     */
    void (*pairRotateStrided)(Complex *amps, uint64_t base, uint64_t len,
                              uint64_t bit, const Mat2 &u);

    /**
     * Dense pair rotation for target qubit 0, where pairs are adjacent
     * in memory: rotate (amps[2h], amps[2h+1]) for h in [h0, h1).
     */
    void (*pairRotateAdjacent)(Complex *amps, uint64_t h0, uint64_t h1,
                               const Mat2 &u);

    /**
     * Batched complex multiply: amps[i] *= factors[i] for i in [0, n),
     * expanded as (ar*br - ai*bi, ai*br + ar*bi).  The primitive behind
     * the diagonal kernels; also exercised directly by the tail-fuzz
     * tests.
     */
    void (*cmulArray)(Complex *amps, const Complex *factors, uint64_t n);

    /**
     * Diagonal evolution: amps[i] *= e^{-i*scale*values[i]} for i in
     * [i0, i1).  The complex exponential is evaluated by scalar libm in
     * every arm; the multiply vectorizes.
     */
    void (*diagonalEvolution)(Complex *amps, const double *values,
                              double scale, uint64_t i0, uint64_t i1);

    /**
     * Coalesced diagonal block (fusion output): for i in [i0, i1),
     * accumulate the phase of every matching DiagTerm and multiply by
     * e^{i*angle} -- skipping (leaving bitwise untouched) amplitudes
     * whose accumulated angle is exactly zero, like the scalar path
     * always did.
     */
    void (*diagonalTerms)(Complex *amps, const circuit::DiagTerm *terms,
                          size_t num_terms, uint64_t i0, uint64_t i1);
};

/** The active kernel table (resolving RASENGAN_SIMD on first use). */
const SimdKernels &simdKernels();

/** The active ISA (resolving RASENGAN_SIMD on first use). */
SimdIsa simdActiveIsa();

/** Best ISA this build and CPU support (what `auto` resolves to). */
SimdIsa simdBestIsa();

/** Every ISA usable on this build/CPU, scalar first. */
std::vector<SimdIsa> simdAvailableIsas();

/**
 * Activate @p isa.  Returns false (leaving the current table in place)
 * when the ISA was not compiled in or the CPU lacks it.  Not safe to
 * call while simulation kernels are executing.
 */
bool setSimdIsa(SimdIsa isa);

/**
 * Parse and activate a RASENGAN_SIMD / --simd spec
 * ("auto"|"avx2"|"neon"|"scalar").  Returns false and fills @p error
 * on an unknown name or an unsupported ISA.
 */
bool selectSimdIsa(const std::string &spec, std::string *error = nullptr);

namespace detail {

/** Per-ISA tables; null when the ISA is not compiled into this build. */
const SimdKernels *simdScalarTable();
const SimdKernels *simdAvx2Table();
const SimdKernels *simdNeonTable();

} // namespace detail

} // namespace rasengan::qsim

#endif // RASENGAN_QSIM_SIMD_H
