/**
 * @file
 * Dense statevector simulator.
 *
 * Stores all 2^n complex amplitudes; practical to ~24 qubits.  Supports
 * every gate the circuit IR defines (multi-controlled gates natively, so
 * circuits can be simulated either before or after transpilation) and
 * measurement sampling.  Used for the baseline VQAs and for the exactness
 * tests of the sparse simulator and the transpiler.
 *
 * Performance substrate:
 *  - every O(2^n) kernel (gate application, norms, inner products,
 *    collapse) is a serial loop on the calling thread; jobs, not
 *    kernels, are the unit of parallelism.  Sums add fixed 2^14-element
 *    block partials in index order (common/parallel.h reduceBlocks);
 *  - applyCircuit transparently routes measurement-free circuits through
 *    the gate-fusion pass (circuit/fusion.h) when fusion is enabled;
 *  - sample() builds an O(dim) alias table and draws each shot in O(1)
 *    (counts.h), replacing the O(dim) CDF + O(log dim) binary search.
 */

#ifndef RASENGAN_QSIM_STATEVECTOR_H
#define RASENGAN_QSIM_STATEVECTOR_H

#include <complex>
#include <vector>

#include "circuit/circuit.h"
#include "circuit/fusion.h"
#include "circuit/gatematrix.h"
#include "common/bitvec.h"
#include "common/rng.h"
#include "qsim/counts.h"

namespace rasengan::qsim {

using Complex = std::complex<double>;

/** 2x2 unitary in row-major order (defined in circuit/gatematrix.h). */
using Mat2 = circuit::Mat2;

/** The 2x2 matrix of a single-qubit gate kind with parameter @p theta. */
using circuit::gateMatrix;

class Statevector
{
  public:
    /** Initialize to |0...0> on @p num_qubits wires. */
    explicit Statevector(int num_qubits);

    /** Initialize to the computational basis state @p basis. */
    Statevector(int num_qubits, const BitVec &basis);

    int numQubits() const { return numQubits_; }
    size_t dimension() const { return amps_.size(); }

    const std::vector<Complex> &amplitudes() const { return amps_; }

    /** Mutable amplitude access (density-matrix accumulation, tests). */
    std::vector<Complex> &mutableAmplitudes() { return amps_; }

    Complex
    amplitude(const BitVec &basis) const
    {
        return amps_[basis.toIndex()];
    }

    /** Probability of measuring @p basis. */
    double
    probability(const BitVec &basis) const
    {
        return std::norm(amps_[basis.toIndex()]);
    }

    /** Squared norm (1 up to float error for unitary evolution). */
    double normSquared() const;

    /** Rescale to unit norm; aborts on a numerically zero state. */
    void renormalize();

    /** <this|other>. */
    Complex inner(const Statevector &other) const;

    /// @name Gate application
    /// @{
    void apply1q(int target, const Mat2 &u);
    /** Apply @p u on @p target where all @p controls are |1>. */
    void applyControlled1q(const std::vector<int> &controls, int target,
                           const Mat2 &u);
    void applySwap(int a, int b);
    void applyGate(const circuit::Gate &gate);
    void applyCircuit(const circuit::Circuit &circ);
    /** Execute a fused program (panics on Measure/Reset: needs an rng). */
    void applyFused(const circuit::FusedProgram &prog);
    /** One coalesced diagonal block (phase accumulation per basis state). */
    void applyDiagonalTerms(const std::vector<circuit::DiagTerm> &terms);
    /// @}

    /** Multiply amplitude of each basis state x by e^{i phase(x)}. */
    void applyDiagonalPhase(const std::function<double(const BitVec &)> &phase);

    /**
     * Fast diagonal evolution: amplitude of basis index i is multiplied by
     * e^{-i scale * values[i]} (values.size() must equal dimension()).
     */
    void applyDiagonalEvolution(const std::vector<double> &values,
                                double scale);

    /** Sample @p shots measurement outcomes over the low @p num_bits wires
     *  (default: all wires). */
    Counts sample(Rng &rng, uint64_t shots, int num_bits = -1) const;

    /** Marginal probability that qubit @p q reads 1. */
    double probabilityOfOne(int q) const;

    /**
     * Projective Z-basis measurement of @p q: samples an outcome from the
     * Born rule, collapses and renormalizes the state, returns the
     * outcome.
     */
    bool measureQubit(int q, Rng &rng);

    /** Active reset: measure @p q and flip to |0> if it read 1. */
    void resetQubit(int q, Rng &rng);

  private:
    void checkQubit(int q) const;

    int numQubits_;
    std::vector<Complex> amps_;
};

} // namespace rasengan::qsim

#endif // RASENGAN_QSIM_STATEVECTOR_H
