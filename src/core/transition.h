/**
 * @file
 * The transition Hamiltonian (Definition 1 of the paper).
 *
 * For a homogeneous basis vector u in {-1,0,1}^n,
 *     H^tau(u) = (x)_i sigma(u_i)  +  (x)_i sigma(-u_i)
 * with sigma(+1) = raising, sigma(-1) = lowering, sigma(0) = identity.
 * Acting on a basis state |x>, the first term produces |x+u> when that
 * stays binary, the second |x-u>; at most one survives, so each basis
 * state either pairs with x XOR support(u) or is annihilated (dark).
 *
 * This class precomputes the support mask and the raising pattern, offers
 * the exact sparse-state evolution e^{-i H^tau t} (a two-level rotation,
 * Equation 6), and synthesizes the equivalent gate circuit in the paper's
 * Figure 4 form: an X/CX conjugation plus a symmetric pair of
 * multi-controlled phase gates.
 */

#ifndef RASENGAN_CORE_TRANSITION_H
#define RASENGAN_CORE_TRANSITION_H

#include <optional>
#include <vector>

#include "circuit/circuit.h"
#include "common/bitvec.h"
#include "linalg/matrix.h"
#include "qsim/pauli.h"
#include "qsim/sparsestate.h"

namespace rasengan::core {

class TransitionHamiltonian
{
  public:
    /** Build from a homogeneous basis vector with entries in {-1,0,1}. */
    explicit TransitionHamiltonian(linalg::IntVec u);

    const linalg::IntVec &vector() const { return u_; }
    int numVars() const { return static_cast<int>(u_.size()); }

    /** Number of nonzero entries k (drives the 34k CX cost). */
    int support() const { return supportSize_; }

    /** Support bits of u. */
    const BitVec &mask() const { return mask_; }

    /** Support-restricted pattern a state must match for x+u to be valid. */
    const BitVec &patternPlus() const { return patternPlus_; }

    /**
     * H^tau |x>: the partner basis state, or nullopt when |x> is dark.
     * (H^tau maps the partner back to x: Equation 5.)
     */
    std::optional<BitVec>
    partner(const BitVec &x) const
    {
        const BitVec restricted = x & mask_;
        if (restricted == patternPlus_ ||
            restricted == (patternPlus_ ^ mask_))
            return x ^ mask_;
        return std::nullopt;
    }

    /** True when applying the transition to |x> can produce a new state. */
    bool applicable(const BitVec &x) const { return partner(x).has_value(); }

    /**
     * Exact evolution e^{-i H^tau t} on a sparse state (Equation 6).
     * @p prune_threshold forwards to SparseState::applyPairRotation: it
     * drops states rotated below it (<= 0 keeps everything).
     */
    void applyTo(qsim::SparseState &state, double t,
                 double prune_threshold =
                     qsim::SparseState::kDefaultPruneThreshold) const;

    /**
     * Append the transition operator tau(u, t) to @p circ: X conjugation
     * on the lowering entries, a CX fan-out from the first support qubit,
     * and a controlled-RX core realized as two multi-controlled phase
     * gates (Figure 4).  Exact: no global-phase or Trotter error.
     */
    void appendToCircuit(circuit::Circuit &circ, double t) const;

    /**
     * Synthesize tau(u, t) alone on @p num_qubits wires.
     */
    circuit::Circuit toCircuit(int num_qubits, double t) const;

    /**
     * Pauli-sum expansion of H^tau(u): substituting sigma(+/-1) =
     * (X +/- iY)/2 and keeping the Hermitian (even-Y) terms yields
     *     H^tau = 1/2^{k-1} * sum_{|T| even} (-1)^{|T|/2}
     *             prod_{i in T} sign(u_i) * P_T,
     * where P_T has Y on the qubits of T and X on the rest of the
 * support.  All 2^{k-1} strings commute pairwise, so the product of
     * their exact evolutions equals e^{-i H^tau t} -- the alternative
     * gate decomposition commute-mixer methods use, cross-validated in
     * the tests against the Figure-4 circuit.
     */
    std::vector<std::pair<double, qsim::PauliString>>
    pauliDecomposition() const;

  private:
    linalg::IntVec u_;
    BitVec mask_;
    BitVec patternPlus_;
    std::vector<int> supportQubits_;
    int supportSize_ = 0;
};

/** Wrap each basis vector into a TransitionHamiltonian. */
std::vector<TransitionHamiltonian>
makeTransitions(const std::vector<linalg::IntVec> &basis);

} // namespace rasengan::core

#endif // RASENGAN_CORE_TRANSITION_H
