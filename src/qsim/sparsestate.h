/**
 * @file
 * Sparse statevector simulator (flat structure-of-arrays engine).
 *
 * Stores only basis states with nonzero amplitude as two parallel
 * vectors: a sorted array of BitVec keys and the matching array of
 * amplitudes.  This is the repository's substitute for the
 * decision-diagram simulator (DDSim) the paper uses: Rasengan circuits
 * evolve an initial feasible basis state through transition operators,
 * so the populated support never exceeds the number of feasible
 * solutions and the simulator scales to the paper's 105-variable
 * instances regardless of qubit count.
 *
 * The central primitive is applyPairRotation(): the exact time evolution
 * e^{-i H^tau(u) t} of a transition Hamiltonian.  Because u has entries in
 * {-1, 0, 1}, a basis state either (a) pairs with exactly one partner
 * (x XOR support mask) when its restriction to the support matches the
 * raising or the lowering pattern, on which the evolution is a two-level
 * rotation, or (b) is annihilated by both terms of H^tau and left intact
 * (Theorem 1's dark-state argument).  No Trotter error is involved.
 *
 * Layout & kernels (vs the former std::unordered_map engine):
 *  - Partner pairing is index arithmetic over the sorted key array: one
 *    binary search per populated state instead of 4+ hash lookups per
 *    pair, and the post-rotation key set is produced by a sorted merge
 *    of the old keys with the (sorted) newly created partners -- no
 *    snapshot vector, no hash set, no rehashing.
 *  - applyX rewrites keys in place and restores sortedness with a
 *    single two-way merge (flipping bit q adds/subtracts 2^q, which
 *    preserves order within each of the two bit-q classes), never a
 *    full re-sort.
 *  - Every kernel is a serial loop of scalar arithmetic; the two
 *    engine TUs are compiled without FMA contraction
 *    (src/qsim/CMakeLists.txt), so results are the same bits at any
 *    thread count and on any ISA.  Jobs, not kernels, are the unit of
 *    parallelism: the supports of a Rasengan solve stay small, and a
 *    job already runs on one pool thread.
 *    normSquared sums through common/parallel.h's reduceBlocks, as
 *    the dense engine does (partial sums over fixed 2^14-state blocks,
 *    added in index order).
 *  - reset() returns a state to one basis state without releasing its
 *    key, amplitude or scratch storage, so a solver evolves every
 *    segment in one reused SparseState, and segment evolution stops
 *    allocating once the buffers have grown to the largest support.
 *
 * Pruning is a caller-visible policy: applyPairRotation takes the
 * threshold explicitly (<= 0 disables the post-rotation prune), and
 * prune() reports how many states it removed.
 */

#ifndef RASENGAN_QSIM_SPARSESTATE_H
#define RASENGAN_QSIM_SPARSESTATE_H

#include <complex>
#include <utility>
#include <vector>

#include "common/bitvec.h"
#include "common/rng.h"
#include "qsim/counts.h"

namespace rasengan::qsim {

class SparseState
{
  public:
    using Complex = std::complex<double>;

    /**
     * Default post-rotation prune threshold on |amp|^2 (drops states
     * whose amplitude magnitude fell below ~1e-12, i.e. states rotated
     * to numerical zero).
     */
    static constexpr double kDefaultPruneThreshold = 1e-24;

    /** Initialize to the basis state @p basis on @p num_qubits wires. */
    SparseState(int num_qubits, const BitVec &basis);

    /**
     * Adopt an externally built support: @p keys strictly ascending,
     * one amplitude per key (tests and benches build states this way).
     */
    static SparseState fromSorted(int num_qubits, std::vector<BitVec> keys,
                                  std::vector<Complex> amps);

    /**
     * Return to the basis state @p basis on the same wires.  Equal,
     * key for key and bit for bit, to a fresh SparseState(numQubits(),
     * basis), but the key, amplitude and scratch buffers keep their
     * capacity.
     */
    void reset(const BitVec &basis);

    int numQubits() const { return numQubits_; }
    size_t supportSize() const { return keys_.size(); }

    /** Populated basis states, strictly ascending. */
    const std::vector<BitVec> &keys() const { return keys_; }

    /** Amplitudes, parallel to keys(). */
    const std::vector<Complex> &amps() const { return amps_; }

    Complex amplitude(const BitVec &basis) const;
    double probability(const BitVec &basis) const;
    double normSquared() const;
    void renormalize();

    /**
     * Drop entries with |amp|^2 below @p threshold.  Returns the number
     * of states removed.
     */
    size_t prune(double threshold = kDefaultPruneThreshold);

    /**
     * Exact evolution e^{-i H^tau t} for the transition Hamiltonian whose
     * support is @p mask and whose raising pattern is @p pattern_plus
     * (the support-restricted bits a state must show for x+u to stay
     * binary).  States matching pattern_plus or its support-complement
     * rotate pairwise; all other states are dark and untouched.
     *
     * @p prune_threshold is applied after the rotation (<= 0 keeps every
     * state, including exact zeros).
     */
    void applyPairRotation(const BitVec &mask, const BitVec &pattern_plus,
                           double t,
                           double prune_threshold = kDefaultPruneThreshold);

    /** Pauli-X on wire @p q (key rewrite + two-way merge, no re-sort). */
    void applyX(int q);

    /**
     * Multiply each amplitude by e^{i phase(x)} (diagonal evolution).
     * @p phase is invoked exactly once per populated state, in key
     * order.
     */
    template <typename F>
    void
    applyPhase(F &&phase)
    {
        for (size_t i = 0; i < keys_.size(); ++i)
            amps_[i] *= std::exp(Complex{0.0, 1.0} * phase(keys_[i]));
    }

    /**
     * Sample @p shots outcomes from the Born distribution.  The counts
     * and the map's iteration order equal those of one Counts::add per
     * drawn key; each key is inserted once, with its tally.  The engine
     * advances one word per shot, as AliasTable::sample(Rng &) does.
     */
    Counts sample(Rng &rng, uint64_t shots) const;

    /** Basis state with the largest probability. */
    BitVec mostLikely() const;

  private:
    /** Index of @p basis in keys_, or keys_.size() when absent. */
    size_t findKey(const BitVec &basis) const;

    int numQubits_;
    std::vector<BitVec> keys_; ///< strictly ascending
    std::vector<Complex> amps_;

    /**
     * Reused per-rotation scratch (created partners, merge buffers):
     * one SparseState applies many rotations back to back, so keeping
     * these alive avoids an allocation storm on the hot path.
     */
    struct Scratch
    {
        struct Created
        {
            BitVec key;
            uint32_t src;  ///< old index whose rotation creates this key
            uint32_t slot; ///< index of this key in the merged layout
            bool isMinus;  ///< the created key is the pair's minus member
        };
        std::vector<Created> created;
        std::vector<uint32_t> oldToNew;
        std::vector<BitVec> nextKeys;
        std::vector<Complex> nextAmps;
        std::vector<std::pair<uint32_t, uint32_t>> pairs;
    };
    Scratch scratch_;
};

} // namespace rasengan::qsim

#endif // RASENGAN_QSIM_SPARSESTATE_H
