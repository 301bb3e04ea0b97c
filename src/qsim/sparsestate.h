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
 *  - normSquared/renormalize/prune/applyPhase and sample's weight
 *    extraction are contiguous passes parallelized on the shared
 *    common/parallel.h pool with the same index-ordered block-reduction
 *    discipline as the dense kernels: results are bit-identical at any
 *    thread count.
 *  - applyPairRotation can record the index-space structure of the
 *    rotation (scatter + pair indices) into a SparseStepPlan; since
 *    that structure depends only on the support and the transition --
 *    never on the angle -- recorded plans are replayed across optimizer
 *    iterations (see qsim/sparseplan.h).
 *
 * Pruning is a caller-visible policy: applyPairRotation takes the
 * threshold explicitly (<= 0 disables the post-rotation prune), and
 * prune() reports how many states it removed while bumping a support
 * epoch so plan caching can detect that the angle-independence
 * assumption broke for the current angles.
 */

#ifndef RASENGAN_QSIM_SPARSESTATE_H
#define RASENGAN_QSIM_SPARSESTATE_H

#include <complex>
#include <vector>

#include "common/bitvec.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "qsim/counts.h"

namespace rasengan::qsim {

struct SparseStepPlan;

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
     * one amplitude per key.  Used by the rotation-plan replay path.
     */
    static SparseState fromSorted(int num_qubits, std::vector<BitVec> keys,
                                  std::vector<Complex> amps);

    int numQubits() const { return numQubits_; }
    size_t supportSize() const { return keys_.size(); }

    /** Populated basis states, strictly ascending. */
    const std::vector<BitVec> &keys() const { return keys_; }

    /** Amplitudes, parallel to keys(). */
    const std::vector<Complex> &amps() const { return amps_; }

    /**
     * Number of times prune() actually removed states.  A segment plan
     * recorded while the epoch stayed constant is angle-independent;
     * any bump invalidates it (qsim/sparseplan.h).
     */
    uint64_t supportEpoch() const { return supportEpoch_; }

    Complex amplitude(const BitVec &basis) const;
    double probability(const BitVec &basis) const;
    double normSquared() const;
    void renormalize();

    /**
     * Drop entries with |amp|^2 below @p threshold.  Returns the number
     * of states removed; the support epoch advances when that is > 0.
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
     * state, including exact zeros).  When @p record is non-null the
     * angle-independent index structure of this rotation is written into
     * it for later replay.
     */
    void applyPairRotation(const BitVec &mask, const BitVec &pattern_plus,
                           double t,
                           double prune_threshold = kDefaultPruneThreshold,
                           SparseStepPlan *record = nullptr);

    /** Pauli-X on wire @p q (key rewrite + two-way merge, no re-sort). */
    void applyX(int q);

    /**
     * Multiply each amplitude by e^{i phase(x)} (diagonal evolution).
     * @p phase must be safe to call from pool threads (a pure function
     * of the bitstring); it is invoked exactly once per populated state.
     */
    template <typename F>
    void
    applyPhase(F &&phase)
    {
        const uint64_t n = keys_.size();
        parallel::parallelFor(
            0, n, parallel::kDefaultGrain, [&](uint64_t b, uint64_t e) {
                for (uint64_t i = b; i < e; ++i)
                    amps_[i] *= std::exp(Complex{0.0, 1.0} *
                                         phase(keys_[i]));
            });
    }

    /** Sample @p shots outcomes from the Born distribution. */
    Counts sample(Rng &rng, uint64_t shots) const;

    /** Basis state with the largest probability. */
    BitVec mostLikely() const;

  private:
    /** Index of @p basis in keys_, or keys_.size() when absent. */
    size_t findKey(const BitVec &basis) const;

    int numQubits_;
    std::vector<BitVec> keys_; ///< strictly ascending
    std::vector<Complex> amps_;
    uint64_t supportEpoch_ = 0;

    /**
     * Reused per-rotation scratch (roles, partner indices, merge
     * buffers): one SparseState applies many rotations back to back, so
     * keeping these alive avoids an allocation storm on the hot path.
     */
    struct Scratch
    {
        std::vector<uint8_t> role;
        std::vector<uint32_t> partnerIdx;
        struct Created
        {
            BitVec key;
            uint32_t src;  ///< old index whose rotation creates this key
            uint8_t side;  ///< 1: created key is the minus member, 2: plus
        };
        std::vector<Created> created;
        std::vector<uint32_t> oldToNew;
        std::vector<BitVec> nextKeys;
        std::vector<Complex> nextAmps;
        std::vector<std::pair<uint32_t, uint32_t>> pairs;
        std::vector<uint8_t> keep;
    };
    Scratch scratch_;
};

} // namespace rasengan::qsim

#endif // RASENGAN_QSIM_SPARSESTATE_H
