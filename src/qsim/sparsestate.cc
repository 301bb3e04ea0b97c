#include "qsim/sparsestate.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/parallel.h"
#include "obs/prof.h"

namespace rasengan::qsim {

namespace {

constexpr SparseState::Complex kI{0.0, 1.0};

/** Pair indices are 32-bit; a support must leave room for them. */
constexpr uint64_t kMaxSupport = UINT32_MAX / 2;

/**
 * Rotate each (plus, minus) slot pair of @p amps by angle @p t:
 * a+' = cos(t) a+ - i sin(t) a-, and symmetrically for a-.  Pairs must
 * be disjoint.
 */
void
rotatePairs(std::vector<SparseState::Complex> &amps,
            const std::vector<std::pair<uint32_t, uint32_t>> &pairs,
            double t)
{
    using Complex = SparseState::Complex;
    const double c = std::cos(t);
    const Complex ms = -kI * std::sin(t);
    // a+' = c*a+ + ms*a-, a-' = c*a- + ms*a+, with each complex product
    // expanded as (ar*br - ai*bi, ai*br + ar*bi).
    for (const auto &[plus, minus] : pairs) {
        Complex &ap = amps[plus];
        Complex &am = amps[minus];
        const double xp_re = ms.real() * am.real() - ms.imag() * am.imag();
        const double xp_im = ms.imag() * am.real() + ms.real() * am.imag();
        const double xm_re = ms.real() * ap.real() - ms.imag() * ap.imag();
        const double xm_im = ms.imag() * ap.real() + ms.real() * ap.imag();
        ap = Complex{c * ap.real() + xp_re, c * ap.imag() + xp_im};
        am = Complex{c * am.real() + xm_re, c * am.imag() + xm_im};
    }
}

} // namespace

SparseState::SparseState(int num_qubits, const BitVec &basis)
    : numQubits_(num_qubits)
{
    fatal_if(num_qubits < 0 || num_qubits > kMaxBits,
             "sparse state supports up to {} qubits, got {}", kMaxBits,
             num_qubits);
    keys_.push_back(basis);
    amps_.push_back(Complex{1.0, 0.0});
}

void
SparseState::reset(const BitVec &basis)
{
    keys_.assign(1, basis);
    amps_.assign(1, Complex{1.0, 0.0});
}

SparseState
SparseState::fromSorted(int num_qubits, std::vector<BitVec> keys,
                        std::vector<Complex> amps)
{
    panic_if(keys.size() != amps.size(),
             "sparse state with {} keys but {} amplitudes", keys.size(),
             amps.size());
    panic_if(!std::is_sorted(keys.begin(), keys.end()),
             "fromSorted requires ascending keys");
    SparseState state(num_qubits, BitVec{});
    state.keys_ = std::move(keys);
    state.amps_ = std::move(amps);
    return state;
}

size_t
SparseState::findKey(const BitVec &basis) const
{
    auto it = std::lower_bound(keys_.begin(), keys_.end(), basis);
    if (it == keys_.end() || !(*it == basis))
        return keys_.size();
    return static_cast<size_t>(it - keys_.begin());
}

SparseState::Complex
SparseState::amplitude(const BitVec &basis) const
{
    size_t i = findKey(basis);
    return i == keys_.size() ? Complex{0.0, 0.0} : amps_[i];
}

double
SparseState::probability(const BitVec &basis) const
{
    return std::norm(amplitude(basis));
}

double
SparseState::normSquared() const
{
    // The dense engine's association: 2^14-state block partials added
    // in index order.  The per-block sum stays in this TU, which is
    // compiled without FMA contraction.
    return parallel::reduceBlocks(
        0, amps_.size(), parallel::kReduceBlock,
        [this](uint64_t lo, uint64_t hi) {
            double acc = 0.0;
            for (uint64_t i = lo; i < hi; ++i)
                acc += std::norm(amps_[i]);
            return acc;
        });
}

void
SparseState::renormalize()
{
    double n2 = normSquared();
    panic_if(n2 < 1e-300, "renormalizing a zero sparse state");
    double inv = 1.0 / std::sqrt(n2);
    for (Complex &a : amps_)
        a *= inv;
}

size_t
SparseState::prune(double threshold)
{
    // Stable compaction of both arrays: order is preserved, so the
    // support stays sorted.
    const size_t n = amps_.size();
    size_t w = 0;
    for (size_t i = 0; i < n; ++i) {
        if (!(std::norm(amps_[i]) >= threshold))
            continue;
        if (w != i) {
            keys_[w] = keys_[i];
            amps_[w] = amps_[i];
        }
        ++w;
    }
    const size_t removed = n - w;
    keys_.resize(w);
    amps_.resize(w);
    return removed;
}

void
SparseState::applyPairRotation(const BitVec &mask,
                               const BitVec &pattern_plus, double t,
                               double prune_threshold)
{
    panic_if(mask == BitVec{}, "pair rotation with empty support");
    const BitVec pattern_minus = pattern_plus ^ mask;

    const size_t n = keys_.size();
    fatal_if(n >= kMaxSupport, "sparse support of {} states overflows the "
             "32-bit pair index space", n);

    // Pass 1 (index order): classify every populated state, locate its
    // partner by binary search over the sorted keys, and enumerate each
    // unordered pair once -- from its plus member, or from the minus
    // member when the plus member is unpopulated (the rotation still
    // creates it).  States matching neither pattern are dark.
    auto &created = scratch_.created;
    auto &pairs = scratch_.pairs;
    created.clear();
    pairs.clear();
    for (size_t i = 0; i < n; ++i) {
        const BitVec restricted = keys_[i] & mask;
        const bool is_plus = restricted == pattern_plus;
        if (!is_plus && !(restricted == pattern_minus))
            continue;
        const BitVec partner_key = keys_[i] ^ mask;
        const size_t j = findKey(partner_key);
        const auto src = static_cast<uint32_t>(i);
        if (j == n) // the created partner of a plus state is a minus one
            created.push_back({partner_key, src, 0, /*isMinus=*/is_plus});
        else if (is_plus)
            pairs.emplace_back(src, static_cast<uint32_t>(j));
        // A minus member with a populated plus partner was paired above.
    }
    const size_t both_populated = pairs.size();
    std::sort(created.begin(), created.end(),
              [](const Scratch::Created &a, const Scratch::Created &b) {
                  return a.key < b.key;
              });

    // Pass 2: merge the old keys with the created ones into the next
    // layout; created slots start at amplitude zero.  (x XOR mask is
    // injective, so created keys are unique and never collide with
    // populated ones.)
    const size_t n_next = n + created.size();
    std::vector<uint32_t> &old_to_new = scratch_.oldToNew;
    std::vector<BitVec> &next_keys = scratch_.nextKeys;
    std::vector<Complex> &next_amps = scratch_.nextAmps;
    old_to_new.resize(n);
    next_keys.resize(n_next);
    next_amps.resize(n_next);
    size_t a = 0, b = 0;
    for (size_t k = 0; k < n_next; ++k) {
        if (b == created.size() || (a < n && keys_[a] < created[b].key)) {
            old_to_new[a] = static_cast<uint32_t>(k);
            next_keys[k] = keys_[a];
            next_amps[k] = amps_[a];
            ++a;
        } else {
            created[b].slot = static_cast<uint32_t>(k);
            next_keys[k] = created[b].key;
            next_amps[k] = Complex{0.0, 0.0};
            ++b;
        }
    }

    // Translate the pair list into merged indices: both-populated pairs
    // first (index order), then creation pairs (created-key order).
    for (size_t p = 0; p < both_populated; ++p) {
        pairs[p].first = old_to_new[pairs[p].first];
        pairs[p].second = old_to_new[pairs[p].second];
    }
    for (const Scratch::Created &cr : created) {
        const uint32_t src = old_to_new[cr.src];
        if (cr.isMinus)
            pairs.emplace_back(src, cr.slot);
        else
            pairs.emplace_back(cr.slot, src);
    }

    // Pass 3: rotate each pair.
    rotatePairs(next_amps, pairs, t);

    // Adopt the merged layout; the old storage becomes next round's
    // scratch.
    keys_.swap(next_keys);
    amps_.swap(next_amps);

    if (prune_threshold > 0.0)
        prune(prune_threshold);
}

void
SparseState::applyX(int q)
{
    panic_if(q < 0 || q >= numQubits_, "qubit {} out of range", q);
    const size_t n = keys_.size();
    // Flipping bit q adds 2^q to keys where it was clear and subtracts
    // it where it was set, so each class stays internally sorted after
    // the rewrite: one two-way merge restores global order.  No re-sort.
    std::vector<BitVec> &next_keys = scratch_.nextKeys;
    std::vector<Complex> &next_amps = scratch_.nextAmps;
    next_keys.resize(n);
    next_amps.resize(n);
    std::vector<uint32_t> lo, hi; // indices with bit q set / clear
    lo.reserve(n);
    hi.reserve(n);
    for (size_t i = 0; i < n; ++i)
        (keys_[i].get(q) ? lo : hi).push_back(static_cast<uint32_t>(i));
    auto flipped = [&](uint32_t i) {
        BitVec y = keys_[i];
        y.flip(q);
        return y;
    };
    size_t a = 0, b = 0, w = 0;
    while (a < lo.size() && b < hi.size()) {
        BitVec ka = flipped(lo[a]);
        BitVec kb = flipped(hi[b]);
        if (ka < kb) {
            next_keys[w] = ka;
            next_amps[w++] = amps_[lo[a++]];
        } else {
            next_keys[w] = kb;
            next_amps[w++] = amps_[hi[b++]];
        }
    }
    for (; a < lo.size(); ++a) {
        next_keys[w] = flipped(lo[a]);
        next_amps[w++] = amps_[lo[a]];
    }
    for (; b < hi.size(); ++b) {
        next_keys[w] = flipped(hi[b]);
        next_amps[w++] = amps_[hi[b]];
    }
    keys_.swap(next_keys);
    amps_.swap(next_amps);
}

Counts
SparseState::sample(Rng &rng, uint64_t shots) const
{
    fatal_if(keys_.empty(), "sampling from an empty sparse state");
    RASENGAN_PROF("sample", "sparse-sample");
    const double total = normSquared();
    fatal_if(!(total > 1e-18) || !std::isfinite(total),
             "sampling from a sparse state with total probability {} "
             "(noise/degradation collapsed the distribution)",
             total);
    Counts counts;
    if (keys_.size() == 1) {
        // Every draw is index 0, one engine word per shot.  The total
        // check above already rejects what the table's weight checks
        // would: a non-finite or zero weight.
        rng.engine().discard(shots);
        if (shots > 0)
            counts.add(keys_[0], shots);
        return counts;
    }
    std::vector<double> weights(amps_.size());
    for (size_t i = 0; i < amps_.size(); ++i)
        weights[i] = std::norm(amps_[i]);
    AliasTable table(weights); // O(1)/shot instead of a linear scan
    // Tally by support index, then insert each drawn key once in order
    // of first draw: the map gets the same keys in the same insertion
    // order as one add() per shot, hence the same iteration order.
    std::vector<uint64_t> tally(keys_.size(), 0);
    std::vector<uint32_t> first_drawn;
    table.forEachDraw(rng, shots, [&](uint32_t i) {
        if (tally[i]++ == 0)
            first_drawn.push_back(i);
    });
    for (uint32_t i : first_drawn)
        counts.add(keys_[i], tally[i]);
    return counts;
}

BitVec
SparseState::mostLikely() const
{
    fatal_if(keys_.empty(), "mostLikely of empty sparse state");
    // Keys ascend, so keeping the first maximum ties toward the
    // smallest bitstring.
    size_t best = 0;
    double best_p = std::norm(amps_[0]);
    for (size_t i = 1; i < amps_.size(); ++i) {
        double p = std::norm(amps_[i]);
        if (p > best_p) {
            best = i;
            best_p = p;
        }
    }
    return keys_[best];
}

} // namespace rasengan::qsim
