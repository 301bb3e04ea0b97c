#include "qsim/sparsestate.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "obs/prof.h"
#include "qsim/simd.h"
#include "qsim/sparseplan.h"

namespace rasengan::qsim {

namespace {

constexpr SparseState::Complex kI{0.0, 1.0};
constexpr uint32_t kAbsent = UINT32_MAX;

/** Roles of a populated state under one transition. */
enum Role : uint8_t { kDark = 0, kPlus = 1, kMinus = 2 };

// The SIMD classify kernel writes these values directly.
static_assert(uint8_t{kDark} == uint8_t{kSimdRoleDark} &&
              uint8_t{kPlus} == uint8_t{kSimdRolePlus} &&
              uint8_t{kMinus} == uint8_t{kSimdRoleMinus});
static_assert(kAbsent == kSimdAbsent);

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
    return parallel::reduceBlocks(
        0, amps_.size(), parallel::kReduceBlock,
        [&](uint64_t b, uint64_t e) {
            double acc = 0.0;
            for (uint64_t i = b; i < e; ++i)
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
    parallel::parallelFor(0, amps_.size(), parallel::kDefaultGrain,
                          [&](uint64_t b, uint64_t e) {
                              for (uint64_t i = b; i < e; ++i)
                                  amps_[i] *= inv;
                          });
}

size_t
SparseState::prune(double threshold)
{
    const uint64_t n = amps_.size();
    std::vector<uint8_t> &keep = scratch_.keep;
    keep.resize(n);
    parallel::parallelFor(0, n, parallel::kDefaultGrain,
                          [&](uint64_t b, uint64_t e) {
                              for (uint64_t i = b; i < e; ++i)
                                  keep[i] =
                                      std::norm(amps_[i]) >= threshold;
                          });
    // Serial stable compaction of both arrays (order preserved, so the
    // result is sorted and independent of the thread count).
    uint64_t w = 0;
    for (uint64_t i = 0; i < n; ++i) {
        if (!keep[i])
            continue;
        if (w != i) {
            keys_[w] = keys_[i];
            amps_[w] = amps_[i];
        }
        ++w;
    }
    size_t removed = static_cast<size_t>(n - w);
    if (removed > 0) {
        keys_.resize(w);
        amps_.resize(w);
        ++supportEpoch_;
    }
    return removed;
}

void
SparseState::applyPairRotation(const BitVec &mask,
                               const BitVec &pattern_plus, double t,
                               double prune_threshold,
                               SparseStepPlan *record)
{
    panic_if(mask == BitVec{}, "pair rotation with empty support");
    RASENGAN_PROF("kernel", "sparse-pair-rotation");
    const BitVec pattern_minus = pattern_plus ^ mask;
    const double c = std::cos(t);
    const Complex ms = -kI * std::sin(t);

    const uint64_t n = keys_.size();
    fatal_if(n >= kAbsent / 2, "sparse support of {} states overflows the "
             "32-bit pair-plan index space", n);

    // Pass 1 (parallel): classify every populated state and locate its
    // partner in the sorted key array -- one binary search instead of
    // the hash engine's 4+ lookups per pair.
    std::vector<uint8_t> &role = scratch_.role;
    std::vector<uint32_t> &partner = scratch_.partnerIdx;
    role.resize(n);
    partner.resize(n);
    const SimdKernels &kern = simdKernels();
    parallel::parallelFor(
        0, n, parallel::kDefaultGrain, [&](uint64_t b, uint64_t e) {
            kern.sparseClassify(keys_.data(), n, b, e, mask, pattern_plus,
                                pattern_minus, role.data(), partner.data());
        });

    // Pass 2 (serial, index order): enumerate each unordered pair once
    // -- from its plus member, or from the minus member when the plus
    // member is unpopulated (the rotation still creates it).
    auto &created = scratch_.created;
    auto &pairs = scratch_.pairs;
    created.clear();
    pairs.clear();
    size_t both_populated = 0;
    for (uint64_t i = 0; i < n; ++i) {
        if (role[i] == kDark)
            continue;
        if (role[i] == kPlus) {
            if (partner[i] != kAbsent) {
                pairs.emplace_back(static_cast<uint32_t>(i), partner[i]);
                ++both_populated;
            } else {
                created.push_back({keys_[i] ^ mask,
                                   static_cast<uint32_t>(i), kMinus});
            }
        } else if (partner[i] == kAbsent) {
            created.push_back({keys_[i] ^ mask, static_cast<uint32_t>(i),
                               kPlus});
        }
        // minus member with a populated plus partner: handled above.
    }
    std::sort(created.begin(), created.end(),
              [](const Scratch::Created &a, const Scratch::Created &b) {
                  return a.key < b.key;
              });

    // Pass 3 (parallel): index translation old -> merged.  An old key's
    // new slot shifts by the number of created keys below it; a created
    // key's slot is its rank among created plus the number of old keys
    // below it.  (x XOR mask is injective, so created keys are unique
    // and never collide with populated ones.)
    const uint64_t n_created = created.size();
    const uint64_t n_next = n + n_created;
    std::vector<uint32_t> &old_to_new = scratch_.oldToNew;
    old_to_new.resize(n);
    auto created_below = [&](const BitVec &key) {
        return static_cast<uint32_t>(
            std::lower_bound(created.begin(), created.end(), key,
                             [](const Scratch::Created &cr,
                                const BitVec &k) { return cr.key < k; }) -
            created.begin());
    };
    parallel::parallelFor(0, n, parallel::kDefaultGrain,
                          [&](uint64_t b, uint64_t e) {
                              for (uint64_t i = b; i < e; ++i)
                                  old_to_new[i] =
                                      static_cast<uint32_t>(i) +
                                      created_below(keys_[i]);
                          });

    // Pass 4 (parallel): scatter keys and amplitudes into the merged
    // layout; created slots start at amplitude zero.  Disjoint writes.
    std::vector<BitVec> &next_keys = scratch_.nextKeys;
    std::vector<Complex> &next_amps = scratch_.nextAmps;
    next_keys.resize(n_next);
    next_amps.resize(n_next);
    if (record) {
        record->scatter.resize(n_next);
        record->pairs.clear();
    }
    parallel::parallelFor(
        0, n, parallel::kDefaultGrain, [&](uint64_t b, uint64_t e) {
            for (uint64_t i = b; i < e; ++i) {
                uint32_t k = old_to_new[i];
                next_keys[k] = keys_[i];
                next_amps[k] = amps_[i];
                if (record)
                    record->scatter[k] = static_cast<uint32_t>(i);
            }
        });
    std::vector<uint32_t> created_new(n_created);
    parallel::parallelFor(
        0, n_created, parallel::kDefaultGrain,
        [&](uint64_t b, uint64_t e) {
            for (uint64_t j = b; j < e; ++j) {
                uint32_t k = static_cast<uint32_t>(j) +
                             static_cast<uint32_t>(std::lower_bound(
                                                       keys_.begin(),
                                                       keys_.end(),
                                                       created[j].key) -
                                                   keys_.begin());
                created_new[j] = k;
                next_keys[k] = created[j].key;
                next_amps[k] = Complex{0.0, 0.0};
                if (record)
                    record->scatter[k] = kPlanNoSource;
            }
        });

    // Translate the pair list into merged indices: both-populated pairs
    // first (index order), then creation pairs (created-key order) --
    // deterministic regardless of the thread count.
    for (size_t p = 0; p < both_populated; ++p) {
        pairs[p].first = old_to_new[pairs[p].first];
        pairs[p].second = old_to_new[pairs[p].second];
    }
    for (uint64_t j = 0; j < n_created; ++j) {
        uint32_t src = old_to_new[created[j].src];
        if (created[j].side == kMinus)
            pairs.emplace_back(src, created_new[j]);
        else
            pairs.emplace_back(created_new[j], src);
    }

    // Pass 5 (parallel): rotate each pair.  Pairs are disjoint (every
    // slot belongs to at most one), so writes never overlap.
    parallel::parallelFor(
        0, pairs.size(), parallel::kDefaultGrain,
        [&](uint64_t b, uint64_t e) {
            kern.sparsePairRotate(next_amps.data(), pairs.data(), b, e,
                                  c, ms);
        });

    if (record)
        record->pairs.assign(pairs.begin(), pairs.end());

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
    const uint64_t n = amps_.size();
    std::vector<double> weights(n);
    parallel::parallelFor(0, n, parallel::kDefaultGrain,
                          [&](uint64_t b, uint64_t e) {
                              for (uint64_t i = b; i < e; ++i)
                                  weights[i] = std::norm(amps_[i]);
                          });
    double total = parallel::reduceBlocks(
        0, n, parallel::kReduceBlock, [&](uint64_t b, uint64_t e) {
            double acc = 0.0;
            for (uint64_t i = b; i < e; ++i)
                acc += weights[i];
            return acc;
        });
    fatal_if(!(total > 1e-18) || !std::isfinite(total),
             "sampling from a sparse state with total probability {} "
             "(noise/degradation collapsed the distribution)",
             total);
    AliasTable table(weights); // O(1)/shot instead of a linear scan
    Counts counts;
    for (uint64_t s = 0; s < shots; ++s)
        counts.add(keys_[table.sample(rng)]);
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
