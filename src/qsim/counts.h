/**
 * @file
 * Measurement-outcome histograms shared by all simulators, and the
 * alias-method sampler that produces them in O(1) per shot.
 */

#ifndef RASENGAN_QSIM_COUNTS_H
#define RASENGAN_QSIM_COUNTS_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <random>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bitvec.h"
#include "common/rng.h"

namespace rasengan::qsim {

/** Histogram of measured basis states. */
class Counts
{
  public:
    using Map = std::unordered_map<BitVec, uint64_t, BitVecHash>;

    Counts() = default;

    void
    add(const BitVec &outcome, uint64_t n = 1)
    {
        counts_[outcome] += n;
        total_ += n;
    }

    const Map &map() const { return counts_; }
    uint64_t total() const { return total_; }
    bool empty() const { return total_ == 0; }
    size_t distinct() const { return counts_.size(); }

    /**
     * Entries in ascending BitVec order.  Every serialization path
     * (JSONL results, bench dumps) and every floating-point
     * accumulation over a histogram must use this instead of map():
     * unordered_map iteration order is hash-seed/platform dependent, so
     * walking it directly makes output bytes and FP summation order
     * irreproducible across builds.
     */
    std::vector<std::pair<BitVec, uint64_t>> sorted() const;

    /** Empirical probability of @p outcome. */
    double
    probability(const BitVec &outcome) const
    {
        if (total_ == 0)
            return 0.0;
        auto it = counts_.find(outcome);
        return it == counts_.end()
                   ? 0.0
                   : static_cast<double>(it->second) /
                         static_cast<double>(total_);
    }

    /**
     * Expectation of a per-outcome scalar under the empirical law.
     * Accumulated in ascending outcome order so the floating-point sum
     * is independent of the hash layout.
     */
    double
    expectation(const std::function<double(const BitVec &)> &value) const
    {
        if (total_ == 0)
            return 0.0;
        double acc = 0.0;
        for (const auto &[outcome, n] : sorted())
            acc += value(outcome) * static_cast<double>(n);
        return acc / static_cast<double>(total_);
    }

    /** Fraction of shots whose outcome satisfies @p pred. */
    double
    fraction(const std::function<bool(const BitVec &)> &pred) const
    {
        if (total_ == 0)
            return 0.0;
        uint64_t hits = 0;
        for (const auto &[outcome, n] : counts_)
            if (pred(outcome))
                hits += n;
        return static_cast<double>(hits) / static_cast<double>(total_);
    }

    /** Keep only outcomes satisfying @p pred (purification primitive). */
    Counts
    filtered(const std::function<bool(const BitVec &)> &pred) const
    {
        Counts out;
        for (const auto &[outcome, n] : counts_)
            if (pred(outcome))
                out.add(outcome, n);
        return out;
    }

    /** Outcome with the highest count; aborts when empty. */
    BitVec mostFrequent() const;

  private:
    Map counts_;
    uint64_t total_ = 0;
};

/**
 * Walker/Vose alias table over an unnormalized weight vector: O(n)
 * construction, O(1) per sample with a single uniform draw and no
 * allocation.  Shared by the dense, sparse, and density-matrix
 * samplers, replacing the per-shot O(log n) CDF binary search (dense)
 * and O(n) linear scan (sparse/density).
 *
 * Construction and sampling are deterministic: the table layout depends
 * only on the weights, and each sample consumes exactly one engine word
 * from the caller's Rng.
 */
class AliasTable
{
  public:
    /** Draws per engine block in the block sampler. */
    static constexpr size_t kBlock = 256;

    /** @p weights must be non-negative with a positive sum (aborts
     *  otherwise). */
    explicit AliasTable(const std::vector<double> &weights);

    size_t size() const { return prob_.size(); }
    double totalWeight() const { return total_; }

    /**
     * Draw one index with probability weights[i] / totalWeight() through
     * std::uniform_real_distribution: the slow reference the block
     * sampler is tested against.
     */
    size_t
    sample(Rng &rng) const
    {
        const double n = static_cast<double>(prob_.size());
        double u = std::uniform_real_distribution<double>(0.0, n)(
            rng.engine());
        size_t slot = static_cast<size_t>(u);
        if (slot >= prob_.size()) // guard the u == n edge
            slot = prob_.size() - 1;
        double frac = u - static_cast<double>(slot);
        return frac < prob_[slot] ? slot : alias_[slot];
    }

    /**
     * Fill @p out with out.size() draws: the same indices, in the same
     * order, and the same engine advance as that many calls of
     * sample(rng).  Engine words come a block at a time; the map from
     * word to index has no data-dependent branch.
     */
    void sample(Rng &rng, std::span<uint32_t> out) const;

    /** Call @p visit(index) for each of @p shots draws, in draw order. */
    template <typename Visit>
    void
    forEachDraw(Rng &rng, uint64_t shots, Visit &&visit) const
    {
        std::array<uint32_t, kBlock> drawn;
        for (uint64_t done = 0; done < shots;) {
            const size_t k = static_cast<size_t>(
                std::min<uint64_t>(shots - done, kBlock));
            sample(rng, std::span<uint32_t>(drawn.data(), k));
            for (size_t j = 0; j < k; ++j)
                visit(drawn[j]);
            done += k;
        }
    }

  private:
    std::vector<double> prob_;   ///< acceptance threshold per slot
    std::vector<uint32_t> alias_;///< fallback index per slot
    double total_ = 0.0;
};

} // namespace rasengan::qsim

#endif // RASENGAN_QSIM_COUNTS_H
