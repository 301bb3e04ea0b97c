#include "qsim/counts.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace rasengan::qsim {

std::vector<std::pair<BitVec, uint64_t>>
Counts::sorted() const
{
    std::vector<std::pair<BitVec, uint64_t>> entries(counts_.begin(),
                                                     counts_.end());
    std::sort(entries.begin(), entries.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    return entries;
}

AliasTable::AliasTable(const std::vector<double> &weights)
{
    fatal_if(weights.empty(), "alias table over an empty weight vector");
    const size_t n = weights.size();
    for (double w : weights) {
        // Degenerate inputs reach this point when aggressive noise or
        // degradation collapses a probability vector; fail loudly here
        // instead of sampling from a silently corrupt table.
        panic_if(!std::isfinite(w),
                 "alias table: non-finite weight {} (noise/degradation "
                 "produced an invalid probability vector)",
                 w);
        panic_if(w < 0.0, "alias table: negative weight {}", w);
        total_ += w;
    }
    panic_if(!std::isfinite(total_),
             "alias table: weight sum overflowed to {}", total_);
    fatal_if(total_ <= 0.0,
             "alias table: zero total weight (all outcomes have "
             "probability 0 -- noise or degradation emptied the "
             "distribution)");

    // Vose's method with index-ordered worklists: scaled weight < 1 goes
    // to `small`, >= 1 to `large`; each small slot is topped up by one
    // large donor.  Processing order is a deterministic function of the
    // weights, so the table (and thus every sampled stream) is too.
    prob_.resize(n);
    alias_.resize(n);
    std::vector<double> scaled(n);
    std::vector<uint32_t> small, large;
    small.reserve(n);
    large.reserve(n);
    const double mean = total_ / static_cast<double>(n);
    for (size_t i = 0; i < n; ++i) {
        scaled[i] = weights[i] / mean;
        if (scaled[i] < 1.0)
            small.push_back(static_cast<uint32_t>(i));
        else
            large.push_back(static_cast<uint32_t>(i));
    }
    while (!small.empty() && !large.empty()) {
        uint32_t s = small.back();
        uint32_t l = large.back();
        small.pop_back();
        prob_[s] = scaled[s];
        alias_[s] = l;
        scaled[l] -= 1.0 - scaled[s];
        if (scaled[l] < 1.0) {
            large.pop_back();
            small.push_back(l);
        }
    }
    // Leftovers are exactly 1 up to rounding: accept unconditionally.
    for (uint32_t l : large) {
        prob_[l] = 1.0;
        alias_[l] = l;
    }
    for (uint32_t s : small) {
        prob_[s] = 1.0;
        alias_[s] = s;
    }
}

void
AliasTable::sample(Rng &rng, std::span<uint32_t> out) const
{
    // sample(rng) per word: u = canonical(word) * n (adding lo = 0 is
    // exact for u >= 0), slot = floor(u) with the u == n guard, then
    // accept the slot or take its alias.  The int64 conversion and the
    // masked select keep the pass branch-free.
    const int64_t last = static_cast<int64_t>(prob_.size()) - 1;
    const double n = static_cast<double>(prob_.size());
    const double *prob = prob_.data();
    const uint32_t *alias = alias_.data();
    std::array<uint64_t, kBlock> words;
    for (size_t done = 0; done < out.size();) {
        const size_t k = std::min(out.size() - done, kBlock);
        rng.engine().generate(words.data(), k);
        uint32_t *dst = out.data() + done;
        for (size_t j = 0; j < k; ++j) {
            const double u = Rng::canonical(words[j]) * n;
            const int64_t slot = std::min(static_cast<int64_t>(u), last);
            const uint32_t keep =
                0u - static_cast<uint32_t>(u - static_cast<double>(slot) <
                                           prob[slot]);
            dst[j] = (static_cast<uint32_t>(slot) & keep) |
                     (alias[slot] & ~keep);
        }
        done += k;
    }
}

BitVec
Counts::mostFrequent() const
{
    fatal_if(empty(), "mostFrequent of empty counts");
    const BitVec *best = nullptr;
    uint64_t best_n = 0;
    for (const auto &[outcome, n] : counts_) {
        if (!best || n > best_n || (n == best_n && outcome < *best)) {
            best = &outcome;
            best_n = n;
        }
    }
    return *best;
}

} // namespace rasengan::qsim
