/**
 * @file
 * Content-addressed artifact cache with an LRU byte budget.
 *
 * The serve layer memoizes the expensive, reusable artifact of a solve
 * across jobs: its transition pipeline (core::PipelineArtifacts).
 * Entries are keyed by CacheKey -- a hash of the canonical
 * problem/config serialization -- so equal inputs hit regardless of
 * how the request was constructed or scheduled.
 *
 * Correctness contract: cached values must be DETERMINISTIC functions
 * of their key (every producer in this repo is), so a hit returns
 * exactly what a recompute would.  Batch results are therefore
 * bit-identical whether the cache is cold, warm, or disabled.
 *
 * Concurrency: lookups and publishes take one mutex; the compute
 * callback runs OUTSIDE the lock, so concurrent jobs missing on the
 * same key may compute the value twice -- the first publish wins and
 * later ones adopt it (identical by the determinism contract).  Byte
 * accounting uses caller-supplied estimates; an artifact larger than
 * the whole budget is returned but never inserted.
 */

#ifndef RASENGAN_SERVE_ARTIFACT_CACHE_H
#define RASENGAN_SERVE_ARTIFACT_CACHE_H

#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "serve/cachekey.h"

namespace rasengan::serve {

class ArtifactCache
{
  public:
    struct Stats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t insertions = 0;
        uint64_t evictions = 0;
        uint64_t uncacheable = 0; ///< artifacts larger than the budget
        uint64_t bytesInUse = 0;
        uint64_t byteBudget = 0;
        size_t entries = 0;

        double
        hitRate() const
        {
            uint64_t lookups = hits + misses;
            return lookups == 0
                       ? 0.0
                       : static_cast<double>(hits) /
                             static_cast<double>(lookups);
        }
    };

    /** Per-job hit/miss attribution (telemetry). */
    struct LookupCounters
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
    };

    /** @p byte_budget 0 disables caching (every lookup misses). */
    explicit ArtifactCache(uint64_t byte_budget);

    /**
     * Return the artifact for @p key, computing it with @p make on a
     * miss.  @p make returns {value, approximate bytes}.  The hit/miss
     * is counted in the global stats and, when given, in @p counters.
     */
    template <typename T>
    std::shared_ptr<const T>
    getOrCompute(const CacheKey &key,
                 const std::function<std::pair<std::shared_ptr<const T>,
                                               uint64_t>()> &make,
                 LookupCounters *counters = nullptr)
    {
        if (std::shared_ptr<const void> found = find(key, counters))
            return std::static_pointer_cast<const T>(found);
        auto [value, bytes] = make();
        return std::static_pointer_cast<const T>(
            publish(key, value, bytes));
    }

    /** Snapshot of the counters (copied under the lock). */
    Stats stats() const;

    /** Drop every entry (counters other than bytes/entries survive). */
    void clear();

  private:
    std::shared_ptr<const void> find(const CacheKey &key,
                                     LookupCounters *counters);
    std::shared_ptr<const void> publish(const CacheKey &key,
                                        std::shared_ptr<const void> value,
                                        uint64_t bytes);

    struct Entry
    {
        CacheKey key;
        std::shared_ptr<const void> value;
        uint64_t bytes = 0;
    };

    mutable std::mutex mutex_;
    std::list<Entry> lru_; ///< front = most recently used
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
        index_;
    Stats stats_;
};

} // namespace rasengan::serve

#endif // RASENGAN_SERVE_ARTIFACT_CACHE_H
