/**
 * @file
 * Content-addressed artifact cache with an LRU byte budget.
 *
 * The serve layer memoizes the expensive, reusable artifacts of a solve
 * across jobs: integer nullspace/HNF kernel bases and transition
 * pipelines (core::PipelineArtifacts) and the noisy backends'
 * transpiled segment circuits (circuit::Circuit).  Entries are keyed by CacheKey -- a hash of the
 * canonical problem/config serialization -- so equal inputs hit
 * regardless of how the request was constructed or scheduled.
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
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>

#include "serve/cachekey.h"

namespace rasengan::serve {

class ArtifactCache
{
  public:
    /**
     * Per-domain slice of the counters.  The LRU budget is shared
     * across domains, so one domain's working set can evict another's
     * entries; these counters attribute hits, misses, and evictions to
     * the domain that OWNED the entry (for evictions: the victim's
     * domain, regardless of which domain's insert forced it out) --
     * exactly the signal needed to spot cross-domain cache pressure.
     */
    struct DomainStats
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t insertions = 0;
        uint64_t evictions = 0;
        uint64_t bytesInUse = 0;
        size_t entries = 0;
    };

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
        /** Keyed by the domain string passed to getOrCompute ("" for
         *  untagged lookups). */
        std::map<std::string, DomainStats> domains;

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
        struct DomainLookup
        {
            uint64_t hits = 0;
            uint64_t misses = 0;
        };

        uint64_t hits = 0;
        uint64_t misses = 0;
        /** The same lookups split by the domain string passed to
         *  getOrCompute -- per-job counterpart of Stats::domains. */
        std::map<std::string, DomainLookup> domains;
    };

    /** @p byte_budget 0 disables caching (every lookup misses). */
    explicit ArtifactCache(uint64_t byte_budget);

    /**
     * Return the artifact for @p key, computing it with @p make on a
     * miss.  @p make returns {value, approximate bytes}.  The hit/miss
     * is counted in the global stats and, when given, in @p counters.
     * @p domain attributes the lookup (and any resulting entry) to a
     * DomainStats slice; the CacheKey already encodes it, so passing
     * the same domain string used in makeKey keeps the attribution
     * honest.
     */
    template <typename T>
    std::shared_ptr<const T>
    getOrCompute(const CacheKey &key,
                 const std::function<std::pair<std::shared_ptr<const T>,
                                               uint64_t>()> &make,
                 LookupCounters *counters = nullptr,
                 const char *domain = "")
    {
        if (std::shared_ptr<const void> found =
                find(key, counters, domain))
            return std::static_pointer_cast<const T>(found);
        auto [value, bytes] = make();
        return std::static_pointer_cast<const T>(
            publish(key, value, bytes, domain));
    }

    /** Snapshot of the counters (copied under the lock). */
    Stats stats() const;

    /** Drop every entry (counters other than bytes/entries survive). */
    void clear();

  private:
    std::shared_ptr<const void> find(const CacheKey &key,
                                     LookupCounters *counters,
                                     const char *domain);
    std::shared_ptr<const void> publish(const CacheKey &key,
                                        std::shared_ptr<const void> value,
                                        uint64_t bytes,
                                        const char *domain);

    struct Entry
    {
        CacheKey key;
        std::shared_ptr<const void> value;
        uint64_t bytes = 0;
        std::string domain; ///< eviction attribution
    };

    mutable std::mutex mutex_;
    std::list<Entry> lru_; ///< front = most recently used
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
        index_;
    Stats stats_;
};

} // namespace rasengan::serve

#endif // RASENGAN_SERVE_ARTIFACT_CACHE_H
