#include "serve/artifact_cache.h"

#include "obs/metrics.h"

namespace rasengan::serve {

namespace {

/** Registry mirrors of the per-instance Stats counters. */
struct CacheCounters
{
    obs::Counter &hits = obs::Registry::global().counter(
        "serve_cache_hits_total", "Artifact cache lookup hits");
    obs::Counter &misses = obs::Registry::global().counter(
        "serve_cache_misses_total", "Artifact cache lookup misses");
    obs::Counter &insertions = obs::Registry::global().counter(
        "serve_cache_insertions_total", "Artifacts inserted");
    obs::Counter &evictions = obs::Registry::global().counter(
        "serve_cache_evictions_total", "Artifacts evicted by the budget");
    obs::Counter &uncacheable = obs::Registry::global().counter(
        "serve_cache_uncacheable_total",
        "Artifacts larger than the whole budget");
    obs::Gauge &bytesInUse = obs::Registry::global().gauge(
        "serve_cache_bytes_in_use", "Bytes held by cached artifacts");
    obs::Gauge &entries = obs::Registry::global().gauge(
        "serve_cache_entries", "Artifacts currently cached");
};

CacheCounters &
cacheCounters()
{
    static CacheCounters counters;
    return counters;
}

} // namespace

ArtifactCache::ArtifactCache(uint64_t byte_budget)
{
    stats_.byteBudget = byte_budget;
}

std::shared_ptr<const void>
ArtifactCache::find(const CacheKey &key, LookupCounters *counters)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it == index_.end()) {
        ++stats_.misses;
        cacheCounters().misses.inc();
        if (counters)
            ++counters->misses;
        return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second); // touch
    ++stats_.hits;
    cacheCounters().hits.inc();
    if (counters)
        ++counters->hits;
    return it->second->value;
}

std::shared_ptr<const void>
ArtifactCache::publish(const CacheKey &key,
                       std::shared_ptr<const void> value, uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = index_.find(key);
    if (it != index_.end()) {
        // Another job computed and published the same key while we were
        // computing; adopt its (identical) value so both jobs share one
        // copy.
        lru_.splice(lru_.begin(), lru_, it->second);
        return it->second->value;
    }
    if (stats_.byteBudget == 0 || bytes > stats_.byteBudget) {
        ++stats_.uncacheable;
        cacheCounters().uncacheable.inc();
        return value;
    }
    lru_.push_front(Entry{key, std::move(value), bytes});
    index_[key] = lru_.begin();
    stats_.bytesInUse += bytes;
    ++stats_.insertions;
    cacheCounters().insertions.inc();
    while (stats_.bytesInUse > stats_.byteBudget && lru_.size() > 1) {
        const Entry &victim = lru_.back();
        stats_.bytesInUse -= victim.bytes;
        index_.erase(victim.key);
        lru_.pop_back();
        ++stats_.evictions;
        cacheCounters().evictions.inc();
    }
    stats_.entries = lru_.size();
    cacheCounters().bytesInUse.set(
        static_cast<double>(stats_.bytesInUse));
    cacheCounters().entries.set(static_cast<double>(stats_.entries));
    return lru_.front().value;
}

ArtifactCache::Stats
ArtifactCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
ArtifactCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    lru_.clear();
    index_.clear();
    stats_.bytesInUse = 0;
    stats_.entries = 0;
    cacheCounters().bytesInUse.set(0.0);
    cacheCounters().entries.set(0.0);
}

} // namespace rasengan::serve
