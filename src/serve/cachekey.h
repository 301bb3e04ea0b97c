/**
 * @file
 * Content-addressed cache keys for the batch solve service.
 *
 * A CacheKey is a 128-bit hash (two independent 64-bit FNV-1a streams)
 * of a canonical byte string: a short domain tag (the serve layer uses
 * "pipeline") plus the canonical serialization of whatever the artifact
 * depends on.  Canonical means construction-order independent --
 * problems go through problems::canonicalProblemText, solver configs
 * through serve::canonicalRequestText -- so the same logical input
 * always addresses the same cache slot, while any differing field
 * changes the key.
 */

#ifndef RASENGAN_SERVE_CACHEKEY_H
#define RASENGAN_SERVE_CACHEKEY_H

#include <cstdint>
#include <string>
#include <string_view>

namespace rasengan::serve {

struct CacheKey
{
    uint64_t hi = 0;
    uint64_t lo = 0;

    friend bool
    operator==(const CacheKey &a, const CacheKey &b)
    {
        return a.hi == b.hi && a.lo == b.lo;
    }

    friend bool operator!=(const CacheKey &a, const CacheKey &b)
    {
        return !(a == b);
    }

    /** 32-hex-digit rendering (stable across runs/platforms). */
    std::string hex() const;
};

struct CacheKeyHash
{
    size_t
    operator()(const CacheKey &k) const
    {
        return static_cast<size_t>(k.lo ^ (k.hi * 0x9E3779B97F4A7C15ull));
    }
};

/** FNV-1a 64-bit over @p bytes starting from @p basis. */
uint64_t fnv1a64(std::string_view bytes,
                 uint64_t basis = 0xcbf29ce484222325ull);

/**
 * Build a key for @p payload in @p domain.  Different domains never
 * collide on equal payloads (the domain is folded into both streams).
 */
CacheKey makeKey(std::string_view domain, std::string_view payload);

/** splitmix64: derive a well-mixed child seed from @p x. */
uint64_t mixSeed(uint64_t x);

} // namespace rasengan::serve

#endif // RASENGAN_SERVE_CACHEKEY_H
