#include "serve/cachekey.h"

#include <cstdio>

namespace rasengan::serve {

std::string
CacheKey::hex() const
{
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016llx%016llx",
                  static_cast<unsigned long long>(hi),
                  static_cast<unsigned long long>(lo));
    return buf;
}

uint64_t
fnv1a64(std::string_view bytes, uint64_t basis)
{
    constexpr uint64_t kPrime = 0x100000001b3ull;
    uint64_t h = basis;
    for (unsigned char c : bytes) {
        h ^= c;
        h *= kPrime;
    }
    return h;
}

CacheKey
makeKey(std::string_view domain, std::string_view payload)
{
    // Two streams with unrelated bases; the domain and a separator are
    // folded in first so domain "a"+X never aliases domain "b"+X.
    CacheKey key;
    uint64_t a = fnv1a64(domain);
    a = fnv1a64("\x1f", a);
    key.lo = fnv1a64(payload, a);
    uint64_t b = fnv1a64(domain, 0x84222325cbf29ce4ull);
    b = fnv1a64("\x1f", b);
    key.hi = fnv1a64(payload, b);
    return key;
}

uint64_t
mixSeed(uint64_t x)
{
    x += 0x9E3779B97F4A7C15ull;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
}

} // namespace rasengan::serve
