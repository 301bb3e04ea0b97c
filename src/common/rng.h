/**
 * @file
 * Deterministic random number generator used throughout the library.
 *
 * All stochastic components (measurement sampling, noise trajectories,
 * instance generation, optimizer perturbations) draw from an explicitly
 * seeded Rng so that every experiment is reproducible from its seed.
 * The engine and every real-valued draw are computed in-tree, with the
 * same words and doubles as std::mt19937_64 and libstdc++'s
 * distributions; only uniformInt and normal still go through std.
 */

#ifndef RASENGAN_COMMON_RNG_H
#define RASENGAN_COMMON_RNG_H

#include <algorithm>
#include <array>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <ostream>
#include <random>
#include <vector>

#include "common/logging.h"

namespace rasengan {

/**
 * MT19937-64: the standard's algorithm and parameters, so every seed
 * yields the same words as std::mt19937_64.  The refill selects the
 * twist matrix with a mask instead of branching on a random bit, and
 * generate() copies a run of tempered words in one loop.  Stream
 * operators use libstdc++'s text layout (the 312 state words, then the
 * position), so state text moves between this engine and
 * std::mt19937_64 in both directions.
 */
class Mt19937_64
{
  public:
    using result_type = uint64_t;
    static constexpr size_t state_size = 312;
    static constexpr result_type default_seed = 5489u;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }

    explicit Mt19937_64(result_type s = default_seed) { seed(s); }

    void
    seed(result_type s)
    {
        x_[0] = s;
        for (size_t i = 1; i < kN; ++i)
            x_[i] =
                6364136223846793005ull * (x_[i - 1] ^ (x_[i - 1] >> 62)) + i;
        p_ = kN;
    }

    result_type
    operator()()
    {
        if (p_ >= kN)
            refill();
        return temper(x_[p_++]);
    }

    /** The next @p n words into @p out; same as @p n calls. */
    void
    generate(result_type *out, size_t n)
    {
        while (n > 0) {
            if (p_ >= kN)
                refill();
            const size_t k = std::min(n, kN - p_);
            const result_type *src = x_.data() + p_;
            for (size_t i = 0; i < k; ++i)
                out[i] = temper(src[i]);
            p_ += k;
            out += k;
            n -= k;
        }
    }

    /** Skip @p z words (libstdc++'s arithmetic, position included). */
    void
    discard(unsigned long long z)
    {
        while (z > kN - p_) {
            z -= kN - p_;
            refill();
        }
        p_ += z;
    }

    friend bool operator==(const Mt19937_64 &, const Mt19937_64 &) = default;

    friend std::ostream &
    operator<<(std::ostream &os, const Mt19937_64 &e)
    {
        const std::ios_base::fmtflags flags = os.flags();
        const char fill = os.fill();
        os.flags(std::ios_base::dec | std::ios_base::fixed |
                 std::ios_base::left);
        os.fill(' ');
        for (result_type w : e.x_)
            os << w << ' ';
        os << e.p_;
        os.flags(flags);
        os.fill(fill);
        return os;
    }

    friend std::istream &
    operator>>(std::istream &is, Mt19937_64 &e)
    {
        const std::ios_base::fmtflags flags = is.flags();
        is.flags(std::ios_base::dec | std::ios_base::skipws);
        for (result_type &w : e.x_)
            is >> w;
        is >> e.p_;
        is.flags(flags);
        return is;
    }

  private:
    static constexpr size_t kN = state_size;
    static constexpr size_t kM = 156;
    static constexpr result_type kMatrixA = 0xB5026F5AA96619E9ull;
    static constexpr result_type kUpper = ~result_type{0} << 31;
    static constexpr result_type kLower = ~kUpper;

    static result_type
    temper(result_type z)
    {
        z ^= (z >> 29) & 0x5555555555555555ull;
        z ^= (z << 17) & 0x71D67FFFEDA60000ull;
        z ^= (z << 37) & 0xFFF7EEE000000000ull;
        z ^= z >> 43;
        return z;
    }

    /** One twist step; the low bit of y selects kMatrixA by mask. */
    static result_type
    twist(result_type cur, result_type next, result_type far)
    {
        const result_type y = (cur & kUpper) | (next & kLower);
        return far ^ (y >> 1) ^ ((result_type{0} - (y & 1)) & kMatrixA);
    }

    void
    refill()
    {
        size_t k = 0;
        for (; k < kN - kM; ++k)
            x_[k] = twist(x_[k], x_[k + 1], x_[k + kM]);
        for (; k < kN - 1; ++k)
            x_[k] = twist(x_[k], x_[k + 1], x_[k + kM - kN]);
        x_[kN - 1] = twist(x_[kN - 1], x_[0], x_[kM - 1]);
        p_ = 0;
    }

    std::array<result_type, kN> x_;
    size_t p_ = kN;
};

class Rng
{
  public:
    using Engine = Mt19937_64;

    explicit Rng(uint64_t seed = 0x5A17F00Dull) : engine_(seed) {}

    /**
     * @p word mapped into [0, 1) exactly as libstdc++'s
     * generate_canonical<double, 53> maps one 64-bit engine word: the
     * nearest double to word * 2^-64, clamped below 1.  The word
     * converts as two exact 32-bit halves with one rounding in the
     * add, which needs no branch on the top bit.
     */
    static double
    canonical(uint64_t word)
    {
        constexpr double kBelowOne = 1.0 - 0x1p-53; // nextafter(1, 0)
        const double hi =
            static_cast<double>(static_cast<uint32_t>(word >> 32));
        const double lo = static_cast<double>(static_cast<uint32_t>(word));
        return std::min((hi * 0x1p32 + lo) * 0x1p-64, kBelowOne);
    }

    /** Reseed the generator. */
    void seed(uint64_t s) { engine_.seed(s); }

    /** Uniform integer in [lo, hi] inclusive. */
    int64_t
    uniformInt(int64_t lo, int64_t hi)
    {
        panic_if(lo > hi, "uniformInt: empty range [{}, {}]", lo, hi);
        return std::uniform_int_distribution<int64_t>(lo, hi)(engine_);
    }

    /** Uniform real in [lo, hi). */
    double
    uniformReal(double lo = 0.0, double hi = 1.0)
    {
        return canonical(engine_()) * (hi - lo) + lo;
    }

    /** Bernoulli trial with success probability @p p. */
    bool
    bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return canonical(engine_()) < p;
    }

    /** Standard normal sample scaled to @p mean / @p stddev. */
    double
    normal(double mean = 0.0, double stddev = 1.0)
    {
        return std::normal_distribution<double>(mean, stddev)(engine_);
    }

    /** Uniformly chosen index in [0, n). */
    size_t
    index(size_t n)
    {
        panic_if(n == 0, "index: empty range");
        return static_cast<size_t>(uniformInt(0, static_cast<int64_t>(n) - 1));
    }

    /** Uniformly chosen element of @p items. */
    template <typename T>
    const T &
    choice(const std::vector<T> &items)
    {
        panic_if(items.empty(), "choice: empty vector");
        return items[index(items.size())];
    }

    /**
     * Sample an index from an unnormalized weight vector.
     * Weights must be non-negative with a positive sum.
     */
    size_t
    weightedIndex(const std::vector<double> &weights)
    {
        double total = 0.0;
        for (double w : weights) {
            panic_if(!std::isfinite(w), "weightedIndex: non-finite weight {}",
                     w);
            panic_if(w < 0.0, "weightedIndex: negative weight {}", w);
            total += w;
        }
        panic_if(!std::isfinite(total) || total <= 0.0,
                 "weightedIndex: degenerate total weight {}", total);
        double r = uniformReal(0.0, total);
        double acc = 0.0;
        for (size_t i = 0; i < weights.size(); ++i) {
            acc += weights[i];
            if (r < acc)
                return i;
        }
        return weights.size() - 1;
    }

    /** Fisher-Yates shuffle. */
    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (size_t i = items.size(); i > 1; --i)
            std::swap(items[i - 1], items[index(i)]);
    }

    /** Access the underlying engine (for std distributions, bulk words
     *  and checkpoint text). */
    Engine &engine() { return engine_; }

    /** Derive an independent child generator (for parallel workloads). */
    Rng
    fork()
    {
        return Rng(engine_());
    }

  private:
    Engine engine_;
};

} // namespace rasengan

#endif // RASENGAN_COMMON_RNG_H
