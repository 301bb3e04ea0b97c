/**
 * @file
 * Unit tests for src/common: BitVec, Rng, stats, timers, log formatting.
 */

#include <gtest/gtest.h>

#include <bit>
#include <random>
#include <set>
#include <sstream>
#include <thread>

#include "common/bitvec.h"
#include "common/bitvecset.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/timer.h"

namespace rasengan {
namespace {

TEST(BitVec, DefaultIsZero)
{
    BitVec v;
    for (int i = 0; i < kMaxBits; ++i)
        EXPECT_FALSE(v.get(i));
    EXPECT_EQ(v.popcount(), 0);
}

TEST(BitVec, SetClearFlipAssign)
{
    BitVec v;
    v.set(3);
    EXPECT_TRUE(v.get(3));
    v.flip(3);
    EXPECT_FALSE(v.get(3));
    v.flip(100);
    EXPECT_TRUE(v.get(100));
    v.clear(100);
    EXPECT_FALSE(v.get(100));
    v.assign(64, true);
    EXPECT_TRUE(v.get(64));
    v.assign(64, false);
    EXPECT_FALSE(v.get(64));
}

TEST(BitVecSet, KeepsInsertionOrderAcrossGrowth)
{
    // Thousands of states force several table doublings; the zero
    // vector and high-word states are ordinary members.
    Rng rng(17);
    BitVecSet set;
    std::vector<BitVec> order;
    std::set<BitVec> seen;
    for (int k = 0; k < 5000; ++k) {
        BitVec x;
        if (k > 0)
            x.set(static_cast<int>(rng.uniformInt(0, kMaxBits - 1)));
        if (rng.bernoulli(0.5))
            x.set(static_cast<int>(rng.uniformInt(0, 11)));
        const bool fresh = seen.insert(x).second;
        EXPECT_EQ(set.insert(x), fresh) << k;
        if (fresh)
            order.push_back(x);
    }
    ASSERT_EQ(set.size(), order.size());
    for (size_t i = 0; i < order.size(); ++i) {
        EXPECT_EQ(set[i], order[i]) << i;
        EXPECT_TRUE(set.contains(order[i])) << i;
    }
    BitVec absent;
    absent.set(3);
    absent.set(70);
    absent.set(100);
    EXPECT_EQ(set.contains(absent), seen.count(absent) == 1);
    EXPECT_FALSE(BitVecSet().contains(BitVec{}));
    EXPECT_TRUE(BitVecSet(BitVec{}).contains(BitVec{}));
}

TEST(BitVec, HighWordIndependentOfLowWord)
{
    BitVec v;
    v.set(0);
    v.set(127);
    EXPECT_EQ(v.popcount(), 2);
    EXPECT_TRUE(v.get(0));
    EXPECT_TRUE(v.get(127));
    EXPECT_FALSE(v.get(63));
    EXPECT_FALSE(v.get(64));
}

TEST(BitVec, IndexRoundTrip)
{
    for (uint64_t idx : {0ull, 1ull, 5ull, 0xDEADBEEFull}) {
        EXPECT_EQ(BitVec::fromIndex(idx).toIndex(), idx);
    }
}

TEST(BitVec, StringRoundTrip)
{
    BitVec v = BitVec::fromString("01101");
    EXPECT_FALSE(v.get(0));
    EXPECT_TRUE(v.get(1));
    EXPECT_TRUE(v.get(2));
    EXPECT_FALSE(v.get(3));
    EXPECT_TRUE(v.get(4));
    EXPECT_EQ(v.toString(5), "01101");
    EXPECT_EQ(v.toVector(5), (std::vector<int>{0, 1, 1, 0, 1}));
}

TEST(BitVec, FromVectorMatchesFromString)
{
    EXPECT_EQ(BitVec::fromVector({1, 0, 1}), BitVec::fromString("101"));
}

TEST(BitVec, XorAndOr)
{
    BitVec a = BitVec::fromString("1100");
    BitVec b = BitVec::fromString("1010");
    EXPECT_EQ((a ^ b).toString(4), "0110");
    EXPECT_EQ((a & b).toString(4), "1000");
    EXPECT_EQ((a | b).toString(4), "1110");
}

TEST(BitVec, OrderingIsTotal)
{
    BitVec a = BitVec::fromIndex(1);
    BitVec b = BitVec::fromIndex(2);
    BitVec c;
    c.set(64); // high word
    EXPECT_LT(a, b);
    EXPECT_LT(b, c);
    EXPECT_LT(a, c);
    EXPECT_EQ(a, BitVec::fromIndex(1));
}

TEST(BitVec, HashSpreads)
{
    std::set<size_t> hashes;
    for (uint64_t i = 0; i < 256; ++i)
        hashes.insert(BitVec::fromIndex(i).hash());
    // A few collisions would be tolerable; identical hashes are a bug.
    EXPECT_GT(hashes.size(), 250u);
}

TEST(Mt19937_64, TenThousandthOutputIsTheStandardCheckValue)
{
    Mt19937_64 engine;
    engine.discard(9999);
    EXPECT_EQ(engine(), 9981545732273789042ull);
}

TEST(Mt19937_64, WordsEqualStdMt19937_64)
{
    // Every way of drawing -- single words, bulk runs of uneven length
    // across refills, and skips -- walks the standard engine's stream.
    const uint64_t seeds[] = {0, 1, 5489, 42, 0x5A17F00D,
                              0xFFFFFFFFFFFFFFFFull, 1ull << 63, 123456789};
    std::vector<uint64_t> bulk(1000);
    for (uint64_t seed : seeds) {
        Mt19937_64 engine(seed);
        std::mt19937_64 ref(seed);
        size_t drawn = 0, step = 0;
        while (drawn < 1000000) {
            const size_t run = 1 + (step * 97) % bulk.size();
            if (step % 3 == 0) {
                for (size_t i = 0; i < run; ++i)
                    ASSERT_EQ(engine(), ref()) << "seed " << seed;
            } else if (step % 3 == 1) {
                engine.generate(bulk.data(), run);
                for (size_t i = 0; i < run; ++i)
                    ASSERT_EQ(bulk[i], ref()) << "seed " << seed;
            } else {
                engine.discard(run);
                ref.discard(run);
            }
            drawn += run;
            ++step;
        }
        std::ostringstream mine, theirs;
        mine << engine;
        theirs << ref;
        EXPECT_EQ(mine.str(), theirs.str()) << "seed " << seed;
    }
}

TEST(Mt19937_64, StateTextRoundTripsWithStdMt19937_64)
{
    // Mid-block positions: std text loads into the in-tree engine and
    // continues the same stream, and the reverse; equal states compare
    // equal.
    for (size_t skip : {0, 1, 311, 312, 313, 1000}) {
        std::mt19937_64 ref(77);
        ref.discard(skip);
        std::stringstream text;
        text << ref;
        Mt19937_64 engine;
        text >> engine;
        ASSERT_FALSE(text.fail()) << skip;
        for (int i = 0; i < 700; ++i)
            ASSERT_EQ(engine(), ref()) << skip;

        Mt19937_64 mine(78);
        mine.discard(skip);
        Mt19937_64 copy = mine;
        EXPECT_EQ(copy, mine);
        std::stringstream back;
        back << mine;
        std::mt19937_64 std_engine;
        back >> std_engine;
        ASSERT_FALSE(back.fail()) << skip;
        for (int i = 0; i < 700; ++i)
            ASSERT_EQ(std_engine(), mine()) << skip;
        EXPECT_FALSE(copy == mine);
    }
}

/** A generator that returns one fixed word: feeds std::generate_canonical. */
struct FixedWord
{
    using result_type = uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type word;
    result_type operator()() { return word; }
};

TEST(Rng, CanonicalEqualsGenerateCanonical)
{
    // Round-to-nearest conversion (ties at 2^53 + 1 and 2^64 - 1024),
    // the exact 2^-64 scale, and the clamp below 1.
    const std::pair<uint64_t, double> edges[] = {
        {0, 0.0},
        {1, 0x1p-64},
        {(1ull << 53) - 1, 0x1.fffffffffffffp-12},
        {1ull << 53, 0x1p-11},
        {(1ull << 53) + 1, 0x1p-11},
        {1ull << 63, 0.5},
        {(1ull << 63) - 1, 0.5},
        {~0ull - 1023, 0x1.fffffffffffffp-1},
        {~0ull - 1024, 0x1.fffffffffffffp-1},
        {~0ull, 0x1.fffffffffffffp-1},
    };
    for (const auto &[word, want] : edges) {
        EXPECT_EQ(std::bit_cast<uint64_t>(Rng::canonical(word)),
                  std::bit_cast<uint64_t>(want))
            << word;
#ifdef __GLIBCXX__
        FixedWord g{word};
        EXPECT_EQ(std::bit_cast<uint64_t>(Rng::canonical(word)),
                  std::bit_cast<uint64_t>(
                      std::generate_canonical<double, 53>(g)))
            << word;
#endif
    }
#ifdef __GLIBCXX__
    std::mt19937_64 words(2024);
    for (int i = 0; i < 1000000; ++i) {
        FixedWord g{words()};
        ASSERT_EQ(std::bit_cast<uint64_t>(Rng::canonical(g.word)),
                  std::bit_cast<uint64_t>(
                      std::generate_canonical<double, 53>(g)))
            << g.word;
    }
#endif
}

#ifdef __GLIBCXX__
TEST(Rng, RealDrawsEqualStdDistributions)
{
    // uniformReal and bernoulli are computed in-tree; on the same
    // engine words they return libstdc++'s doubles and verdicts.
    for (double p : {1e-9, 0.1, 0.25, 0.5, 0.7, 0.999999}) {
        Rng rng(11);
        std::mt19937_64 ref(11);
        std::bernoulli_distribution coin(p);
        for (int i = 0; i < 100000; ++i)
            ASSERT_EQ(rng.bernoulli(p), coin(ref)) << p << " draw " << i;
    }
    const std::pair<double, double> ranges[] = {
        {0.0, 1.0}, {-1.0, 1.0}, {0.0, 257.0}, {3.5, 3.75}};
    for (const auto &[lo, hi] : ranges) {
        Rng rng(12);
        std::mt19937_64 ref(12);
        std::uniform_real_distribution<double> uniform(lo, hi);
        for (int i = 0; i < 100000; ++i)
            ASSERT_EQ(std::bit_cast<uint64_t>(rng.uniformReal(lo, hi)),
                      std::bit_cast<uint64_t>(uniform(ref)))
                << lo << " " << hi << " draw " << i;
    }
}
#endif

TEST(Rng, DeterministicFromSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniformInt(0, 1000), b.uniformInt(0, 1000));
}

TEST(Rng, UniformIntWithinBounds)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        int64_t v = rng.uniformInt(-3, 9);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 9);
    }
}

TEST(Rng, BernoulliEdgeCases)
{
    Rng rng(7);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
}

TEST(Rng, WeightedIndexRespectsWeights)
{
    Rng rng(3);
    std::vector<double> weights{0.0, 10.0, 0.0};
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(rng.weightedIndex(weights), 1u);
}

TEST(Rng, WeightedIndexEmpiricalDistribution)
{
    Rng rng(5);
    std::vector<double> weights{1.0, 3.0};
    int ones = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        ones += rng.weightedIndex(weights) == 1 ? 1 : 0;
    double frac = static_cast<double>(ones) / trials;
    EXPECT_NEAR(frac, 0.75, 0.02);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng rng(9);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Rng, ForkProducesIndependentStream)
{
    Rng a(42);
    Rng child = a.fork();
    // The child stream should differ from the parent's continuation.
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        any_diff |= a.uniformInt(0, 1 << 30) != child.uniformInt(0, 1 << 30);
    EXPECT_TRUE(any_diff);
}

TEST(Stats, MeanAndStddev)
{
    std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    EXPECT_DOUBLE_EQ(mean(xs), 5.0);
    EXPECT_NEAR(stddev(xs), 2.138, 1e-3);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(stddev({1.0}), 0.0);
}

TEST(Stats, Geomean)
{
    EXPECT_NEAR(geomean({1.0, 8.0}), std::sqrt(8.0), 1e-12);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Stats, Percentile)
{
    std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100), 4.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50), 2.5);
}

TEST(Stats, ExactRankPercentileIsAlwaysASample)
{
    // Ten latencies; nearest-rank p99 must be the max, not an
    // interpolated value between the two largest samples.
    std::vector<double> xs;
    for (int i = 1; i <= 10; ++i)
        xs.push_back(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(exactRankPercentile(xs, 99), 10.0);
    EXPECT_DOUBLE_EQ(exactRankPercentile(xs, 100), 10.0);
    EXPECT_DOUBLE_EQ(exactRankPercentile(xs, 0), 1.0);
    // ceil(0.50 * 10) = rank 5.
    EXPECT_DOUBLE_EQ(exactRankPercentile(xs, 50), 5.0);
    // ceil(0.51 * 10) = rank 6.
    EXPECT_DOUBLE_EQ(exactRankPercentile(xs, 51), 6.0);
    // Input order must not matter.
    std::vector<double> shuffled{7, 2, 9, 1, 10, 4, 3, 8, 6, 5};
    EXPECT_DOUBLE_EQ(exactRankPercentile(shuffled, 99), 10.0);
    // Single sample: every percentile is that sample.
    std::vector<double> one{42.0};
    EXPECT_DOUBLE_EQ(exactRankPercentile(one, 1), 42.0);
    EXPECT_DOUBLE_EQ(exactRankPercentile(one, 99), 42.0);
}

TEST(Stats, MinMax)
{
    std::vector<double> xs{3.0, -1.0, 2.0};
    EXPECT_DOUBLE_EQ(minOf(xs), -1.0);
    EXPECT_DOUBLE_EQ(maxOf(xs), 3.0);
}

TEST(Stats, RunningStatMatchesBatch)
{
    std::vector<double> xs{2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
    RunningStat rs;
    for (double x : xs)
        rs.push(x);
    EXPECT_EQ(rs.count(), xs.size());
    EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
    EXPECT_NEAR(rs.stddev(), stddev(xs), 1e-12);
    EXPECT_DOUBLE_EQ(rs.min(), 2.0);
    EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(Timer, AccumulatesAcrossStartStop)
{
    Stopwatch w;
    w.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    w.stop();
    double first = w.seconds();
    EXPECT_GT(first, 0.0);
    w.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    w.stop();
    EXPECT_GT(w.seconds(), first);
    w.reset();
    EXPECT_DOUBLE_EQ(w.seconds(), 0.0);
}

TEST(Timer, ScopedTimerStops)
{
    Stopwatch w;
    {
        ScopedTimer guard(w);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    double t = w.seconds();
    EXPECT_GT(t, 0.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_DOUBLE_EQ(w.seconds(), t);
}

TEST(Logging, FormatSubstitution)
{
    EXPECT_EQ(detail::format("a {} b {}", 1, "x"), "a 1 b x");
    EXPECT_EQ(detail::format("no placeholders"), "no placeholders");
    EXPECT_EQ(detail::format("extra {} {}", 7), "extra 7 {}");
}

TEST(Logging, LevelRoundTrip)
{
    LogLevel original = logLevel();
    setLogLevel(LogLevel::Silent);
    EXPECT_EQ(logLevel(), LogLevel::Silent);
    setLogLevel(original);
}

TEST(Logging, ParseLogLevel)
{
    EXPECT_EQ(parseLogLevel("silent", LogLevel::Inform), LogLevel::Silent);
    EXPECT_EQ(parseLogLevel("WARN", LogLevel::Inform), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("inform", LogLevel::Silent), LogLevel::Inform);
    EXPECT_EQ(parseLogLevel("info", LogLevel::Silent), LogLevel::Inform);
    EXPECT_EQ(parseLogLevel("Debug", LogLevel::Inform), LogLevel::Debug);
    EXPECT_EQ(parseLogLevel("0", LogLevel::Inform), LogLevel::Silent);
    EXPECT_EQ(parseLogLevel("3", LogLevel::Inform), LogLevel::Debug);
    // Unrecognised values keep the fallback.
    EXPECT_EQ(parseLogLevel("", LogLevel::Warn), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("loud", LogLevel::Inform), LogLevel::Inform);
    EXPECT_EQ(parseLogLevel("7", LogLevel::Warn), LogLevel::Warn);
}

TEST(Logging, LogTailRendering)
{
    EXPECT_TRUE(LogTail().empty());
    EXPECT_EQ(LogTail().render(), "");
    EXPECT_EQ(LogTail().kv("attempt", 3).render(), " attempt=3");
    EXPECT_EQ(LogTail().kv("a", 1).kv("b", 2.5).render(), " a=1 b=2.5");
    // Values with spaces are quoted so the tail splits on whitespace.
    EXPECT_EQ(LogTail().kvText("reason", "queue full").render(),
              " reason=\"queue full\"");
    EXPECT_EQ(LogTail().kv("level", "Full").kvText("reason", "x").render(),
              " level=Full reason=x");
}

} // namespace
} // namespace rasengan
