/**
 * @file
 * Unit tests for the resilient execution engine: Expected, the retry
 * backoff schedule, the circuit breaker state machine on a virtual
 * clock, deterministic fault injection, the degradation ladder, and
 * checkpoint serialization (round trip + corrupted inputs, including a
 * solver refusing to resume from a malformed rng line).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "core/rasengan.h"
#include "exec/backend.h"
#include "exec/breaker.h"
#include "exec/checkpoint.h"
#include "exec/clock.h"
#include "exec/executor.h"
#include "exec/expected.h"
#include "exec/faults.h"
#include "exec/retry.h"
#include "problems/suite.h"

namespace rasengan::exec {
namespace {

// ---------------------------------------------------------------- Expected

TEST(Expected, HoldsValueOrError)
{
    Expected<int> ok(42);
    EXPECT_TRUE(ok.ok());
    EXPECT_TRUE(static_cast<bool>(ok));
    EXPECT_EQ(ok.value(), 42);
    EXPECT_EQ(ok.valueOr(-1), 42);

    Expected<int> bad(ExecError{ErrorCode::Timeout, "deadline"});
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, ErrorCode::Timeout);
    EXPECT_EQ(bad.valueOr(-1), -1);
}

TEST(Expected, ErrorTaxonomy)
{
    auto err = [](ErrorCode code) { return ExecError{code, "", 1}; };
    EXPECT_TRUE(err(ErrorCode::Timeout).retryable());
    EXPECT_TRUE(err(ErrorCode::BackendUnavailable).retryable());
    EXPECT_TRUE(err(ErrorCode::ShotLoss).retryable());
    EXPECT_TRUE(err(ErrorCode::CorruptedCounts).retryable());
    EXPECT_FALSE(err(ErrorCode::InvalidJob).retryable());
    EXPECT_FALSE(err(ErrorCode::RetriesExhausted).retryable());
    EXPECT_FALSE(err(ErrorCode::CheckpointCorrupt).retryable());
    // Names are stable (logged and matched in tests).
    EXPECT_STREQ(errorCodeName(ErrorCode::Timeout), "timeout");
}

// ------------------------------------------------------------------ Clock

TEST(VirtualClockTest, SleepAdvancesAndAccumulates)
{
    VirtualClock clock;
    EXPECT_DOUBLE_EQ(clock.now(), 0.0);
    clock.sleep(1.5);
    clock.advance(0.25); // work time, not sleep
    clock.sleep(-3.0);   // negative requests are ignored
    EXPECT_DOUBLE_EQ(clock.now(), 1.75);
    EXPECT_DOUBLE_EQ(clock.sleptSeconds(), 1.5);
}

// ------------------------------------------------------------------ Retry

TEST(RetryPolicyTest, ExponentialScheduleWithoutJitter)
{
    RetryPolicy policy;
    policy.initialDelaySeconds = 0.1;
    policy.multiplier = 2.0;
    policy.maxDelaySeconds = 0.5;
    policy.jitter = 0.0;
    Rng rng(1);
    EXPECT_DOUBLE_EQ(policy.delaySeconds(0, rng), 0.0);
    EXPECT_DOUBLE_EQ(policy.delaySeconds(1, rng), 0.1);
    EXPECT_DOUBLE_EQ(policy.delaySeconds(2, rng), 0.2);
    EXPECT_DOUBLE_EQ(policy.delaySeconds(3, rng), 0.4);
    EXPECT_DOUBLE_EQ(policy.delaySeconds(4, rng), 0.5); // clamped
    EXPECT_DOUBLE_EQ(policy.delaySeconds(9, rng), 0.5);
}

TEST(RetryPolicyTest, JitterIsBoundedAndDeterministic)
{
    RetryPolicy policy;
    policy.initialDelaySeconds = 0.2;
    policy.multiplier = 1.0;
    policy.maxDelaySeconds = 10.0;
    policy.jitter = 0.5; // factor in [0.75, 1.25]
    Rng rng_a(99), rng_b(99);
    for (int k = 1; k <= 32; ++k) {
        double d = policy.delaySeconds(k, rng_a);
        EXPECT_GE(d, 0.2 * 0.75);
        EXPECT_LE(d, 0.2 * 1.25);
        // Same seed, same schedule: retries are reproducible.
        EXPECT_DOUBLE_EQ(d, policy.delaySeconds(k, rng_b));
    }
}

// ---------------------------------------------------------------- Breaker

TEST(CircuitBreakerTest, OpensAfterThresholdAndCoolsDown)
{
    CircuitBreaker::Options opts;
    opts.failureThreshold = 3;
    opts.cooldownSeconds = 1.0;
    CircuitBreaker breaker(opts);
    VirtualClock clock;

    EXPECT_EQ(breaker.state(clock.now()), CircuitBreaker::State::Closed);
    breaker.recordFailure(clock.now());
    breaker.recordFailure(clock.now());
    EXPECT_TRUE(breaker.allow(clock.now())); // below threshold
    breaker.recordFailure(clock.now());
    EXPECT_EQ(breaker.state(clock.now()), CircuitBreaker::State::Open);
    EXPECT_FALSE(breaker.allow(clock.now()));
    EXPECT_EQ(breaker.trips(), 1u);

    clock.sleep(0.5);
    EXPECT_FALSE(breaker.allow(clock.now())); // still cooling down
    clock.sleep(0.6);
    EXPECT_EQ(breaker.state(clock.now()),
              CircuitBreaker::State::HalfOpen);
    EXPECT_TRUE(breaker.allow(clock.now())); // probe admitted
}

TEST(CircuitBreakerTest, ProbeOutcomeDecidesReopenOrClose)
{
    CircuitBreaker::Options opts;
    opts.failureThreshold = 2;
    opts.cooldownSeconds = 1.0;
    CircuitBreaker breaker(opts);
    VirtualClock clock;

    breaker.recordFailure(clock.now());
    breaker.recordFailure(clock.now());
    clock.sleep(1.0);
    ASSERT_EQ(breaker.state(clock.now()),
              CircuitBreaker::State::HalfOpen);
    // A failed probe re-opens immediately (one failure, not threshold).
    breaker.recordFailure(clock.now());
    EXPECT_EQ(breaker.state(clock.now()), CircuitBreaker::State::Open);
    EXPECT_EQ(breaker.trips(), 2u);

    clock.sleep(1.0);
    ASSERT_EQ(breaker.state(clock.now()),
              CircuitBreaker::State::HalfOpen);
    breaker.recordSuccess();
    EXPECT_EQ(breaker.state(clock.now()), CircuitBreaker::State::Closed);
    EXPECT_EQ(breaker.consecutiveFailures(), 0);

    breaker.recordFailure(clock.now());
    breaker.reset();
    EXPECT_EQ(breaker.state(clock.now()), CircuitBreaker::State::Closed);
    EXPECT_EQ(breaker.consecutiveFailures(), 0);
}

// ------------------------------------------------------------------ Jobs

/** Deterministic sampling closure: `shots` draws over `bits` qubits. */
ShotJob
makeJob(uint64_t shots, int bits, uint64_t seed)
{
    ShotJob job;
    job.tag = "test-job";
    job.shots = shots;
    job.numBits = bits;
    job.rngSeed = seed;
    job.sample = [shots, bits](Rng &rng) {
        qsim::Counts counts;
        for (uint64_t i = 0; i < shots; ++i) {
            BitVec x;
            for (int b = 0; b < bits; ++b)
                if (rng.bernoulli(0.5))
                    x.set(b);
            counts.add(x);
        }
        return counts;
    };
    return job;
}

TEST(SimulatorBackendTest, ValidatesShotCountAndFiniteness)
{
    SimulatorBackend backend;
    auto ok = backend.run(makeJob(64, 3, 5));
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.value().total(), 64u);

    // A closure that under-delivers is flagged as shot loss.
    ShotJob lossy = makeJob(64, 3, 5);
    lossy.sample = [](Rng &) {
        qsim::Counts counts;
        counts.add(BitVec(), 10);
        return counts;
    };
    auto bad = backend.run(lossy);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.error().code, ErrorCode::ShotLoss);

    ValueJob nan_job;
    nan_job.tag = "nan";
    nan_job.evaluate = [] { return std::nan(""); };
    auto nan_res = backend.expectation(nan_job);
    ASSERT_FALSE(nan_res.ok());
    EXPECT_EQ(nan_res.error().code, ErrorCode::NonFiniteValue);
}

TEST(SimulatorBackendTest, SameSeedSameHistogram)
{
    SimulatorBackend backend;
    auto a = backend.run(makeJob(256, 4, 77));
    auto b = backend.run(makeJob(256, 4, 77));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.value().map(), b.value().map());
}

// --------------------------------------------------------- validateCounts

ShotJob
registerJob(int num_bits, uint64_t shots)
{
    ShotJob job;
    job.tag = "segment 4";
    job.shots = shots;
    job.numBits = num_bits;
    return job;
}

/** One shot on each outcome whose set bits are listed. */
qsim::Counts
outcomes(const std::vector<std::vector<int>> &bit_lists)
{
    qsim::Counts counts;
    for (const auto &bits : bit_lists) {
        BitVec x;
        for (int b : bits)
            x.set(b);
        counts.add(x, 1);
    }
    return counts;
}

TEST(ValidateCountsTest, AcceptsOutcomesInsideTheRegister)
{
    auto narrow = validateCounts(registerJob(5, 3),
                                 outcomes({{}, {4}, {0, 1, 2, 3, 4}}));
    ASSERT_TRUE(narrow.ok());
    EXPECT_EQ(narrow.value().map(),
              outcomes({{}, {4}, {0, 1, 2, 3, 4}}).map());

    EXPECT_TRUE(validateCounts(registerJob(64, 2), outcomes({{63}, {0, 63}}))
                    .ok());
    // A full-width register has no bit beyond it.
    EXPECT_TRUE(
        validateCounts(registerJob(kMaxBits, 2), outcomes({{127}, {0, 64}}))
            .ok());
}

TEST(ValidateCountsTest, RejectsBitsBeyondTheRegister)
{
    auto first = validateCounts(registerJob(5, 2), outcomes({{0}, {5}}));
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.error().code, ErrorCode::CorruptedCounts);
    EXPECT_EQ(first.error().message,
              "segment 4: outcome sets bit 5 beyond the 5-bit register");

    auto top = validateCounts(registerJob(70, 1), outcomes({{1, 127}}));
    ASSERT_FALSE(top.ok());
    EXPECT_EQ(top.error().code, ErrorCode::CorruptedCounts);
    EXPECT_EQ(top.error().message,
              "segment 4: outcome sets bit 127 beyond the 70-bit register");
}

TEST(ValidateCountsTest, NamesTheLowestOutOfRangeBit)
{
    // Two offending bits in one outcome, in the same or different words.
    auto same_word = validateCounts(registerJob(5, 1), outcomes({{9, 40}}));
    ASSERT_FALSE(same_word.ok());
    EXPECT_EQ(same_word.error().message,
              "segment 4: outcome sets bit 9 beyond the 5-bit register");

    auto split = validateCounts(registerJob(60, 1), outcomes({{64, 127}}));
    ASSERT_FALSE(split.ok());
    EXPECT_EQ(split.error().message,
              "segment 4: outcome sets bit 64 beyond the 60-bit register");
}

TEST(ValidateCountsTest, ShortHistogramIsShotLoss)
{
    qsim::Counts counts;
    counts.add(BitVec::fromIndex(3), 99);
    auto short_hist = validateCounts(registerJob(2, 100), counts);
    ASSERT_FALSE(short_hist.ok());
    EXPECT_EQ(short_hist.error().code, ErrorCode::ShotLoss);
    EXPECT_EQ(short_hist.error().message,
              "segment 4: histogram has 99 of 100 shots");
}

// ----------------------------------------------------------------- Faults

TEST(FaultInjectorTest, SeededStreamIsDeterministic)
{
    auto run_once = [](uint64_t seed) {
        SimulatorBackend inner;
        FaultProfile profile;
        profile.rate = 0.5;
        profile.seed = seed;
        VirtualClock clock;
        FaultInjector injector(inner, profile, &clock);
        std::string outcome;
        for (int i = 0; i < 40; ++i) {
            auto r = injector.run(makeJob(32, 3, 1000 + i));
            outcome += r.ok() ? 'k'
                              : static_cast<char>(
                                    'a' + static_cast<int>(r.error().code));
        }
        return std::make_pair(outcome, injector.stats().total());
    };
    auto [seq_a, faults_a] = run_once(0xFA17);
    auto [seq_b, faults_b] = run_once(0xFA17);
    EXPECT_EQ(seq_a, seq_b);
    EXPECT_EQ(faults_a, faults_b);
    EXPECT_GT(faults_a, 0u); // rate 0.5 over 40 calls must fire
    auto [seq_c, faults_c] = run_once(0xBEEF);
    EXPECT_NE(seq_a, seq_c); // different stream
    (void)faults_c;
}

TEST(FaultInjectorTest, RateZeroIsTransparent)
{
    SimulatorBackend inner;
    FaultInjector injector(inner, FaultProfile{}); // rate 0
    for (int i = 0; i < 20; ++i) {
        auto r = injector.run(makeJob(32, 3, i));
        ASSERT_TRUE(r.ok());
    }
    EXPECT_EQ(injector.stats().total(), 0u);
    EXPECT_EQ(injector.stats().calls, 20u);
}

TEST(FaultInjectorTest, TimeoutChargesTheClock)
{
    SimulatorBackend inner;
    FaultProfile profile;
    profile.rate = 1.0;
    // Only timeouts in the mix.
    profile.outageWeight = 0.0;
    profile.shotLossWeight = 0.0;
    profile.corruptionWeight = 0.0;
    profile.nanWeight = 0.0;
    profile.timeoutSeconds = 0.5;
    VirtualClock clock;
    FaultInjector injector(inner, profile, &clock);
    auto r = injector.run(makeJob(16, 2, 9));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::Timeout);
    EXPECT_DOUBLE_EQ(clock.now(), 0.5);
}

// --------------------------------------------------------------- Executor

TEST(ResilientExecutorTest, CleanRunHasNoRetries)
{
    ResilientExecutor ex;
    auto r = ex.run(makeJob(128, 3, 11));
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(ex.stats().executions, 1u);
    EXPECT_EQ(ex.stats().attempts, 1u);
    EXPECT_EQ(ex.stats().retries, 0u);
    EXPECT_EQ(ex.stats().failures, 0u);
    EXPECT_EQ(ex.faultStats(), nullptr); // no injector at rate 0
}

TEST(ResilientExecutorTest, RetriedResultIsBitIdenticalToCleanRun)
{
    ResilientExecutor clean;
    auto want = clean.run(makeJob(256, 4, 12345));
    ASSERT_TRUE(want.ok());

    ResilienceOptions opts;
    opts.faults.rate = 0.6;
    opts.retry.maxAttempts = 64; // enough to outlast the fault stream
    opts.breaker.failureThreshold = 64;
    ResilientExecutor flaky(opts);
    uint64_t retries = 0;
    for (int i = 0; i < 10; ++i) {
        auto got = flaky.run(makeJob(256, 4, 12345));
        ASSERT_TRUE(got.ok());
        // Every retry attempt reseeds Rng(job.rngSeed), so the
        // eventually-successful attempt reproduces the clean histogram.
        EXPECT_EQ(got.value().map(), want.value().map());
    }
    retries = flaky.stats().retries;
    EXPECT_GT(retries, 0u); // rate 0.6 over 10 jobs must retry
    EXPECT_GT(flaky.stats().backoffSeconds, 0.0);
    EXPECT_GT(flaky.elapsedSeconds(), 0.0);
}

TEST(ResilientExecutorTest, ExhaustedRetriesReturnStructuredError)
{
    ResilienceOptions opts;
    opts.faults.rate = 1.0; // every attempt fails
    opts.retry.maxAttempts = 3;
    opts.breaker.failureThreshold = 100;
    ResilientExecutor ex(opts);
    auto r = ex.run(makeJob(32, 3, 1));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::RetriesExhausted);
    EXPECT_EQ(r.error().attempts, 3);
    EXPECT_EQ(ex.stats().failures, 1u);
    EXPECT_EQ(ex.stats().attempts, 3u);
}

TEST(ResilientExecutorTest, BreakerFailsFastInsideTheRetryLoop)
{
    ResilienceOptions opts;
    opts.faults.rate = 1.0;
    opts.retry.maxAttempts = 10;
    opts.breaker.failureThreshold = 4;
    opts.breaker.cooldownSeconds = 1e9; // never recovers in-test
    ResilientExecutor ex(opts);
    auto r = ex.run(makeJob(32, 3, 1));
    ASSERT_FALSE(r.ok());
    // The loop stops at the breaker, not the full retry budget.
    EXPECT_EQ(ex.stats().attempts, 4u);
    EXPECT_EQ(ex.stats().breakerTrips, 1u);
    auto second = ex.run(makeJob(32, 3, 2));
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.error().code, ErrorCode::BreakerOpen);
    EXPECT_EQ(ex.stats().attempts, 4u); // rejected without an attempt
}

TEST(ResilientExecutorTest, DegradationLadderStepsInOrder)
{
    ResilienceOptions opts;
    opts.shotsDemotionFactor = 0.5;
    ResilientExecutor ex(opts);
    EXPECT_EQ(ex.level(), DegradationLevel::Full);
    EXPECT_EQ(ex.degradedShots(1000), 1000u);
    EXPECT_FALSE(ex.purificationDisabled());
    ASSERT_TRUE(ex.canDemote());

    EXPECT_EQ(ex.demote("test"), DegradationLevel::ReducedShots);
    EXPECT_EQ(ex.degradedShots(1000), 500u);
    EXPECT_FALSE(ex.purificationDisabled());

    EXPECT_EQ(ex.demote("test"), DegradationLevel::NoPurification);
    EXPECT_TRUE(ex.purificationDisabled());

    EXPECT_EQ(ex.demote("test"), DegradationLevel::CleanFallback);
    EXPECT_FALSE(ex.canDemote()); // end of the ladder
    EXPECT_EQ(ex.degradedShots(1000), 1000u); // clean path: full shots
    EXPECT_EQ(ex.stats().demotions, 3);
}

TEST(ResilientExecutorTest, CleanFallbackBypassesFaultyBackend)
{
    ResilienceOptions opts;
    opts.faults.rate = 1.0; // the decorated chain always fails...
    opts.retry.maxAttempts = 2;
    ResilientExecutor ex(opts);
    while (ex.canDemote())
        ex.demote("test");
    auto r = ex.run(makeJob(64, 3, 21)); // ...but the fallback succeeds
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().total(), 64u);
    EXPECT_EQ(ex.stats().fallbacks, 1u);
}

TEST(ResilientExecutorTest, DisabledLadderCannotDemote)
{
    ResilienceOptions opts;
    opts.degradation = false;
    ResilientExecutor ex(opts);
    EXPECT_FALSE(ex.canDemote());
}

// ------------------------------------------------------------- Checkpoint

SegmentCheckpoint
sampleCheckpoint(bool shot_based)
{
    SegmentCheckpoint cp;
    cp.problemId = "F1";
    cp.shotBased = shot_based;
    cp.nextSegment = 2;
    cp.numBits = 6;
    cp.times = {0.25, 1.0 / 3.0, 0.875};
    cp.prePurifyFeasibleFraction = 0.9375;
    if (shot_based) {
        Rng rng(42);
        std::ostringstream os;
        os << rng.engine();
        cp.rngState = os.str();
        cp.shotEntries = {{BitVec::fromString("010100"), 700},
                          {BitVec::fromString("110001"), 324}};
    } else {
        cp.probEntries = {{BitVec::fromString("010100"), 0.7},
                          {BitVec::fromString("110001"), 0.3}};
    }
    return cp;
}

TEST(CheckpointTest, ShotRoundTripIsExact)
{
    SegmentCheckpoint cp = sampleCheckpoint(true);
    auto parsed = parseCheckpoint(writeCheckpoint(cp));
    ASSERT_TRUE(parsed.ok());
    const SegmentCheckpoint &got = parsed.value();
    EXPECT_EQ(got.problemId, cp.problemId);
    EXPECT_TRUE(got.shotBased);
    EXPECT_EQ(got.nextSegment, cp.nextSegment);
    EXPECT_EQ(got.numBits, cp.numBits);
    ASSERT_EQ(got.times.size(), cp.times.size());
    for (size_t i = 0; i < cp.times.size(); ++i)
        EXPECT_DOUBLE_EQ(got.times[i], cp.times[i]); // max_digits10
    EXPECT_DOUBLE_EQ(got.prePurifyFeasibleFraction,
                     cp.prePurifyFeasibleFraction);
    EXPECT_EQ(got.shotEntries, cp.shotEntries);
    EXPECT_EQ(got.rngState, cp.rngState);

    // The restored engine must continue the stream bit-exactly.
    Rng original(42), restored;
    std::istringstream is(got.rngState);
    is >> restored.engine();
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(original.engine()(), restored.engine()());
}

TEST(CheckpointTest, ProbRoundTripIsExact)
{
    SegmentCheckpoint cp = sampleCheckpoint(false);
    auto parsed = parseCheckpoint(writeCheckpoint(cp));
    ASSERT_TRUE(parsed.ok());
    EXPECT_FALSE(parsed.value().shotBased);
    ASSERT_EQ(parsed.value().probEntries.size(), cp.probEntries.size());
    for (size_t i = 0; i < cp.probEntries.size(); ++i) {
        EXPECT_EQ(parsed.value().probEntries[i].first,
                  cp.probEntries[i].first);
        EXPECT_DOUBLE_EQ(parsed.value().probEntries[i].second,
                         cp.probEntries[i].second);
    }
}

TEST(CheckpointTest, CorruptInputsAreRecoverableErrors)
{
    const std::string good = writeCheckpoint(sampleCheckpoint(true));

    auto expect_corrupt = [](const std::string &text) {
        auto r = parseCheckpoint(text);
        ASSERT_FALSE(r.ok()) << text;
        EXPECT_EQ(r.error().code, ErrorCode::CheckpointCorrupt);
    };
    expect_corrupt("");
    expect_corrupt("not-a-checkpoint\n");
    // Truncation: drop the trailing "end\n".
    expect_corrupt(good.substr(0, good.size() - 4));
    expect_corrupt("rasengan-checkpoint v1\nbits 6\nkind shots\n"
                   "entry 01 5\nend\n"); // width mismatch
    expect_corrupt("rasengan-checkpoint v1\nbits 2\nkind shots\n"
                   "entry 01 0\nend\n"); // zero shots
    expect_corrupt("rasengan-checkpoint v1\nbits 2\nkind probs\n"
                   "entry 01 nope\nend\n");
    expect_corrupt("rasengan-checkpoint v1\nwat 3\nend\n");
    expect_corrupt("rasengan-checkpoint v1\nkind shots\nbits 99999\n"
                   "entry 01 5\nend\n"); // bits out of range
    expect_corrupt("rasengan-checkpoint v1\nkind shots\nbits 2\n"
                   "end\n"); // no distribution entries

    // The rng line must be 312 unsigned words and a position <= 312.
    const SegmentCheckpoint shot = sampleCheckpoint(true);
    auto with_rng = [&](const std::string &rng) {
        SegmentCheckpoint cp = shot;
        cp.rngState = rng;
        return writeCheckpoint(cp);
    };
    const std::string words = shot.rngState.substr(
        0, shot.rngState.find_last_of(' ') + 1);
    ASSERT_TRUE(parseCheckpoint(with_rng(words + "312")).ok());
    expect_corrupt(with_rng("1 2 3"));
    expect_corrupt(with_rng(words + "313"));            // past the end
    expect_corrupt(with_rng(words));                    // no position
    expect_corrupt(with_rng(words + "5 7"));            // trailing word
    expect_corrupt(with_rng(words + "-5"));             // signed
    expect_corrupt(with_rng(words + "5x"));             // not a number
    expect_corrupt(with_rng("1 " + words + "5"));       // 313 words
}

TEST(CheckpointTest, ResumeRejectsAMalformedRngLine)
{
    // A K1 checkpoint of a fault-injected sampled solve whose rng line
    // is rewritten to "rng 1 2 3" must be reported corrupt; the next
    // run retrains instead of resuming from a half-loaded engine.
    const std::string path = ::testing::TempDir() + "rasengan_cp_rng.txt";
    std::remove(path.c_str());
    core::RasenganOptions opts;
    opts.maxIterations = 20;
    opts.execution = core::RasenganOptions::Execution::SampledSparse;
    opts.resilience.faults.rate = 0.1;
    opts.checkpointPath = path;
    const problems::Problem k1 = problems::makeBenchmark("K1");
    const core::RasenganResult want = core::RasenganSolver(k1, opts).run();
    ASSERT_FALSE(want.failed);

    auto saved = loadCheckpoint(path);
    ASSERT_TRUE(saved.ok());
    ASSERT_FALSE(saved.value().rngState.empty());
    std::string text = writeCheckpoint(saved.value());
    const size_t at = text.find("\nrng ") + 1;
    text.replace(at, text.find('\n', at) - at, "rng 1 2 3");
    auto parsed = parseCheckpoint(text);
    ASSERT_FALSE(parsed.ok());
    EXPECT_EQ(parsed.error().code, ErrorCode::CheckpointCorrupt);
    {
        std::ofstream out(path, std::ios::trunc);
        out << text;
    }

    const core::RasenganResult got = core::RasenganSolver(k1, opts).run();
    EXPECT_FALSE(got.resumed);
    EXPECT_EQ(got.failed, want.failed);
    EXPECT_EQ(got.solution, want.solution);
    EXPECT_EQ(got.expectedObjective, want.expectedObjective);
    EXPECT_EQ(got.training.x, want.training.x);
    std::remove(path.c_str());
}

TEST(CheckpointTest, SaveAndLoadThroughFile)
{
    SegmentCheckpoint cp = sampleCheckpoint(true);
    const std::string path =
        ::testing::TempDir() + "rasengan_cp_test.txt";
    auto saved = saveCheckpoint(cp, path);
    ASSERT_TRUE(saved.ok());
    auto loaded = loadCheckpoint(path);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().shotEntries, cp.shotEntries);
    EXPECT_EQ(loaded.value().rngState, cp.rngState);
    std::remove(path.c_str());

    auto missing = loadCheckpoint(path + ".does-not-exist");
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.error().code, ErrorCode::CheckpointCorrupt);
}

// ---------------------------------------------- Cancellation / deadlines

TEST(CancelTokenTest, ArmDisarmCancelAndExpiry)
{
    CancelToken token;
    EXPECT_FALSE(token.stopRequested());
    EXPECT_FALSE(token.cancelled());
    EXPECT_FALSE(token.deadlineExpired());

    // A generous deadline is armed but not yet expired.
    token.setDeadlineSeconds(3600.0);
    EXPECT_FALSE(token.stopRequested());

    // Non-positive budgets disarm.
    token.setDeadlineSeconds(0.0);
    EXPECT_FALSE(token.deadlineExpired());

    // A token already in the past trips immediately.
    token.setDeadlineSeconds(1e-9);
    while (!token.deadlineExpired()) {
    }
    EXPECT_TRUE(token.stopRequested());
    EXPECT_FALSE(token.cancelled());

    token.cancel();
    EXPECT_TRUE(token.cancelled());
}

TEST(ResilientExecutorTest, CancelledTokenFailsBeforeAnyAttempt)
{
    CancelToken token;
    token.cancel();
    ResilienceOptions opts;
    opts.cancel = &token;
    ResilientExecutor ex(opts);
    auto r = ex.run(makeJob(32, 3, 1));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::Cancelled);
    EXPECT_FALSE(r.error().retryable());
    EXPECT_EQ(r.error().attempts, 0);
    EXPECT_EQ(ex.stats().attempts, 0u); // stopped before the backend
    EXPECT_EQ(ex.stats().deadlineHits, 1u);
    EXPECT_EQ(ex.stats().failures, 1u);
    EXPECT_STREQ(errorCodeName(ErrorCode::Cancelled), "cancelled");
}

TEST(ResilientExecutorTest, ExpiredDeadlineIsTypedAndNotRetryable)
{
    CancelToken token;
    token.setDeadlineSeconds(1e-9);
    while (!token.deadlineExpired()) {
    }
    ResilienceOptions opts;
    opts.cancel = &token;
    // Plenty of retry budget: the deadline must cut through it.
    opts.retry.maxAttempts = 50;
    ResilientExecutor ex(opts);
    auto r = ex.run(makeJob(32, 3, 1));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::DeadlineExceeded);
    EXPECT_FALSE(r.error().retryable());
    EXPECT_EQ(ex.stats().attempts, 0u);
    EXPECT_EQ(ex.stats().deadlineHits, 1u);
    EXPECT_STREQ(errorCodeName(ErrorCode::DeadlineExceeded), "deadline");
}

TEST(ResilientExecutorTest, DeadlineStopsARetryLoopMidway)
{
    // Every attempt fails; the token trips after the first attempt, so
    // the retry loop must exit with the deadline error instead of
    // burning the remaining budget.
    CancelToken token;
    ResilienceOptions opts;
    opts.cancel = &token;
    opts.faults.rate = 1.0;
    opts.retry.maxAttempts = 1; // first call: plain failure
    opts.breaker.failureThreshold = 100;
    ResilientExecutor ex(opts);
    auto first = ex.run(makeJob(32, 3, 1));
    ASSERT_FALSE(first.ok());
    EXPECT_EQ(first.error().code, ErrorCode::RetriesExhausted);

    token.cancel();
    auto second = ex.run(makeJob(32, 3, 1));
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.error().code, ErrorCode::Cancelled);
    EXPECT_EQ(ex.stats().deadlineHits, 1u);
}

TEST(ResilientExecutorTest, CleanFallbackHonoursTheToken)
{
    CancelToken token;
    token.cancel();
    ResilienceOptions opts;
    opts.cancel = &token;
    ResilientExecutor ex(opts);
    while (ex.canDemote())
        ex.demote("test");
    ASSERT_EQ(ex.level(), DegradationLevel::CleanFallback);
    auto r = ex.run(makeJob(32, 3, 1));
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.error().code, ErrorCode::Cancelled);
}

} // namespace
} // namespace rasengan::exec

