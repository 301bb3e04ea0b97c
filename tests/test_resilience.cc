/**
 * @file
 * Integration tests for resilient execution at the solver level: the
 * fault matrix (benchmarks x fault rates must produce bit-identical
 * results to the fault-free run), the graceful-degradation ladder under
 * a hard backend outage, and checkpoint -> kill -> resume.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "core/rasengan.h"
#include "problems/suite.h"

namespace rasengan::core {
namespace {

RasenganOptions
resilientOptions(double fault_rate)
{
    RasenganOptions opts;
    opts.maxIterations = 60;
    opts.shotsPerSegment = 512;
    opts.execution = RasenganOptions::Execution::SampledSparse;
    opts.resilience.faults.rate = fault_rate;
    // Generous retry budget: determinism requires that every faulty
    // execution eventually lands a clean attempt (no demotions), and
    // P(16 consecutive faults) at rate 0.3 is ~4e-9.
    opts.resilience.retry.maxAttempts = 16;
    opts.resilience.breaker.failureThreshold = 16;
    return opts;
}

std::vector<std::pair<BitVec, double>>
sorted(std::vector<std::pair<BitVec, double>> entries)
{
    std::sort(entries.begin(), entries.end());
    return entries;
}

// ------------------------------------------------------------ Fault matrix

class FaultMatrix
    : public ::testing::TestWithParam<std::tuple<std::string, double>>
{
};

TEST_P(FaultMatrix, RecoveredRunIsBitIdenticalToFaultFree)
{
    const auto &[benchmark, rate] = GetParam();
    problems::Problem p = problems::makeBenchmark(benchmark);

    RasenganSolver clean_solver(p, resilientOptions(0.0));
    RasenganResult want = clean_solver.run();
    ASSERT_FALSE(want.failed);

    RasenganSolver faulty_solver(p, resilientOptions(rate));
    RasenganResult got = faulty_solver.run();
    ASSERT_FALSE(got.failed);

    // Retries reseed from the per-segment job seed, so the recovered
    // solve must match the fault-free solve exactly -- not approximately.
    EXPECT_EQ(got.solution, want.solution);
    EXPECT_EQ(got.objectiveValue, want.objectiveValue);
    EXPECT_EQ(got.expectedObjective, want.expectedObjective);
    EXPECT_EQ(got.inConstraintsRate, want.inConstraintsRate);
    EXPECT_EQ(sorted(got.finalDistribution.entries),
              sorted(want.finalDistribution.entries));

    EXPECT_EQ(want.execStats.retries, 0u);
    EXPECT_EQ(got.degradation, exec::DegradationLevel::Full);
    EXPECT_EQ(got.execStats.failures, 0u);
    if (rate > 0.0) {
        // Over a full training run the fault stream must have fired.
        EXPECT_GT(got.execStats.retries, 0u) << benchmark << " " << rate;
        // Retried attempts cost modeled wall-clock time.
        EXPECT_GT(got.quantumSeconds, want.quantumSeconds);
    }
}

INSTANTIATE_TEST_SUITE_P(
    BenchmarksTimesRates, FaultMatrix,
    ::testing::Combine(::testing::Values("F1", "K1", "S1"),
                       ::testing::Values(0.0, 0.1, 0.3)));

// ------------------------------------------------------------- Degradation

TEST(Degradation, HardOutageFallsBackToCleanSimulator)
{
    problems::Problem p = problems::makeBenchmark("F1");
    RasenganOptions opts;
    opts.maxIterations = 40;
    opts.shotsPerSegment = 256;
    opts.execution = RasenganOptions::Execution::SampledSparse;
    opts.resilience.faults.rate = 1.0; // every decorated attempt fails
    opts.resilience.retry.maxAttempts = 2;
    opts.resilience.breaker.failureThreshold = 64;
    RasenganSolver solver(p, opts);
    RasenganResult res = solver.run();

    // The ladder must ride out the outage, not abort the solve.
    ASSERT_FALSE(res.failed);
    EXPECT_TRUE(p.isFeasible(res.solution));
    EXPECT_EQ(res.degradation, exec::DegradationLevel::CleanFallback);
    EXPECT_EQ(res.execStats.demotions, 3);
    EXPECT_GT(res.execStats.failures, 0u);
    EXPECT_GT(res.execStats.fallbacks, 0u);
}

// ------------------------------------------------------- Checkpoint/resume

RasenganOptions
segmentedOptions()
{
    RasenganOptions opts;
    opts.maxIterations = 50;
    opts.shotsPerSegment = 512;
    opts.transitionsPerSegment = 1; // force a multi-segment pipeline
    opts.execution = RasenganOptions::Execution::SampledSparse;
    return opts;
}

TEST(CheckpointResume, KilledExecutionResumesBitExactly)
{
    problems::Problem p = problems::makeBenchmark("F1");
    RasenganSolver solver(p, segmentedOptions());
    ASSERT_GE(static_cast<int>(solver.segments().size()), 2);
    std::vector<double> times(solver.numParams(), 0.6);

    // Uninterrupted reference run.
    Rng ref_rng(123);
    RasenganDistribution want = solver.execute(times, ref_rng);
    ASSERT_FALSE(want.failed);

    // Killed run: checkpoint after every segment, stop after segment 0.
    std::vector<exec::SegmentCheckpoint> saved;
    ExecHooks kill;
    kill.onSegmentDone = [&](const exec::SegmentCheckpoint &cp) {
        saved.push_back(cp);
    };
    kill.stopAfterSegment = 0;
    Rng killed_rng(123);
    RasenganDistribution partial = solver.execute(times, killed_rng, kill);
    EXPECT_TRUE(partial.aborted);
    ASSERT_EQ(saved.size(), 1u);
    EXPECT_EQ(saved[0].nextSegment, 1);
    EXPECT_FALSE(saved[0].rngState.empty());

    // Round-trip the snapshot through its text format, as a real
    // kill/restart would, then resume with a fresh (wrong-seed) rng:
    // the restored engine state must make the seed irrelevant.
    auto reparsed =
        exec::parseCheckpoint(exec::writeCheckpoint(saved[0]));
    ASSERT_TRUE(reparsed.ok());
    ExecHooks resume;
    resume.resumeFrom = &reparsed.value();
    Rng resume_rng(999);
    RasenganDistribution got = solver.execute(times, resume_rng, resume);
    ASSERT_FALSE(got.failed);
    EXPECT_FALSE(got.aborted);
    EXPECT_EQ(sorted(got.entries), sorted(want.entries));
}

TEST(CheckpointResume, ExactKilledExecutionResumesBitExactly)
{
    // Exact forwarding sums each segment's output in the order of the
    // previous segment's map, so a resumed run must rebuild that map
    // in the order it was built, or later sums round differently.
    // Every suite benchmark with three or more segments, killed early,
    // midway and before the last segment, with purification on and off.
    int resumed = 0;
    for (const std::string &id : problems::benchmarkIds()) {
        problems::Problem p = problems::makeBenchmark(id);
        for (bool purify : {true, false}) {
            RasenganOptions opts = segmentedOptions();
            opts.execution = RasenganOptions::Execution::ExactSparse;
            opts.purify = purify;
            RasenganSolver solver(p, opts);
            const int segments = static_cast<int>(solver.segments().size());
            if (segments < 3)
                continue;
            std::vector<double> times(solver.numParams());
            for (size_t k = 0; k < times.size(); ++k)
                times[k] = 0.3 + 0.17 * static_cast<double>(k % 5);
            Rng rng(1);
            const RasenganDistribution want = solver.execute(times, rng);
            ASSERT_FALSE(want.failed) << id;

            for (int stop : {0, segments / 2, segments - 2}) {
                const std::string where = id + " purify " +
                                          std::to_string(purify) +
                                          " stop " + std::to_string(stop);
                std::vector<exec::SegmentCheckpoint> saved;
                ExecHooks kill;
                kill.onSegmentDone = [&](const exec::SegmentCheckpoint &cp) {
                    saved.push_back(cp);
                };
                kill.stopAfterSegment = stop;
                ASSERT_TRUE(solver.execute(times, rng, kill).aborted)
                    << where;
                ASSERT_EQ(saved.back().nextSegment, stop + 1) << where;

                auto reparsed = exec::parseCheckpoint(
                    exec::writeCheckpoint(saved.back()));
                ASSERT_TRUE(reparsed.ok()) << where;
                ExecHooks resume;
                resume.resumeFrom = &reparsed.value();
                const RasenganDistribution got =
                    solver.execute(times, rng, resume);
                ASSERT_FALSE(got.failed) << where;
                ASSERT_EQ(got.entries.size(), want.entries.size()) << where;
                for (size_t i = 0; i < want.entries.size(); ++i) {
                    ASSERT_EQ(got.entries[i].first, want.entries[i].first)
                        << where;
                    ASSERT_EQ(std::memcmp(&got.entries[i].second,
                                          &want.entries[i].second,
                                          sizeof(double)),
                              0)
                        << where << " entry " << i;
                }
                ++resumed;
            }
        }
    }
    EXPECT_GT(resumed, 20);
}

TEST(CheckpointResume, RunResumesFromCheckpointFile)
{
    problems::Problem p = problems::makeBenchmark("F1");
    const std::string path =
        ::testing::TempDir() + "rasengan_resume_test.txt";
    std::remove(path.c_str());

    RasenganOptions opts = segmentedOptions();
    opts.checkpointPath = path;

    RasenganSolver first(p, opts);
    RasenganResult want = first.run();
    ASSERT_FALSE(want.failed);
    EXPECT_FALSE(want.resumed);

    // A second run over the same path must skip training and execution
    // and reproduce the result from the completed-run snapshot.
    RasenganSolver second(p, opts);
    RasenganResult got = second.run();
    ASSERT_FALSE(got.failed);
    EXPECT_TRUE(got.resumed);
    EXPECT_EQ(got.solution, want.solution);
    EXPECT_EQ(got.expectedObjective, want.expectedObjective);
    EXPECT_EQ(got.inConstraintsRate, want.inConstraintsRate);
    EXPECT_EQ(sorted(got.finalDistribution.entries),
              sorted(want.finalDistribution.entries));
    EXPECT_EQ(got.training.x, want.training.x);
    EXPECT_EQ(got.execStats.executions, 0u); // nothing re-executed

    std::remove(path.c_str());
}

TEST(CheckpointResume, CancelledTrainingNeverPoisonsTheCheckpoint)
{
    // A cancel token that trips during training makes every later
    // objective evaluation fail, so training.x is garbage; persisting
    // it would make the NEXT run resume from the wrong times and
    // silently diverge from an uninterrupted solve.  A cancelled run
    // must leave no checkpoint behind.
    const std::string path =
        ::testing::TempDir() + "rasengan_cancelled_cp_test.txt";
    std::remove(path.c_str());

    problems::Problem p = problems::makeBenchmark("F1");
    RasenganResult want = RasenganSolver(p, segmentedOptions()).run();
    ASSERT_FALSE(want.failed);

    exec::CancelToken token;
    token.cancel(); // tripped before (hence throughout) training
    RasenganOptions opts = segmentedOptions();
    opts.checkpointPath = path;
    opts.resilience.cancel = &token;
    RasenganResult killed = RasenganSolver(p, opts).run();
    EXPECT_TRUE(killed.failed);

    // The re-run finds no snapshot, retrains cold, and reproduces the
    // uninterrupted result exactly.
    RasenganOptions retry = segmentedOptions();
    retry.checkpointPath = path;
    RasenganResult got = RasenganSolver(p, retry).run();
    ASSERT_FALSE(got.failed);
    EXPECT_FALSE(got.resumed);
    EXPECT_EQ(got.solution, want.solution);
    EXPECT_EQ(got.expectedObjective, want.expectedObjective);
    EXPECT_EQ(sorted(got.finalDistribution.entries),
              sorted(want.finalDistribution.entries));
    std::remove(path.c_str());
}

TEST(CheckpointResume, MismatchedCheckpointIsIgnored)
{
    const std::string path =
        ::testing::TempDir() + "rasengan_mismatch_test.txt";

    // Checkpoint from K1 must not poison an F1 solve.
    RasenganOptions opts = segmentedOptions();
    opts.checkpointPath = path;
    RasenganSolver other(problems::makeBenchmark("K1"), opts);
    ASSERT_FALSE(other.run().failed);

    RasenganSolver fresh(problems::makeBenchmark("F1"),
                         segmentedOptions());
    RasenganResult want = fresh.run();

    RasenganSolver solver(problems::makeBenchmark("F1"), opts);
    RasenganResult got = solver.run();
    ASSERT_FALSE(got.failed);
    EXPECT_FALSE(got.resumed); // stale snapshot rejected, trained anew
    EXPECT_EQ(got.solution, want.solution);
    EXPECT_EQ(got.expectedObjective, want.expectedObjective);

    // Corrupted checkpoint files are ignored, never fatal.
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("garbage\n", f);
        std::fclose(f);
    }
    RasenganSolver after_corrupt(problems::makeBenchmark("F1"), opts);
    RasenganResult res = after_corrupt.run();
    ASSERT_FALSE(res.failed);
    EXPECT_FALSE(res.resumed);
    EXPECT_EQ(res.solution, want.solution);

    std::remove(path.c_str());
}

} // namespace
} // namespace rasengan::core
