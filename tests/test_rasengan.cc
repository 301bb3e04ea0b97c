/**
 * @file
 * Integration tests for the end-to-end Rasengan solver: segmented
 * execution, purification, training quality on suite benchmarks, the
 * noisy backends, and the ablation switches.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <sstream>

#include "core/analysis.h"
#include "core/basis.h"
#include "core/rasengan.h"
#include "problems/io.h"
#include "problems/metrics.h"
#include "problems/suite.h"

namespace rasengan::core {
namespace {

RasenganOptions
fastOptions()
{
    RasenganOptions opts;
    opts.maxIterations = 120;
    opts.shotsPerSegment = 512;
    return opts;
}

TEST(Rasengan, PipelineArtifactsAreConsistent)
{
    RasenganSolver solver(problems::makeBenchmark("F1"), fastOptions());
    EXPECT_FALSE(solver.transitions().empty());
    EXPECT_EQ(solver.numParams(),
              static_cast<int>(solver.chain().steps.size()));
    int covered = 0;
    for (const Segment &seg : solver.segments())
        covered += seg.stepCount;
    EXPECT_EQ(covered, solver.numParams());
}

/**
 * Facility-location text in the flp-cold request layout: m open bits,
 * d*m assignment bits, d*m slack bits; facility 0 serves every demand.
 * The costs do not shape the pipeline; they only keep the text valid.
 */
std::string
flpText(int m, int d)
{
    const int n = m + 2 * d * m;
    auto assign = [m](int i, int j) { return m + i * m + j; };
    auto slack = [m, d](int i, int j) { return m + d * m + i * m + j; };
    std::ostringstream text;
    text << "problem FLP" << n << " FLP\nvars " << n << "\n";
    for (int v = 0; v < m + d * m; ++v)
        text << "objective linear " << v << " " << 1 + (v * 7) % 9 << "\n";
    for (int i = 0; i < d; ++i) {
        text << "constraint 1";
        for (int j = 0; j < m; ++j)
            text << " " << assign(i, j) << ":1";
        text << "\n";
    }
    for (int i = 0; i < d; ++i)
        for (int j = 0; j < m; ++j)
            text << "constraint 0 " << j << ":-1 " << assign(i, j) << ":1 "
                 << slack(i, j) << ":1\n";
    std::string feasible(n, '0');
    feasible[0] = '1';
    for (int i = 0; i < d; ++i)
        feasible[assign(i, 0)] = '1';
    text << "feasible " << feasible << "\n";
    return text.str();
}

/** FNV-1a over every field of the transition set, chain and segments. */
uint64_t
artifactDigest(const PipelineArtifacts &artifacts)
{
    uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](uint64_t v) {
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (v >> (8 * byte)) & 0xff;
            h *= 0x100000001b3ull;
        }
    };
    auto mixAll = [&mix](const auto &values) {
        mix(values.size());
        for (auto v : values)
            mix(static_cast<uint64_t>(v));
    };
    mix(artifacts.transitions.size());
    for (const TransitionHamiltonian &tau : artifacts.transitions)
        mixAll(tau.vector());
    const Chain &chain = artifacts.chain;
    mixAll(chain.steps);
    mixAll(chain.coverage);
    mixAll(chain.unprunedSteps);
    mixAll(chain.unprunedCoverage);
    mix(chain.reachableCount);
    mix(chain.capped ? 1 : 0);
    mix(artifacts.segments.size());
    for (const Segment &seg : artifacts.segments) {
        mix(static_cast<uint64_t>(seg.firstStep));
        mix(static_cast<uint64_t>(seg.stepCount));
    }
    return h;
}

TEST(Rasengan, FlpPipelineArtifactsMatchGoldenDigest)
{
    // Pinned digests of the enumerable 27- and 44-variable FLP
    // pipelines (132 and 2192 feasible states, both augmented): a change
    // to the basis, augmentation, chain sweep or segmentation that moves
    // any artifact byte fails here.
    struct Golden
    {
        int facilities, demands;
        uint64_t digest;
    };
    for (const Golden &g : {Golden{3, 4, 0xc765e3fbcafdd2acull},
                            Golden{4, 5, 0x17a557485746e6d9ull}}) {
        auto parsed = problems::parseProblem(flpText(g.facilities, g.demands));
        ASSERT_TRUE(parsed.problem.has_value()) << parsed.error;
        ASSERT_TRUE(parsed.problem->enumerationEnabled());
        PipelineArtifacts artifacts =
            buildPipelineArtifacts(*parsed.problem, RasenganOptions{});
        EXPECT_GT(artifacts.transitions.size(),
                  homogeneousBasis(*parsed.problem).size());
        EXPECT_EQ(artifacts.chain.reachableCount,
                  parsed.problem->feasibleCount());
        EXPECT_EQ(artifactDigest(artifacts), g.digest)
            << parsed.problem->id() << " digest 0x" << std::hex
            << artifactDigest(artifacts);
    }
}

TEST(Rasengan, ExecuteStaysInFeasibleSpace)
{
    problems::Problem p = problems::makeBenchmark("J1");
    RasenganSolver solver(p, fastOptions());
    std::vector<double> times(solver.numParams(), 0.7);
    Rng rng(3);
    RasenganDistribution dist = solver.execute(times, rng);
    ASSERT_FALSE(dist.failed);
    double total = 0.0;
    for (const auto &[x, prob] : dist.entries) {
        EXPECT_TRUE(p.isFeasible(x));
        total += prob;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(Rasengan, ExactExecutionIsDeterministic)
{
    problems::Problem p = problems::makeBenchmark("K1");
    RasenganSolver solver(p, fastOptions());
    std::vector<double> times(solver.numParams(), 0.5);
    Rng rng_a(1), rng_b(2); // exact mode must ignore the rng
    auto a = solver.execute(times, rng_a);
    auto b = solver.execute(times, rng_b);
    ASSERT_EQ(a.entries.size(), b.entries.size());
    double ea = 0.0, eb = 0.0;
    for (const auto &[x, prob] : a.entries)
        ea += prob * p.objective(x);
    for (const auto &[x, prob] : b.entries)
        eb += prob * p.objective(x);
    EXPECT_NEAR(ea, eb, 1e-12);
}

class RasenganQuality : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RasenganQuality, BeatsMeanFeasibleBaseline)
{
    problems::Problem p = problems::makeBenchmark(GetParam());
    double mean_arg = problems::meanFeasibleArg(p);
    RasenganSolver solver(p, fastOptions());
    RasenganResult res = solver.run();
    ASSERT_FALSE(res.failed);
    double arg = p.arg(res.expectedObjective);
    // The trained distribution must beat the average feasible solution
    // (the hardware baseline Rasengan is first to beat, Section 5.4).
    EXPECT_LT(arg, std::max(mean_arg, 1e-6)) << GetParam();
    EXPECT_NEAR(res.inConstraintsRate, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(SmallBenchmarks, RasenganQuality,
                         ::testing::Values("F1", "J1", "K1", "S1", "G1"));

class RasenganSuiteWide : public ::testing::TestWithParam<std::string>
{
};

TEST_P(RasenganSuiteWide, SolvesEveryBenchmarkFeasibly)
{
    // The full 20-benchmark sweep: a trained run must stay feasible,
    // cover the whole feasible space, and do no worse than the mean
    // feasible solution.
    problems::Problem p = problems::makeBenchmark(GetParam());
    RasenganOptions opts;
    opts.maxIterations = 150;
    RasenganSolver solver(p, opts);
    RasenganResult res = solver.run();
    ASSERT_FALSE(res.failed) << GetParam();
    EXPECT_TRUE(p.isFeasible(res.solution)) << GetParam();
    EXPECT_EQ(res.feasibleCovered, p.feasibleCount()) << GetParam();
    EXPECT_NEAR(res.inConstraintsRate, 1.0, 1e-9) << GetParam();
    EXPECT_LE(res.expectedObjective, p.meanFeasibleValue() + 1e-6)
        << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, RasenganSuiteWide,
                         ::testing::ValuesIn(problems::benchmarkIds()));

TEST(Rasengan, SolutionArgIsSmallOnF1)
{
    problems::Problem p = problems::makeBenchmark("F1");
    RasenganSolver solver(p, fastOptions());
    RasenganResult res = solver.run();
    ASSERT_FALSE(res.failed);
    // The best output basis state should essentially be the optimum.
    EXPECT_NEAR(res.objectiveValue, p.optimalValue(),
                0.2 * std::abs(p.optimalValue()));
}

TEST(Rasengan, UnsegmentedMatchesSegmentedSupport)
{
    problems::Problem p = problems::makeBenchmark("K3");
    RasenganOptions seg = fastOptions();
    seg.transitionsPerSegment = 2;
    RasenganOptions unseg = fastOptions();
    unseg.transitionsPerSegment = 0; // single segment
    RasenganSolver a(p, seg), b(p, unseg);
    EXPECT_GT(a.segments().size(), b.segments().size());
    EXPECT_EQ(b.segments().size(), 1u);
    std::vector<double> times(a.numParams(), 0.6);
    Rng rng(9);
    auto da = a.execute(times, rng);
    auto db = b.execute(times, rng);
    // Same chain, same times: any state with substantial probability in
    // the coherent (unsegmented) run must appear in the segmented run --
    // segmentation decoheres, which prevents destructive cancellation but
    // never removes reachable support.
    auto support = [](const RasenganDistribution &d, double threshold) {
        std::set<BitVec> s;
        for (const auto &[x, prob] : d.entries)
            if (prob > threshold)
                s.insert(x);
        return s;
    };
    std::set<BitVec> segmented_support = support(da, 1e-12);
    for (const BitVec &x : support(db, 1e-3))
        EXPECT_TRUE(segmented_support.count(x)) << x.toString(p.numVars());
}

TEST(Rasengan, SegmentCircuitPreparesInitState)
{
    problems::Problem p = problems::makeBenchmark("F1");
    RasenganSolver solver(p, fastOptions());
    std::vector<double> times(solver.numParams(), 0.4);
    circuit::Circuit circ =
        solver.segmentCircuit(0, p.trivialFeasible(), times);
    int x_count = circ.countKind(circuit::GateKind::X);
    EXPECT_GE(x_count, p.trivialFeasible().popcount());
}

TEST(Rasengan, SegmentDepthIsBelowFullChainDepth)
{
    problems::Problem p = problems::makeBenchmark("K3");
    RasenganOptions seg = fastOptions();
    RasenganOptions unseg = fastOptions();
    unseg.transitionsPerSegment = 0;
    RasenganSolver segmented(p, seg), whole(p, unseg);
    auto [seg_depth, seg_cx] = segmented.maxSegmentCost();
    auto [full_depth, full_cx] = whole.maxSegmentCost();
    if (segmented.numParams() > seg.transitionsPerSegment) {
        EXPECT_LT(seg_depth, full_depth);
        EXPECT_LT(seg_cx, full_cx);
    } else {
        EXPECT_LE(seg_depth, full_depth);
        EXPECT_LE(seg_cx, full_cx);
    }
}

TEST(Rasengan, SampledBackendApproximatesExact)
{
    problems::Problem p = problems::makeBenchmark("J1");
    RasenganOptions exact = fastOptions();
    RasenganOptions sampled = fastOptions();
    sampled.execution = RasenganOptions::Execution::SampledSparse;
    sampled.shotsPerSegment = 8192;
    RasenganSolver a(p, exact), b(p, sampled);
    std::vector<double> times(a.numParams(), 0.5);
    Rng rng(21);
    auto da = a.execute(times, rng);
    auto db = b.execute(times, rng);
    double ea = 0.0, eb = 0.0;
    for (const auto &[x, prob] : da.entries)
        ea += prob * p.objective(x);
    for (const auto &[x, prob] : db.entries)
        eb += prob * p.objective(x);
    EXPECT_NEAR(ea, eb, 0.15 * std::abs(ea));
}

TEST(Rasengan, GateLevelBackendMatchesSparseWhenNoiseless)
{
    // Regression: the gate-level path must prepare each segment's input
    // exactly once (the X column inside the circuit).  With noise off it
    // has to reproduce the sparse backend's support.
    problems::Problem p = problems::makeBenchmark("J1");
    RasenganOptions gate = fastOptions();
    gate.execution = RasenganOptions::Execution::NoisyGateLevel;
    gate.shotsPerSegment = 4096;
    RasenganOptions exact = fastOptions();
    RasenganSolver a(p, gate), b(p, exact);
    std::vector<double> times(a.numParams(), 0.6);
    Rng rng(13);
    auto da = a.execute(times, rng);
    auto db = b.execute(times, rng);
    ASSERT_FALSE(da.failed);
    std::set<BitVec> gate_support;
    for (const auto &[x, prob] : da.entries)
        if (prob > 1e-12)
            gate_support.insert(x);
    for (const auto &[x, prob] : db.entries) {
        if (prob > 5e-2) {
            EXPECT_TRUE(gate_support.count(x)) << x.toString(p.numVars());
        }
    }
}

TEST(Rasengan, NoisyGateLevelKeepsConstraintsViaPurification)
{
    problems::Problem p = problems::makeBenchmark("J1");
    RasenganOptions opts = fastOptions();
    opts.execution = RasenganOptions::Execution::NoisyGateLevel;
    opts.noise.depol2q = 0.002;
    opts.noise.depol1q = 0.0002;
    opts.maxIterations = 12;
    opts.shotsPerSegment = 256;
    opts.trajectories = 4;
    RasenganSolver solver(p, opts);
    RasenganResult res = solver.run();
    // At this mild noise level the run must survive purification...
    ASSERT_FALSE(res.failed);
    // ...and every reported output must satisfy the constraints, even
    // though some raw shots were corrupted.
    for (const auto &[x, prob] : res.finalDistribution.entries)
        EXPECT_TRUE(p.isFeasible(x));
    EXPECT_LE(res.finalDistribution.prePurifyFeasibleFraction, 1.0 + 1e-9);
    EXPECT_NEAR(res.inConstraintsRate, 1.0, 1e-9);
}

TEST(Rasengan, InjectedNoiseDegradesFeasibleFraction)
{
    problems::Problem p = problems::makeBenchmark("K1");
    RasenganOptions opts = fastOptions();
    opts.execution = RasenganOptions::Execution::NoisyInjected;
    opts.noise.depol2q = 0.05; // heavy
    opts.purify = false;
    RasenganSolver solver(p, opts);
    std::vector<double> times(solver.numParams(), 0.5);
    Rng rng(5);
    auto dist = solver.execute(times, rng);
    ASSERT_FALSE(dist.failed);
    double feasible = 0.0;
    for (const auto &[x, prob] : dist.entries)
        if (p.isFeasible(x))
            feasible += prob;
    EXPECT_LT(feasible, 0.999);
}

TEST(Rasengan, AblationTogglesAffectCost)
{
    problems::Problem p = problems::makeBenchmark("S2");
    RasenganOptions all_on = fastOptions();
    RasenganOptions no_prune = fastOptions();
    no_prune.prune = false;
    RasenganSolver a(p, all_on), b(p, no_prune);
    EXPECT_LE(a.chain().steps.size(), b.chain().steps.size());
}

TEST(Rasengan, ShotGrowthIncreasesLaterSegments)
{
    problems::Problem p = problems::makeBenchmark("K3");
    RasenganOptions uniform = fastOptions();
    uniform.execution = RasenganOptions::Execution::SampledSparse;
    RasenganOptions growing = uniform;
    growing.shotGrowth = 4.0;
    RasenganSolver a(p, uniform), b(p, growing);
    ASSERT_GT(a.segments().size(), 1u);
    std::vector<double> times(a.numParams(), 0.5);
    Rng ra(3), rb(3);
    auto da = a.execute(times, ra);
    auto db = b.execute(times, rb);
    ASSERT_FALSE(da.failed);
    ASSERT_FALSE(db.failed);
    // Growth buys a finer final distribution (more distinct states can
    // hold a nonzero share) and a larger modeled quantum cost.
    RasenganResult res_a = a.run();
    RasenganResult res_b = b.run();
    double per_eval_a = res_a.quantumSeconds / res_a.training.evaluations;
    double per_eval_b = res_b.quantumSeconds / res_b.training.evaluations;
    EXPECT_GT(per_eval_b, per_eval_a);
}

TEST(Rasengan, AlternativeOptimizersTrain)
{
    problems::Problem p = problems::makeBenchmark("J1");
    for (opt::Method method :
         {opt::Method::Cobyla, opt::Method::NelderMead, opt::Method::Spsa,
          opt::Method::AdamSpsa}) {
        RasenganOptions opts = fastOptions();
        opts.maxIterations = 60;
        opts.optimizer = method;
        RasenganSolver solver(p, opts);
        RasenganResult res = solver.run();
        ASSERT_FALSE(res.failed) << opt::methodName(method);
        EXPECT_NEAR(res.inConstraintsRate, 1.0, 1e-9)
            << opt::methodName(method);
        EXPECT_LT(p.arg(res.expectedObjective),
                  p.arg(p.worstFeasibleValue()) + 1e-9)
            << opt::methodName(method);
    }
}

TEST(Rasengan, PipelineReportIsConsistent)
{
    problems::Problem p = problems::makeBenchmark("K2");
    RasenganOptions opts = fastOptions();
    opts.maxIterations = 20;
    opts.shotGrowth = 2.0; // the report must price the grown shot counts
    RasenganSolver solver(p, opts);
    PipelineReport report = analyzePipeline(solver);

    EXPECT_EQ(report.problemId, "K2");
    EXPECT_EQ(report.numVars, p.numVars());
    EXPECT_EQ(report.prunedChain, solver.numParams());
    EXPECT_EQ(report.segments.size(), solver.segments().size());
    int covered = 0;
    for (const SegmentReport &seg : report.segments) {
        covered += seg.transitions;
        EXPECT_GT(seg.depth, 0);
        EXPECT_GT(seg.shotTimeUs, 0.0);
    }
    EXPECT_EQ(covered, report.prunedChain);
    EXPECT_EQ(report.maxSegmentDepth, solver.maxSegmentCost().first);
    EXPECT_EQ(report.reachableStates, p.feasibleCount());
    std::string text = report.toString();
    EXPECT_NE(text.find("K2"), std::string::npos);
    EXPECT_NE(text.find("segments"), std::string::npos);

    // The report and the solver price the same circuits: each segment's
    // stored cost, and an exact-mode solve's quantum time is its
    // evaluations times the report's per-execution figure.
    ASSERT_GT(report.segments.size(), 1u);
    for (size_t s = 0; s < report.segments.size(); ++s) {
        const SegmentCost &cost = solver.segmentCosts()[s];
        EXPECT_EQ(report.segments[s].depth, cost.depth) << s;
        EXPECT_EQ(report.segments[s].cxCount, cost.cx) << s;
        EXPECT_EQ(report.segments[s].shotTimeUs, cost.circuitUs) << s;
    }
    RasenganResult res = solver.run();
    ASSERT_FALSE(res.failed);
    ASSERT_GT(res.training.evaluations, 0);
    EXPECT_DOUBLE_EQ(res.quantumSeconds,
                     report.quantumSecondsPerExecution *
                         res.training.evaluations);
}

TEST(Rasengan, ResultMetadataIsFilled)
{
    problems::Problem p = problems::makeBenchmark("F1");
    RasenganSolver solver(p, fastOptions());
    RasenganResult res = solver.run();
    EXPECT_GT(res.numParams, 0);
    EXPECT_GT(res.numSegments, 0);
    EXPECT_GT(res.maxSegmentDepth, 0);
    EXPECT_GT(res.quantumSeconds, 0.0);
    EXPECT_GE(res.classicalSeconds, 0.0);
    EXPECT_EQ(res.feasibleCovered, p.feasibleCount());
    EXPECT_GT(res.training.evaluations, 0);
}

} // namespace
} // namespace rasengan::core
