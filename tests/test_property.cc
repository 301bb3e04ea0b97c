/**
 * @file
 * Randomized property tests sweeping seeds across module boundaries:
 * random transition vectors, random circuits through the optimizer and
 * transpiler, randomly planted constraint systems through the whole
 * Rasengan pipeline, and random objectives through the QUBO <-> Ising
 * mapping.  Each property is checked for a sweep of seeds via TEST_P.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <iterator>
#include <memory>
#include <numbers>
#include <numeric>
#include <sstream>

#include "baselines/qubo.h"
#include "circuit/qasm.h"
#include "circuit/optimize.h"
#include "circuit/transpile.h"
#include "core/basis.h"
#include "core/chain.h"
#include "core/rasengan.h"
#include "circuit_reference.h"
#include "core_reference.h"
#include "device/latency.h"
#include "device/routing.h"
#include "linalg/solve.h"
#include "problems/builder.h"
#include "problems/metrics.h"
#include "problems/io.h"
#include "problems/suite.h"
#include "qsim/counts.h"
#include "qsim/sparsestate.h"
#include "qsim/statevector.h"

namespace rasengan {
namespace {

class PropertySweep : public ::testing::TestWithParam<uint64_t>
{
  protected:
    Rng rng{GetParam() * 7919 + 13};
};

/** Random transition vector over n variables with support size k. */
linalg::IntVec
randomTransition(Rng &rng, int n, int k)
{
    linalg::IntVec u(n, 0);
    std::vector<int> qubits(n);
    for (int i = 0; i < n; ++i)
        qubits[i] = i;
    rng.shuffle(qubits);
    for (int i = 0; i < k; ++i)
        u[qubits[i]] = rng.bernoulli(0.5) ? 1 : -1;
    return u;
}

TEST_P(PropertySweep, RandomTransitionCircuitMatchesSparse)
{
    const int n = 5;
    const int k = 1 + static_cast<int>(rng.uniformInt(0, 3));
    linalg::IntVec u = randomTransition(rng, n, k);
    double t = rng.uniformReal(-1.5, 1.5);

    core::TransitionHamiltonian tau(u);
    circuit::Circuit circ = tau.toCircuit(n, t);
    for (uint64_t idx = 0; idx < (uint64_t{1} << n); ++idx) {
        BitVec x = BitVec::fromIndex(idx);
        qsim::SparseState sparse(n, x);
        tau.applyTo(sparse, t);
        qsim::Statevector dense(n, x);
        dense.applyCircuit(circ);
        for (uint64_t row = 0; row < (uint64_t{1} << n); ++row) {
            BitVec y = BitVec::fromIndex(row);
            ASSERT_NEAR(std::abs(dense.amplitude(y) - sparse.amplitude(y)),
                        0.0, 1e-9)
                << "seed " << GetParam() << " x " << idx;
        }
    }
}

/** A random circuit from the gate set the optimizer understands. */
circuit::Circuit
randomCircuit(Rng &rng, int n, int gates)
{
    circuit::Circuit c(n);
    for (int i = 0; i < gates; ++i) {
        switch (rng.uniformInt(0, 6)) {
          case 0: c.h(static_cast<int>(rng.uniformInt(0, n - 1))); break;
          case 1: c.x(static_cast<int>(rng.uniformInt(0, n - 1))); break;
          case 2:
            c.rz(static_cast<int>(rng.uniformInt(0, n - 1)),
                 rng.uniformReal(-1, 1));
            break;
          case 3:
            c.rx(static_cast<int>(rng.uniformInt(0, n - 1)),
                 rng.uniformReal(-1, 1));
            break;
          case 4: {
            int a = static_cast<int>(rng.uniformInt(0, n - 1));
            int b = static_cast<int>(rng.uniformInt(0, n - 2));
            if (b >= a)
                ++b;
            c.cx(a, b);
            break;
          }
          case 5: {
            int a = static_cast<int>(rng.uniformInt(0, n - 1));
            int b = static_cast<int>(rng.uniformInt(0, n - 2));
            if (b >= a)
                ++b;
            c.cp(a, b, rng.uniformReal(-1, 1));
            break;
          }
          default:
            c.p(static_cast<int>(rng.uniformInt(0, n - 1)),
                rng.uniformReal(-1, 1));
            break;
        }
    }
    return c;
}

double
overlapAfter(const circuit::Circuit &a, const circuit::Circuit &b, int n,
             uint64_t idx)
{
    qsim::Statevector sa(n, BitVec::fromIndex(idx));
    qsim::Statevector sb(n, BitVec::fromIndex(idx));
    sa.applyCircuit(a);
    sb.applyCircuit(b);
    return std::abs(sa.inner(sb));
}

TEST_P(PropertySweep, OptimizerPreservesRandomCircuits)
{
    const int n = 4;
    circuit::Circuit c = randomCircuit(rng, n, 40);
    circuit::Circuit optimized = circuit::optimizeCircuit(c);
    EXPECT_LE(optimized.size(), c.size());
    for (uint64_t idx = 0; idx < (uint64_t{1} << n); ++idx)
        ASSERT_NEAR(overlapAfter(c, optimized, n, idx), 1.0, 1e-9)
            << "seed " << GetParam() << " basis " << idx;
}

/**
 * A random circuit dense in peephole matches: few wires, angles whose
 * pairs cancel to exactly or nearly 0 (1e-13 alone is an identity
 * rotation), CP and MCP repeated with their qubits permuted, and
 * barriers.
 */
circuit::Circuit
peepholeCircuit(Rng &rng, int n, int gates)
{
    const double angles[] = {0.5, -0.5, 0.25, -0.75, 1e-13, -0.5 + 4e-13};
    auto angle = [&] { return angles[rng.index(std::size(angles))]; };
    auto wire = [&] { return static_cast<int>(rng.index(n)); };
    auto distinct = [&](int k) {
        std::vector<int> qs(n);
        std::iota(qs.begin(), qs.end(), 0);
        rng.shuffle(qs);
        qs.resize(k);
        return qs;
    };
    circuit::Circuit c(n);
    for (int i = 0; i < gates; ++i) {
        switch (rng.index(11)) {
          case 0: c.x(wire()); break;
          case 1: c.h(wire()); break;
          case 2: c.rz(wire(), angle()); break;
          case 3: c.rx(wire(), angle()); break;
          case 4: c.p(wire(), angle()); break;
          case 5: {
            auto qs = distinct(2);
            c.cx(qs[0], qs[1]);
            break;
          }
          case 6: {
            auto qs = distinct(2);
            c.swap(qs[0], qs[1]);
            break;
          }
          case 7:
          case 8: {
            auto qs = distinct(2);
            c.cp(qs[0], qs[1], angle());
            break;
          }
          case 9: {
            auto qs = distinct(3);
            const int target = qs.back();
            qs.pop_back();
            c.mcp(qs, target, angle());
            break;
          }
          default: c.barrier(); break;
        }
    }
    return c;
}

TEST_P(PropertySweep, OptimizerMatchesQuadraticReference)
{
    // The stack-based peephole pass against the backward-scanning one,
    // gate for gate: random circuits, then every segment of the suite
    // benchmarks whose index is this seed mod 12, before lowering and
    // transpiled in both modes, at nominal and at random times.
    const std::string where = "seed " + std::to_string(GetParam());
    for (int k = 0; k < 32; ++k) {
        const int n = 3 + static_cast<int>(rng.index(2));
        circuit::reference::expectOptimizerMatchesReference(
            peepholeCircuit(rng, n, 120), where + " peephole " +
                                              std::to_string(k));
    }
    circuit::reference::expectOptimizerMatchesReference(
        randomCircuit(rng, 4, 60), where + " random");

    const std::vector<std::string> ids = problems::benchmarkIds();
    core::RasenganOptions options;
    options.maxIterations = 6;
    for (size_t i = GetParam(); i < ids.size(); i += 12) {
        const problems::Problem p = problems::makeBenchmark(ids[i]);
        core::RasenganSolver solver(p, options);
        std::vector<double> random_times(solver.numParams());
        for (double &t : random_times)
            t = rng.uniformReal(-1.5, 1.5);
        for (const auto &times :
             {std::vector<double>(solver.numParams(), options.initialTime),
              random_times}) {
            for (size_t s = 0; s < solver.segments().size(); ++s) {
                const circuit::Circuit segment = solver.segmentCircuit(
                    static_cast<int>(s), p.trivialFeasible(), times);
                const std::string what =
                    where + " " + p.id() + " segment " + std::to_string(s);
                circuit::reference::expectOptimizerMatchesReference(
                    segment, what);
                for (auto mode : {circuit::TranspileMode::GrayCode,
                                  circuit::TranspileMode::AncillaLadder}) {
                    circuit::reference::expectOptimizerMatchesReference(
                        circuit::transpile(segment,
                                           {.mode = mode, .lowerToCx = true}),
                        what + " mode " +
                            std::to_string(static_cast<int>(mode)));
                }
            }
        }
    }
}

TEST_P(PropertySweep, RoutedRandomCircuitsPreserveProbabilities)
{
    const int n = 4;
    circuit::Circuit c = randomCircuit(rng, n, 25);
    device::CouplingMap map = device::CouplingMap::linear(n);
    for (bool lookahead : {false, true}) {
        device::RoutingResult r =
            lookahead ? device::routeLookahead(c, map, false)
                      : device::route(c, map, false);
        qsim::Statevector logical(n);
        logical.applyCircuit(c);
        qsim::Statevector physical(n);
        physical.applyCircuit(r.routed);
        for (uint64_t idx = 0; idx < (uint64_t{1} << n); ++idx) {
            BitVec l = BitVec::fromIndex(idx);
            BitVec p;
            for (int q = 0; q < n; ++q)
                if (l.get(q))
                    p.set(r.finalLayout[q]);
            ASSERT_NEAR(logical.probability(l), physical.probability(p),
                        1e-9)
                << "seed " << GetParam() << " lookahead " << lookahead;
        }
    }
}

/** Random planted-feasible constraint system. */
struct PlantedSystem
{
    linalg::IntMat c;
    linalg::IntVec b;
    BitVec x0;
};

PlantedSystem
plantSystem(Rng &rng, int n, int rows)
{
    PlantedSystem sys{linalg::IntMat(rows, n), linalg::IntVec(rows), {}};
    for (int i = 0; i < n; ++i)
        if (rng.bernoulli(0.5))
            sys.x0.set(i);
    for (int r = 0; r < rows; ++r) {
        int64_t acc = 0;
        for (int i = 0; i < n; ++i) {
            int64_t coeff = rng.uniformInt(-1, 1);
            sys.c.at(r, i) = coeff;
            if (sys.x0.get(i))
                acc += coeff;
        }
        sys.b[r] = acc; // b = C x0: x0 is feasible by construction
    }
    return sys;
}

TEST_P(PropertySweep, PipelineOnPlantedRandomSystems)
{
    const int n = 7;
    PlantedSystem sys = plantSystem(rng, n, 3);

    problems::QuadraticObjective f(n);
    for (int i = 0; i < n; ++i)
        f.addLinear(i, static_cast<double>(rng.uniformInt(1, 9)));
    f.addConstant(1.0);
    problems::Problem p("planted", "RAND", sys.c, sys.b, f, sys.x0);

    // The walk stays inside the feasible set and the executable vector
    // set covers it entirely.
    auto vectors = core::transitionVectors(p);
    auto transitions = core::makeTransitions(vectors);
    core::Chain chain = core::buildChain(transitions, p.trivialFeasible());
    EXPECT_EQ(chain.reachableCount, p.feasibleCount())
        << "seed " << GetParam();

    // End-to-end solve keeps feasibility and beats the worst solution.
    core::RasenganOptions options;
    options.maxIterations = 60;
    options.seed = GetParam();
    core::RasenganSolver solver(p, options);
    core::RasenganResult res = solver.run();
    ASSERT_FALSE(res.failed) << "seed " << GetParam();
    EXPECT_TRUE(p.isFeasible(res.solution));
    EXPECT_LE(res.objectiveValue, p.worstFeasibleValue() + 1e-9);
}

TEST_P(PropertySweep, NoiseFreePurifiedOutputIsFeasible)
{
    // Purification keeps only C x = b states, so without noise every
    // entry of the final distribution is feasible (Fig. 16's 100%), on
    // the exact and the sampled path alike.
    const int n = 8;
    PlantedSystem sys = plantSystem(rng, n, 3);
    problems::QuadraticObjective f(n);
    for (int i = 0; i < n; ++i)
        f.addLinear(i, static_cast<double>(rng.uniformInt(1, 9)));
    f.addConstant(1.0);
    problems::Problem p("planted-purify", "RAND", sys.c, sys.b, f, sys.x0);

    // The third case injects backend faults: corrupted histograms are
    // caught and retried, so the output stays feasible.
    using Execution = core::RasenganOptions::Execution;
    for (int run = 0; run < 3; ++run) {
        core::RasenganOptions options;
        options.maxIterations = 20;
        options.seed = GetParam();
        options.execution =
            run == 0 ? Execution::ExactSparse : Execution::SampledSparse;
        if (run == 2)
            options.resilience.faults.rate = 0.2;
        core::RasenganResult res = core::RasenganSolver(p, options).run();
        ASSERT_FALSE(res.failed) << "seed " << GetParam() << " run " << run;
        ASSERT_FALSE(res.finalDistribution.entries.empty());
        for (const auto &[x, prob] : res.finalDistribution.entries) {
            EXPECT_TRUE(p.isFeasible(x))
                << "seed " << GetParam() << " state " << x.toString(n);
        }
        EXPECT_NEAR(res.inConstraintsRate, 1.0, 1e-9);
    }
}

/**
 * A random ProblemBuilder system on 6 variables with one <= and one >=
 * row over coefficients in {-1, 0, 1}, so binary slack bits are present
 * (at most 4 per row: 14 variables in all).  The rows are drawn to hold
 * at a random assignment, which the builder completes with its slack.
 */
problems::Problem
randomSlackProblem(Rng &rng, const std::string &id)
{
    problems::ProblemBuilder builder(id, "RAND", 6);
    BitVec x0;
    for (int i = 0; i < 6; ++i) {
        builder.objectiveLinear(i, static_cast<double>(rng.uniformInt(1, 9)));
        if (rng.bernoulli(0.5))
            x0.set(i);
    }
    for (int r = 0; r < 2; ++r) {
        std::vector<problems::ProblemBuilder::Term> terms;
        int64_t lhs = 0;
        for (int var = 0; var < 6; ++var) {
            const int64_t coeff = rng.uniformInt(-1, 1);
            if (coeff == 0)
                continue;
            terms.emplace_back(var, coeff);
            if (x0.get(var))
                lhs += coeff;
        }
        if (terms.empty()) {
            terms.emplace_back(r, 1);
            lhs = x0.get(r) ? 1 : 0;
        }
        if (r == 0)
            builder.addLessEqual(terms, lhs + rng.uniformInt(0, 2));
        else
            builder.addGreaterEqual(terms, lhs - rng.uniformInt(0, 2));
    }
    return builder.build(x0);
}

TEST_P(PropertySweep, TransitionSetMatchesReference)
{
    // The flat-set closures, the packed Algorithm 1 and the skipped
    // re-check of an unchanged basis against the entrywise, hash-set
    // references: the transition vectors and every chain variant over
    // them, on a planted system and a system with binary slack.
    const int n = static_cast<int>(rng.uniformInt(5, 10));
    const int rows = static_cast<int>(rng.uniformInt(1, 4));
    PlantedSystem sys = plantSystem(rng, n, rows);
    problems::QuadraticObjective f(n);
    problems::Problem planted("planted-ref", "RAND", sys.c, sys.b, f,
                              sys.x0);
    const std::string where = "seed " + std::to_string(GetParam());
    core::reference::expectTransitionSetMatchesReference(
        planted, where + " planted");
    core::reference::expectTransitionSetMatchesReference(
        randomSlackProblem(rng, "builder-ref"), where + " slack");
}

TEST_P(PropertySweep, SparseMatchesDenseOnSlackSystems)
{
    // A system with binary slack: its transition chain, applied from the
    // feasible state with random times, on the sparse engine (pruning
    // off and at the default threshold) and on a dense statevector
    // running each transition's circuit.
    const problems::Problem p = randomSlackProblem(rng, "builder-slack");
    const int n = p.numVars();
    ASSERT_LE(n, 14);
    const core::PipelineArtifacts art =
        core::buildPipelineArtifacts(p, core::RasenganOptions{});
    std::vector<double> times;
    for (size_t k = 0; k < art.chain.steps.size(); ++k)
        times.push_back(rng.uniformReal(-2.0, 2.0));

    qsim::Statevector dense(n, p.trivialFeasible());
    for (size_t k = 0; k < times.size(); ++k)
        dense.applyCircuit(art.transitions[art.chain.steps[k]].toCircuit(
            n, times[k]));
    for (double threshold :
         {0.0, qsim::SparseState::kDefaultPruneThreshold}) {
        qsim::SparseState sparse(n, p.trivialFeasible());
        for (size_t k = 0; k < times.size(); ++k)
            art.transitions[art.chain.steps[k]].applyTo(sparse, times[k],
                                                        threshold);
        for (uint64_t idx = 0; idx < (uint64_t{1} << n); ++idx) {
            const BitVec y = BitVec::fromIndex(idx);
            ASSERT_NEAR(std::abs(dense.amplitude(y) - sparse.amplitude(y)),
                        0.0, 1e-9)
                << "seed " << GetParam() << " n " << n << " threshold "
                << threshold << " y " << idx;
        }
    }
}

TEST_P(PropertySweep, WarmSolverMatchesFreshSolver)
{
    // A solver evolves every segment in one reused state and caches
    // the states it has verified feasible.  Warmed by executing other
    // angle vectors -- random ones, and all-pi/2 ones whose rotations
    // prune their sources -- it must return the bytes a fresh solver
    // returns.  NoisyInjected feeds purification infeasible states.
    // Instances: a planted system, and a ProblemBuilder system whose
    // <=/>= rows add binary slack.
    const int n = 7;
    PlantedSystem sys = plantSystem(rng, n, 2);
    problems::QuadraticObjective f(n);
    for (int i = 0; i < n; ++i)
        f.addLinear(i, static_cast<double>(rng.uniformInt(1, 9)));
    std::vector<problems::Problem> instances;
    instances.emplace_back("planted-reuse", "RAND", sys.c, sys.b, f,
                           sys.x0);
    instances.push_back(randomSlackProblem(rng, "builder-reuse"));

    using Execution = core::RasenganOptions::Execution;
    for (const problems::Problem &p : instances) {
        for (Execution execution :
             {Execution::ExactSparse, Execution::SampledSparse,
              Execution::NoisyInjected}) {
            core::RasenganOptions options;
            options.execution = execution;
            if (execution == Execution::NoisyInjected)
                options.noise.depol2q = 0.05;
            options.transitionsPerSegment = 2;
            options.pipeline = std::make_shared<core::PipelineArtifacts>(
                core::buildPipelineArtifacts(p, options));
            core::RasenganSolver warm(p, options);

            const size_t params = static_cast<size_t>(warm.numParams());
            auto random = [&]() {
                std::vector<double> times(params);
                for (double &t : times)
                    t = rng.uniformReal(-2.0, 2.0);
                return times;
            };
            const std::vector<double> pruning(params, std::numbers::pi / 2);
            const std::vector<std::vector<double>> angles = {
                random(), pruning, random(), pruning, random()};
            for (size_t a = 0; a < angles.size(); ++a) {
                const std::string where =
                    "seed " + std::to_string(GetParam()) + " " + p.id() +
                    " execution " +
                    std::to_string(static_cast<int>(execution)) +
                    " angles " + std::to_string(a);
                core::RasenganSolver fresh(p, options);
                Rng rng_warm(GetParam() + a), rng_fresh(GetParam() + a);
                auto got = warm.execute(angles[a], rng_warm);
                auto want = fresh.execute(angles[a], rng_fresh);
                ASSERT_EQ(got.failed, want.failed) << where;
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
            }
        }
    }
}

TEST_P(PropertySweep, SegmentCostsMatchFreshLowering)
{
    // Each stored SegmentCost equals a fresh lowering of its segment at
    // nominal times: segmentCircuit -> transpile -> optimizeCircuit,
    // plus circuitTimeUs of the transpiled circuit; and the latency
    // estimate of a training run is executionTimeSeconds over those
    // circuits.  Instances: two random builder systems under random cost
    // options, and the suite benchmarks whose index is this seed mod 12.
    const device::DeviceModel devices[] = {device::DeviceModel::ibmQuebec(),
                                           device::DeviceModel::ibmKyiv(),
                                           device::DeviceModel::ibmBrisbane()};
    const std::vector<std::string> ids = problems::benchmarkIds();
    std::vector<std::pair<problems::Problem, core::RasenganOptions>> cases;
    for (int k = 0; k < 2; ++k) {
        core::RasenganOptions options;
        options.transitionsPerSegment = 1 + static_cast<int>(rng.index(3));
        options.transpileMode = rng.bernoulli(0.5)
                                    ? circuit::TranspileMode::GrayCode
                                    : circuit::TranspileMode::AncillaLadder;
        // At time 0 the rotations vanish and the optimizer drops them.
        options.initialTime = k == 0 ? 0.0 : rng.uniformReal(-1.5, 1.5);
        options.latencyDevice = devices[rng.index(3)];
        options.shotGrowth = rng.uniformReal(1.0, 2.0);
        options.maxIterations = 6;
        cases.emplace_back(randomSlackProblem(rng, "builder-costs"), options);
    }
    core::RasenganOptions suite_options;
    suite_options.maxIterations = 6;
    for (size_t i = GetParam(); i < ids.size(); i += 12)
        cases.emplace_back(problems::makeBenchmark(ids[i]), suite_options);

    for (const auto &[p, options] : cases) {
        const std::string where =
            "seed " + std::to_string(GetParam()) + " " + p.id();
        core::RasenganSolver solver(p, options);
        const auto &costs = solver.segmentCosts();
        ASSERT_EQ(costs.size(), solver.segments().size()) << where;
        device::LatencyModel latency(options.latencyDevice);
        const std::vector<double> nominal(solver.numParams(),
                                          options.initialTime);
        double per_execution_s = 0.0;
        std::pair<int, int> max_cost{0, 0};
        for (size_t s = 0; s < costs.size(); ++s) {
            circuit::Circuit lowered = circuit::transpile(
                solver.segmentCircuit(static_cast<int>(s),
                                      p.trivialFeasible(), nominal),
                {.mode = options.transpileMode, .lowerToCx = true});
            circuit::Circuit optimized = circuit::optimizeCircuit(lowered);
            EXPECT_EQ(costs[s].depth, optimized.depth()) << where;
            EXPECT_EQ(costs[s].cx, optimized.countCx()) << where;
            EXPECT_EQ(costs[s].loweredCx, lowered.countCx()) << where;
            const double us = latency.circuitTimeUs(lowered);
            EXPECT_EQ(std::memcmp(&costs[s].circuitUs, &us, sizeof(us)), 0)
                << where << " segment " << s;
            max_cost.first = std::max(max_cost.first, optimized.depth());
            max_cost.second = std::max(max_cost.second, optimized.countCx());
            const auto shots = static_cast<uint64_t>(
                static_cast<double>(options.shotsPerSegment) *
                std::pow(options.shotGrowth, static_cast<double>(s)));
            per_execution_s += latency.executionTimeSeconds(lowered, shots);
        }
        EXPECT_EQ(solver.maxSegmentCost(), max_cost) << where;
        if (solver.numParams() > 0) {
            core::RasenganResult res = solver.run();
            const double want = per_execution_s * res.training.evaluations;
            EXPECT_EQ(std::memcmp(&res.quantumSeconds, &want, sizeof(want)),
                      0)
                << where << " " << res.quantumSeconds << " vs " << want;
        }
    }
}

TEST_P(PropertySweep, LoweredCxIgnoresInputAndTimes)
{
    // NoisyInjected reads each segment's CX count from the pipeline's
    // SegmentCost, taken on the trivial feasible input at nominal
    // times.  That is sound only if lowering any input basis state at
    // any times gives the same count: random systems, transpile modes,
    // segment sizes, input states and times, zeros included.
    for (int k = 0; k < 3; ++k) {
        const problems::Problem p = randomSlackProblem(rng, "builder-cx");
        core::RasenganOptions options;
        options.transitionsPerSegment = 1 + static_cast<int>(rng.index(3));
        options.transpileMode = rng.bernoulli(0.5)
                                    ? circuit::TranspileMode::GrayCode
                                    : circuit::TranspileMode::AncillaLadder;
        options.initialTime = rng.uniformReal(-1.5, 1.5);
        core::RasenganSolver solver(p, options);
        const int n = p.numVars();
        for (size_t s = 0; s < solver.segments().size(); ++s) {
            for (int trial = 0; trial < 4; ++trial) {
                std::vector<double> times(solver.numParams());
                for (double &t : times)
                    t = rng.bernoulli(0.2) ? 0.0
                                           : rng.uniformReal(-2.0, 2.0);
                const BitVec input = BitVec::fromIndex(
                    rng.uniformInt(0, (int64_t{1} << n) - 1));
                const circuit::Circuit lowered = circuit::transpile(
                    solver.segmentCircuit(static_cast<int>(s), input,
                                          times),
                    {.mode = options.transpileMode, .lowerToCx = true});
                EXPECT_EQ(lowered.countCx(),
                          solver.segmentCosts()[s].loweredCx)
                    << "seed " << GetParam() << " " << p.id() << " segment "
                    << s << " trial " << trial;
            }
        }
    }
}

/** Inverse of MT19937-64's output tempering. */
uint64_t
untemper(uint64_t y)
{
    const auto undoRight = [](uint64_t v, int shift, uint64_t mask) {
        uint64_t x = v;
        for (int i = 0; i <= 64 / shift; ++i)
            x = v ^ ((x >> shift) & mask);
        return x;
    };
    const auto undoLeft = [](uint64_t v, int shift, uint64_t mask) {
        uint64_t x = v;
        for (int i = 0; i <= 64 / shift; ++i)
            x = v ^ ((x << shift) & mask);
        return x;
    };
    y = undoRight(y, 43, ~uint64_t{0});
    y = undoLeft(y, 37, 0xFFF7EEE000000000ull);
    y = undoLeft(y, 17, 0x71D67FFFEDA60000ull);
    return undoRight(y, 29, 0x5555555555555555ull);
}

/** Make @p words the next outputs of @p rng, then its own stream. */
void
plantWords(Rng &rng, const std::vector<uint64_t> &words)
{
    rng.engine().discard(1); // refilled: positions 1.. come next
    std::stringstream text;
    text << rng.engine();
    std::vector<uint64_t> state(Rng::Engine::state_size);
    size_t pos = 0;
    for (uint64_t &w : state)
        text >> w;
    text >> pos;
    for (size_t i = 0; i < words.size(); ++i)
        state[pos + i] = untemper(words[i]);
    std::stringstream planted;
    for (uint64_t w : state)
        planted << w << ' ';
    planted << pos;
    planted >> rng.engine();
}

TEST_P(PropertySweep, SparseSampleMatchesPerShotReference)
{
    // SparseState::sample draws in blocks and tallies by support index;
    // for equal seeds it returns the same counts, the same map()
    // iteration sequence and the same engine position as one
    // Counts::add per AliasTable::sample draw.  Supports span the
    // single-state path and 257 states, shot counts the block edges.
    // Half the seeds use equal weights, where slot boundaries decide
    // the index; the rest zero out some entries, except that the
    // 2-state one accepts its last slot just below 1 (prob 1 - 2^-53),
    // where only the clamp of the top word keeps that slot.  Each
    // stream opens with words where the double conversion rounds or
    // clamps: k * 2^62 - 1 rounds up onto a slot boundary for 2 and 4
    // states.
    const int n = 12;
    const size_t sizes[] = {1, 2, 1 + rng.index(8), 257, 1 + rng.index(200),
                            4};
    const size_t support = sizes[GetParam() % 6];
    const bool equal_weights = GetParam() < 6;
    std::vector<BitVec> keys;
    while (keys.size() < support) {
        BitVec key;
        for (int q = 0; q < n; ++q)
            if (rng.bernoulli(0.5))
                key.set(q);
        if (std::find(keys.begin(), keys.end(), key) == keys.end())
            keys.push_back(key);
    }
    std::sort(keys.begin(), keys.end());
    std::vector<std::complex<double>> amps;
    for (size_t i = 0; i < support; ++i) {
        if (equal_weights)
            amps.emplace_back(0.5, 0.0);
        else if (rng.bernoulli(0.25))
            amps.emplace_back(0.0, 0.0);
        else
            amps.emplace_back(rng.uniformReal(-1.0, 1.0),
                              rng.uniformReal(-1.0, 1.0));
    }
    if (support == 2 && !equal_weights)
        amps = {1.0, 1.0 - 0x1p-53};
    if (std::all_of(amps.begin(), amps.end(),
                    [](std::complex<double> a) { return std::norm(a) == 0; }))
        amps[rng.index(support)] = 1.0;
    const qsim::SparseState state =
        qsim::SparseState::fromSorted(n, keys, amps);
    std::vector<double> weights;
    for (const std::complex<double> &a : amps)
        weights.push_back(std::norm(a));
    const qsim::AliasTable table(weights);

    const uint64_t top = ~uint64_t{0};
    const std::vector<uint64_t> edge_words = {
        (uint64_t{1} << 63) - 1, (uint64_t{1} << 62) - 1,
        (uint64_t{3} << 62) - 1, 0, 1, (uint64_t{1} << 53) - 1,
        uint64_t{1} << 53, (uint64_t{1} << 53) + 1, uint64_t{1} << 63,
        top - 1024, top - 1023, top};
    {
        Rng check(GetParam());
        plantWords(check, edge_words);
        for (uint64_t w : edge_words)
            ASSERT_EQ(check.engine()(), w);
    }

    for (uint64_t shots : {1, 17, 255, 256, 257, 512, 1000}) {
        const std::string where = "seed " + std::to_string(GetParam()) +
                                  " support " + std::to_string(support) +
                                  " shots " + std::to_string(shots);
        Rng fast_rng(GetParam() + shots), ref_rng(GetParam() + shots);
        plantWords(fast_rng, edge_words);
        plantWords(ref_rng, edge_words);
        qsim::Counts fast = state.sample(fast_rng, shots);

        qsim::Counts ref;
        for (uint64_t s = 0; s < shots; ++s)
            ref.add(keys[table.sample(ref_rng)]);

        EXPECT_EQ(fast.total(), ref.total()) << where;
        std::vector<std::pair<BitVec, uint64_t>> fast_seq(
            fast.map().begin(), fast.map().end());
        std::vector<std::pair<BitVec, uint64_t>> ref_seq(
            ref.map().begin(), ref.map().end());
        EXPECT_EQ(fast_seq, ref_seq) << where;
        EXPECT_EQ(fast_rng.engine(), ref_rng.engine()) << where;
    }
}

/** ||C x - b||_1 by the dense rows x n loop over the matrix. */
int64_t
denseViolation(const problems::Problem &p, const BitVec &x)
{
    int64_t total = 0;
    for (int r = 0; r < p.numConstraints(); ++r) {
        int64_t acc = 0;
        for (int col = 0; col < p.numVars(); ++col)
            if (x.get(col))
                acc += p.constraints().at(r, col);
        total += std::abs(acc - p.bounds()[r]);
    }
    return total;
}

TEST_P(PropertySweep, ViolationMatchesDenseReference)
{
    // Random builder systems: equalities and <=/>= rows (binary slack
    // with weights 1, 2, 4, ...), negative coefficients, variables in no
    // row, and the last system wider than 64 variables so the masks span
    // both BitVec words.
    for (int trial = 0; trial < 4; ++trial) {
        const int n = trial == 3 ? static_cast<int>(rng.uniformInt(65, 90))
                                 : static_cast<int>(rng.uniformInt(2, 60));
        BitVec x0;
        for (int i = 0; i < n; ++i)
            if (rng.bernoulli(0.5))
                x0.set(i);
        problems::ProblemBuilder builder("mask", "RAND", n);
        builder.objectiveLinear(0, 1.0);
        // Rows draw their terms from the first `active` variables only.
        const int active = std::max(1, n - static_cast<int>(rng.index(4)));
        const int rows = static_cast<int>(rng.uniformInt(1, 5));
        for (int r = 0; r < rows; ++r) {
            std::vector<problems::ProblemBuilder::Term> terms;
            int64_t lhs = 0;
            const int width = static_cast<int>(rng.uniformInt(1, 8));
            for (int k = 0; k < width; ++k) {
                const int var = static_cast<int>(rng.index(active));
                int64_t coeff = rng.uniformInt(-3, 3);
                if (coeff == 0)
                    coeff = 1;
                terms.emplace_back(var, coeff);
                if (x0.get(var))
                    lhs += coeff;
            }
            switch (rng.index(3)) {
            case 0:
                builder.addEquality(terms, lhs);
                break;
            case 1:
                builder.addLessEqual(terms, lhs + rng.uniformInt(0, 3));
                break;
            default:
                builder.addGreaterEqual(terms, lhs - rng.uniformInt(0, 3));
                break;
            }
        }
        const problems::Problem p = builder.build(x0);
        const std::string where = "seed " + std::to_string(GetParam()) +
                                  " trial " + std::to_string(trial) +
                                  " vars " + std::to_string(p.numVars());
        if (trial == 3) {
            ASSERT_GT(p.numVars(), 64) << where;
        }

        auto expectMatch = [&](const BitVec &x) {
            const int64_t dense = denseViolation(p, x);
            ASSERT_EQ(p.violation(x), dense) << where << " x " <<
                x.toString(kMaxBits);
            ASSERT_EQ(p.isFeasible(x), dense == 0)
                << where << " x " << x.toString(kMaxBits);
        };
        const BitVec &trivial = p.trivialFeasible();
        ASSERT_EQ(denseViolation(p, trivial), 0) << where;
        expectMatch(trivial);
        for (int i = 0; i < p.numVars(); ++i) {
            BitVec flipped = trivial;
            flipped.flip(i);
            expectMatch(flipped);
        }
        for (int k = 0; k < 64; ++k) {
            // Bits at and above numVars() are set too: both sides
            // ignore them.
            BitVec x;
            for (int i = 0; i < kMaxBits; ++i)
                if (rng.bernoulli(0.5))
                    x.set(i);
            expectMatch(x);
        }
    }
}

TEST_P(PropertySweep, IsingMatchesRandomObjectives)
{
    const int n = 5;
    problems::QuadraticObjective f(n);
    f.addConstant(rng.uniformReal(-2, 2));
    for (int i = 0; i < n; ++i)
        f.addLinear(i, rng.uniformReal(-3, 3));
    for (int i = 0; i < n; ++i)
        for (int j = i + 1; j < n; ++j)
            if (rng.bernoulli(0.4))
                f.addQuadratic(i, j, rng.uniformReal(-2, 2));
    f.normalize();

    qsim::PauliHamiltonian h = baselines::isingHamiltonian(f, n);
    for (uint64_t idx = 0; idx < (uint64_t{1} << n); ++idx) {
        BitVec x = BitVec::fromIndex(idx);
        ASSERT_NEAR(h.diagonalValue(x), f.eval(x), 1e-9)
            << "seed " << GetParam() << " basis " << idx;
    }
}

TEST_P(PropertySweep, PenaltyQuboNeverRewardsViolations)
{
    // On a random planted system, every infeasible assignment must score
    // strictly worse than the worst feasible one under the default
    // penalty (the property the ARG metric relies on).
    const int n = 6;
    PlantedSystem sys = plantSystem(rng, n, 2);
    problems::QuadraticObjective f(n);
    for (int i = 0; i < n; ++i)
        f.addLinear(i, static_cast<double>(rng.uniformInt(1, 5)));
    f.addConstant(1.0);
    problems::Problem p("planted-qubo", "RAND", sys.c, sys.b, f, sys.x0);

    double lambda = problems::defaultPenaltyLambda(p);
    double worst_feasible = p.worstFeasibleValue();
    for (uint64_t idx = 0; idx < (uint64_t{1} << n); ++idx) {
        BitVec x = BitVec::fromIndex(idx);
        if (p.isFeasible(x))
            continue;
        ASSERT_GT(p.penalizedObjective(x, lambda), worst_feasible)
            << "seed " << GetParam() << " basis " << idx;
    }
}

TEST_P(PropertySweep, SegmentedExecutionIsTracePreserving)
{
    // Whatever the times, the exact segmented pipeline returns a
    // normalized distribution over feasible states.
    problems::Problem p = problems::makeBenchmark(
        GetParam() % 2 == 0 ? "K2" : "S2");
    core::RasenganSolver solver(p, {});
    std::vector<double> times(solver.numParams());
    for (double &t : times)
        t = rng.uniformReal(-2.0, 2.0);
    Rng exec_rng(GetParam());
    auto dist = solver.execute(times, exec_rng);
    ASSERT_FALSE(dist.failed);
    double total = 0.0;
    for (const auto &[x, prob] : dist.entries) {
        EXPECT_TRUE(p.isFeasible(x));
        EXPECT_GE(prob, -1e-12);
        total += prob;
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_P(PropertySweep, ParsersRejectGarbageGracefully)
{
    // Random byte soup must produce an error report, never a crash.
    std::string soup;
    int length = static_cast<int>(rng.uniformInt(1, 400));
    for (int i = 0; i < length; ++i)
        soup.push_back(static_cast<char>(rng.uniformInt(32, 126)));
    soup.push_back('\n');

    circuit::QasmParseResult qasm = circuit::parseQasm(soup);
    EXPECT_FALSE(qasm.circuit.has_value());
    EXPECT_FALSE(qasm.error.empty());

    problems::ProblemParseResult prob = problems::parseProblem(soup);
    EXPECT_FALSE(prob.problem.has_value());
    EXPECT_FALSE(prob.error.empty());
}

TEST_P(PropertySweep, ParsersSurviveMangledValidInput)
{
    // Take a valid serialization and corrupt one random character.
    problems::Problem p = problems::makeBenchmark("J1");
    std::string text = problems::writeProblem(p);
    size_t pos = rng.index(text.size());
    text[pos] = static_cast<char>(rng.uniformInt(33, 126));
    problems::ProblemParseResult res = problems::parseProblem(text);
    // Either it still parses (benign corruption) or it reports an error;
    // both are fine, crashing is not.
    if (res.problem) {
        EXPECT_EQ(res.problem->numVars(), p.numVars());
    } else {
        EXPECT_FALSE(res.error.empty());
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertySweep,
                         ::testing::Range<uint64_t>(0, 12));

} // namespace
} // namespace rasengan
