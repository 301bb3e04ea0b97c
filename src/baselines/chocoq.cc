#include "baselines/chocoq.h"

#include <cmath>

#include "baselines/qubo.h"
#include "circuit/optimize.h"
#include "circuit/transpile.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/basis.h"
#include "device/latency.h"
#include "opt/factory.h"
#include "problems/metrics.h"

namespace rasengan::baselines {

Chocoq::Chocoq(problems::Problem problem, ChocoqOptions options)
    : problem_(std::move(problem)), options_(std::move(options)),
      harness_(options_.resilience)
{
    lambda_ = options_.penaltyLambda >= 0.0
                  ? options_.penaltyLambda
                  : problems::defaultPenaltyLambda(problem_);
    // Choco-Q drives the mixer with the raw homogeneous basis; Rasengan's
    // simplification pass (Algorithm 1) is its own contribution.
    transitions_ = core::makeTransitions(core::homogeneousBasis(problem_));
}

circuit::Circuit
Chocoq::buildCircuit(const std::vector<double> &params) const
{
    const int layers = options_.layers;
    panic_if(static_cast<int>(params.size()) != 2 * layers,
             "expected {} parameters, got {}", 2 * layers, params.size());
    const int n = problem_.numVars();

    circuit::Circuit circ(n);
    for (int q = 0; q < n; ++q)
        if (problem_.trivialFeasible().get(q))
            circ.x(q);
    for (int l = 0; l < layers; ++l) {
        double gamma = params[l];
        double beta = params[layers + l];
        appendObjectivePhase(circ, problem_.objectiveFn(), gamma);
        for (const auto &transition : transitions_)
            transition.appendToCircuit(circ, beta);
    }
    return circ;
}

qsim::SparseState
Chocoq::simulate(const std::vector<double> &params) const
{
    const int layers = options_.layers;
    const int n = problem_.numVars();
    qsim::SparseState state(n, problem_.trivialFeasible());
    for (int l = 0; l < layers; ++l) {
        double gamma = params[l];
        double beta = params[layers + l];
        state.applyPhase([&](const BitVec &x) {
            return -gamma * problem_.objective(x);
        });
        for (const auto &transition : transitions_)
            transition.applyTo(state, beta);
    }
    return state;
}

double
Chocoq::exactExpectation(const std::vector<double> &params) const
{
    qsim::SparseState state = simulate(params);
    double acc = 0.0;
    const std::vector<BitVec> &keys = state.keys();
    const auto &amps = state.amps();
    for (size_t i = 0; i < keys.size(); ++i)
        acc += std::norm(amps[i]) * problem_.objective(keys[i]);
    return acc;
}

qsim::Counts
Chocoq::sampleFinal(const std::vector<double> &params, Rng &rng,
                    uint64_t shots) const
{
    if (options_.noise.enabled()) {
        circuit::Circuit lowered = circuit::transpile(
            buildCircuit(params),
            {.mode = circuit::TranspileMode::AncillaLadder,
             .lowerToCx = true});
        return qsim::sampleNoisy(lowered, lowered.numQubits(), BitVec{},
                                 options_.noise, rng, shots,
                                 options_.trajectories, problem_.numVars());
    }
    return simulate(params).sample(rng, shots);
}

VqaResult
Chocoq::run()
{
    VqaResult res;
    res.numParams = numParams();

    Stopwatch wall;
    wall.start();
    Stopwatch sim_time;

    Rng rng(options_.seed);
    double attempt_s = 0.0; // per-execution latency, set once x0 is known
    auto objective = [&](const std::vector<double> &params) {
        ScopedTimer guard(sim_time);
        if (options_.noise.enabled()) {
            const uint64_t job_seed = rng.engine()();
            auto sampled = harness_.sample(
                "chocoq-train", options_.shots, problem_.numVars(),
                job_seed, attempt_s, [&](Rng &job_rng, uint64_t shots) {
                    return sampleFinal(params, job_rng, shots);
                });
            if (!sampled.ok())
                return VqaExecHarness::kFailureScore;
            return problems::expectedObjective(problem_, sampled.value(),
                                               lambda_);
        }
        auto value = harness_.expectation("chocoq-train", attempt_s, [&] {
            return exactExpectation(params);
        });
        return value.ok() ? value.value() : VqaExecHarness::kFailureScore;
    };

    std::vector<double> x0 = options_.initialParams;
    if (x0.empty()) {
        x0.assign(numParams(), 0.2);
    } else {
        fatal_if(static_cast<int>(x0.size()) != numParams(),
                 "warm start has {} parameters, ansatz needs {}", x0.size(),
                 numParams());
    }

    // Gate counts (hence latency) are angle-independent, so x0 stands in
    // for the trained parameters here.
    device::LatencyModel latency(options_.latencyDevice);
    attempt_s = latency.executionTimeSeconds(
        circuit::optimizeCircuit(circuit::transpile(
            buildCircuit(x0),
            {.mode = circuit::TranspileMode::AncillaLadder,
             .lowerToCx = true})),
        options_.shots);

    opt::OptOptions oo;
    oo.maxIterations = options_.maxIterations;
    oo.initialStep = 0.3;
    oo.tolerance = 1e-5;
    oo.seed = options_.seed;
    auto optimizer = opt::makeOptimizer(options_.optimizer, oo);
    res.training = optimizer->minimize(objective, x0);
    wall.stop();

    circuit::Circuit lowered = circuit::transpile(
        buildCircuit(res.training.x),
        {.mode = circuit::TranspileMode::AncillaLadder, .lowerToCx = true});
    circuit::Circuit optimized = circuit::optimizeCircuit(lowered);
    res.circuitDepth = optimized.depth();
    res.circuitCx = optimized.countCx();

    res.counts = harness_.sampleFinal(
        "chocoq-final", options_.shots, problem_.numVars(), options_.seed + 1,
        attempt_s, [&](Rng &job_rng, uint64_t shots) {
            return sampleFinal(res.training.x, job_rng, shots);
        });
    finalizeMetrics(problem_, lambda_, res);
    harness_.finalize(res);

    res.classicalSeconds = std::max(0.0, wall.seconds() - sim_time.seconds());
    if (options_.noise.enabled()) {
        // The executor clock accounts every attempt (including retried
        // ones), injected timeouts, and backoff sleeps.
        res.quantumSeconds = harness_.executor().elapsedSeconds();
    } else {
        res.quantumSeconds =
            latency.executionTimeSeconds(optimized, options_.shots) *
            res.training.evaluations;
    }
    return res;
}

} // namespace rasengan::baselines
