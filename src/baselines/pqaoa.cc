#include "baselines/pqaoa.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "baselines/qubo.h"
#include "circuit/optimize.h"
#include "circuit/transpile.h"
#include "common/logging.h"
#include "common/timer.h"
#include "device/latency.h"
#include "opt/factory.h"
#include "problems/metrics.h"
#include "qsim/statevector.h"

namespace rasengan::baselines {

Pqaoa::Pqaoa(problems::Problem problem, PqaoaOptions options)
    : problem_(std::move(problem)), options_(std::move(options)),
      harness_(options_.resilience)
{
    lambda_ = options_.penaltyLambda >= 0.0
                  ? options_.penaltyLambda
                  : problems::defaultPenaltyLambda(problem_);
    qubo_ = penaltyQubo(problem_, lambda_);

    const int n = problem_.numVars();
    int freeze = std::clamp(options_.frozenQubits, 0, n - 1);

    // FrozenQubits: rank variables by QUBO degree (hotspots first).
    std::vector<int> degree(n, 0);
    for (const auto &[i, j, q] : qubo_.quadratic()) {
        if (q != 0.0) {
            ++degree[i];
            ++degree[j];
        }
    }
    std::vector<int> order(n);
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return degree[a] > degree[b];
    });
    std::vector<bool> frozen(n, false);
    for (int k = 0; k < freeze; ++k)
        frozen[order[k]] = true;
    for (int v = 0; v < n; ++v) {
        if (frozen[v]) {
            if (problem_.trivialFeasible().get(v))
                frozenValues_.set(v);
        } else {
            active_.push_back(v);
        }
    }
    const int a = static_cast<int>(active_.size());
    fatal_if(a > 24, "P-QAOA dense simulation limited to 24 qubits, got {}",
             a);

    // Substitute frozen values into the QUBO to get the reduced problem.
    std::vector<int> var_to_active(n, -1);
    for (int k = 0; k < a; ++k)
        var_to_active[active_[k]] = k;
    reducedQubo_ = problems::QuadraticObjective(a);
    reducedQubo_.addConstant(qubo_.constant());
    for (int v = 0; v < n; ++v) {
        double l = qubo_.linear()[v];
        if (l == 0.0)
            continue;
        if (frozen[v]) {
            if (frozenValues_.get(v))
                reducedQubo_.addConstant(l);
        } else {
            reducedQubo_.addLinear(var_to_active[v], l);
        }
    }
    for (const auto &[i, j, q] : qubo_.quadratic()) {
        bool fi = frozen[i], fj = frozen[j];
        double vi = frozenValues_.get(i) ? 1.0 : 0.0;
        double vj = frozenValues_.get(j) ? 1.0 : 0.0;
        if (fi && fj) {
            reducedQubo_.addConstant(q * vi * vj);
        } else if (fi) {
            if (vi != 0.0)
                reducedQubo_.addLinear(var_to_active[j], q);
        } else if (fj) {
            if (vj != 0.0)
                reducedQubo_.addLinear(var_to_active[i], q);
        } else {
            reducedQubo_.addQuadratic(var_to_active[i], var_to_active[j], q);
        }
    }
    reducedQubo_.normalize();
    diagonal_ = diagonalValues(reducedQubo_, a);
}

circuit::Circuit
Pqaoa::buildCircuit(const std::vector<double> &params) const
{
    const int layers = options_.layers;
    panic_if(static_cast<int>(params.size()) != 2 * layers,
             "expected {} parameters, got {}", 2 * layers, params.size());
    const int a = numActiveQubits();

    circuit::Circuit circ(a);
    for (int q = 0; q < a; ++q)
        circ.h(q);
    for (int l = 0; l < layers; ++l) {
        double gamma = params[l];
        double beta = params[layers + l];
        appendObjectivePhase(circ, reducedQubo_, gamma);
        for (int q = 0; q < a; ++q)
            circ.rx(q, 2.0 * beta);
    }
    return circ;
}

BitVec
Pqaoa::lift(const BitVec &active_outcome) const
{
    BitVec full = frozenValues_;
    for (size_t k = 0; k < active_.size(); ++k)
        if (active_outcome.get(static_cast<int>(k)))
            full.set(active_[k]);
    return full;
}

std::vector<double>
Pqaoa::initialParams() const
{
    const int layers = options_.layers;
    std::vector<double> params(2 * layers);
    if (options_.smartInit) {
        // Red-QAOA seeding: a discretized annealing ramp.
        for (int l = 0; l < layers; ++l) {
            double frac = static_cast<double>(l + 1) / layers;
            params[l] = 0.05 * frac;                 // gamma ramps up
            params[layers + l] = 0.8 * (1.0 - frac); // beta ramps down
        }
    } else {
        std::fill(params.begin(), params.end(), 0.1);
    }
    return params;
}

double
Pqaoa::exactExpectation(const std::vector<double> &params) const
{
    const int layers = options_.layers;
    const int a = numActiveQubits();
    qsim::Statevector sv(a);
    for (int q = 0; q < a; ++q)
        sv.apply1q(q, qsim::gateMatrix(circuit::GateKind::H, 0.0));
    for (int l = 0; l < layers; ++l) {
        sv.applyDiagonalEvolution(diagonal_, params[l]);
        qsim::Mat2 rx =
            qsim::gateMatrix(circuit::GateKind::RX, 2.0 * params[layers + l]);
        for (int q = 0; q < a; ++q)
            sv.apply1q(q, rx);
    }
    double acc = 0.0;
    const auto &amps = sv.amplitudes();
    for (size_t i = 0; i < amps.size(); ++i)
        acc += std::norm(amps[i]) * diagonal_[i];
    return acc;
}

qsim::Counts
Pqaoa::sampleFinal(const std::vector<double> &params, Rng &rng,
                   uint64_t shots) const
{
    qsim::Counts active_counts;
    if (options_.noise.enabled()) {
        circuit::Circuit lowered = circuit::transpile(
            buildCircuit(params),
            {.mode = circuit::TranspileMode::GrayCode, .lowerToCx = true});
        active_counts =
            qsim::sampleNoisy(lowered, lowered.numQubits(), BitVec{},
                              options_.noise, rng, shots,
                              options_.trajectories, numActiveQubits());
    } else {
        const int layers = options_.layers;
        const int a = numActiveQubits();
        qsim::Statevector sv(a);
        for (int q = 0; q < a; ++q)
            sv.apply1q(q, qsim::gateMatrix(circuit::GateKind::H, 0.0));
        for (int l = 0; l < layers; ++l) {
            sv.applyDiagonalEvolution(diagonal_, params[l]);
            qsim::Mat2 rx = qsim::gateMatrix(circuit::GateKind::RX,
                                             2.0 * params[layers + l]);
            for (int q = 0; q < a; ++q)
                sv.apply1q(q, rx);
        }
        active_counts = sv.sample(rng, shots);
    }
    qsim::Counts lifted;
    for (const auto &[outcome, cnt] : active_counts.map())
        lifted.add(lift(outcome), cnt);
    return lifted;
}

VqaResult
Pqaoa::run()
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
            // Hardware-style training: estimate from noisy samples.
            const uint64_t job_seed = rng.engine()();
            auto sampled = harness_.sample(
                "pqaoa-train", options_.shots, problem_.numVars(),
                job_seed, attempt_s, [&](Rng &job_rng, uint64_t shots) {
                    return sampleFinal(params, job_rng, shots);
                });
            if (!sampled.ok())
                return VqaExecHarness::kFailureScore;
            return problems::expectedObjective(problem_, sampled.value(),
                                               lambda_);
        }
        auto value = harness_.expectation("pqaoa-train", attempt_s, [&] {
            return exactExpectation(params);
        });
        return value.ok() ? value.value() : VqaExecHarness::kFailureScore;
    };

    opt::OptOptions oo;
    oo.maxIterations = options_.maxIterations;
    oo.initialStep = 0.3;
    oo.tolerance = 1e-5;
    oo.seed = options_.seed;
    std::vector<double> x0 = options_.initialParams;
    if (x0.empty()) {
        x0 = initialParams();
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
            {.mode = circuit::TranspileMode::GrayCode, .lowerToCx = true})),
        options_.shots);

    auto optimizer = opt::makeOptimizer(options_.optimizer, oo);
    res.training = optimizer->minimize(objective, x0);
    wall.stop();

    circuit::Circuit lowered = circuit::transpile(
        buildCircuit(res.training.x),
        {.mode = circuit::TranspileMode::GrayCode, .lowerToCx = true});
    circuit::Circuit optimized = circuit::optimizeCircuit(lowered);
    res.circuitDepth = optimized.depth();
    res.circuitCx = optimized.countCx();

    res.counts = harness_.sampleFinal(
        "pqaoa-final", options_.shots, problem_.numVars(), options_.seed + 1,
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
