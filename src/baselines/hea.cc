#include "baselines/hea.h"

#include <cmath>

#include "baselines/qubo.h"
#include "circuit/transpile.h"
#include "common/logging.h"
#include "common/timer.h"
#include "device/latency.h"
#include "opt/factory.h"
#include "problems/metrics.h"
#include "qsim/statevector.h"

namespace rasengan::baselines {

Hea::Hea(problems::Problem problem, HeaOptions options)
    : problem_(std::move(problem)), options_(std::move(options)),
      harness_(options_.resilience)
{
    const int n = problem_.numVars();
    fatal_if(n > 24, "HEA dense simulation limited to 24 qubits, got {}", n);
    lambda_ = options_.penaltyLambda >= 0.0
                  ? options_.penaltyLambda
                  : problems::defaultPenaltyLambda(problem_);
    diagonal_ = diagonalValues(penaltyQubo(problem_, lambda_), n);
}

circuit::Circuit
Hea::buildCircuit(const std::vector<double> &params) const
{
    const int n = problem_.numVars();
    const int layers = options_.layers;
    panic_if(static_cast<int>(params.size()) != numParams(),
             "expected {} parameters, got {}", numParams(), params.size());

    circuit::Circuit circ(n);
    size_t p = 0;
    for (int col = 0; col <= layers; ++col) {
        for (int q = 0; q < n; ++q) {
            circ.ry(q, params[p++]);
            circ.rz(q, params[p++]);
        }
        if (col < layers) {
            for (int q = 0; q + 1 < n; ++q)
                circ.cx(q, q + 1);
        }
    }
    return circ;
}

double
Hea::exactExpectation(const std::vector<double> &params) const
{
    qsim::Statevector sv(problem_.numVars());
    sv.applyCircuit(buildCircuit(params));
    double acc = 0.0;
    const auto &amps = sv.amplitudes();
    for (size_t i = 0; i < amps.size(); ++i)
        acc += std::norm(amps[i]) * diagonal_[i];
    return acc;
}

qsim::Counts
Hea::sampleFinal(const std::vector<double> &params, Rng &rng,
                 uint64_t shots) const
{
    if (options_.noise.enabled()) {
        circuit::Circuit circ = buildCircuit(params);
        return qsim::sampleNoisy(circ, circ.numQubits(), BitVec{},
                                 options_.noise, rng, shots,
                                 options_.trajectories,
                                 problem_.numVars());
    }
    qsim::Statevector sv(problem_.numVars());
    sv.applyCircuit(buildCircuit(params));
    return sv.sample(rng, shots);
}

VqaResult
Hea::run()
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
                "hea-train", options_.shots, problem_.numVars(), job_seed,
                attempt_s, [&](Rng &job_rng, uint64_t shots) {
                    return sampleFinal(params, job_rng, shots);
                });
            if (!sampled.ok())
                return VqaExecHarness::kFailureScore;
            return problems::expectedObjective(problem_, sampled.value(),
                                               lambda_);
        }
        auto value = harness_.expectation("hea-train", attempt_s, [&] {
            return exactExpectation(params);
        });
        return value.ok() ? value.value() : VqaExecHarness::kFailureScore;
    };

    // Small random initialization breaks the barren symmetry at zero.
    std::vector<double> x0 = options_.initialParams;
    if (x0.empty()) {
        Rng init_rng(options_.seed + 17);
        x0.resize(numParams());
        for (double &p : x0)
            p = init_rng.uniformReal(-0.2, 0.2);
    } else {
        fatal_if(static_cast<int>(x0.size()) != numParams(),
                 "warm start has {} parameters, ansatz needs {}", x0.size(),
                 numParams());
    }

    // Gate counts (hence latency) are angle-independent, so x0 stands in
    // for the trained parameters here.
    device::LatencyModel latency(options_.latencyDevice);
    attempt_s =
        latency.executionTimeSeconds(buildCircuit(x0), options_.shots);

    opt::OptOptions oo;
    oo.maxIterations = options_.maxIterations;
    oo.initialStep = 0.3;
    oo.tolerance = 1e-5;
    oo.seed = options_.seed;
    auto optimizer = opt::makeOptimizer(options_.optimizer, oo);
    res.training = optimizer->minimize(objective, x0);
    wall.stop();

    circuit::Circuit circ = buildCircuit(res.training.x);
    res.circuitDepth = circ.depth();
    res.circuitCx = circ.countCx();

    res.counts = harness_.sampleFinal(
        "hea-final", options_.shots, problem_.numVars(), options_.seed + 1,
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
            latency.executionTimeSeconds(circ, options_.shots) *
            res.training.evaluations;
    }
    return res;
}

} // namespace rasengan::baselines
