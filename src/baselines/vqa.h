/**
 * @file
 * Shared option/result types for the baseline VQAs (HEA, P-QAOA,
 * Choco-Q), mirroring the evaluation protocol of Section 5: five layers,
 * a COBYLA-style optimizer with a bounded evaluation budget, and metrics
 * computed from a sampled output distribution.
 */

#ifndef RASENGAN_BASELINES_VQA_H
#define RASENGAN_BASELINES_VQA_H

#include <functional>
#include <string>

#include "device/device.h"
#include "exec/executor.h"
#include "opt/factory.h"
#include "opt/optimizer.h"
#include "problems/problem.h"
#include "qsim/counts.h"
#include "qsim/noise.h"

namespace rasengan::baselines {

struct VqaOptions
{
    int layers = 5;            ///< repeated ansatz layers (Section 5.2)
    int maxIterations = 300;   ///< optimizer evaluation budget
    uint64_t shots = 1024;     ///< final sampling shots
    uint64_t seed = 11;
    double penaltyLambda = -1.0; ///< <0: problems::defaultPenaltyLambda
    opt::Method optimizer = opt::Method::Cobyla;

    /** When enabled, training and sampling run gate-level under noise. */
    qsim::NoiseModel noise;
    int trajectories = 8;

    /** Device whose durations drive the quantum-latency estimate. */
    device::DeviceModel latencyDevice = device::DeviceModel::ibmQuebec();

    /**
     * Optional warm start (e.g. layerwise training across layer counts);
     * empty selects each algorithm's default initialization.  Length must
     * match the algorithm's parameter count when set.
     */
    std::vector<double> initialParams;

    /**
     * Retry/backoff, fault-injection, and degradation configuration; all
     * baseline executions route through the same resilient engine as
     * RasenganSolver (src/exec).
     */
    exec::ResilienceOptions resilience;
};

struct VqaResult
{
    qsim::Counts counts;          ///< final output distribution
    double expectedObjective = 0; ///< penalized expectation over counts
    double inConstraintsRate = 0; ///< feasible fraction of counts
    int circuitDepth = 0;         ///< transpiled full-circuit depth
    int circuitCx = 0;
    int numParams = 0;
    opt::OptResult training;
    double classicalSeconds = 0.0;
    double quantumSeconds = 0.0;

    exec::ExecStats execStats;    ///< retries/failures/backoff summary
    exec::DegradationLevel degradation = exec::DegradationLevel::Full;
};

/** Fill the counts-derived metric fields of @p result. */
void finalizeMetrics(const problems::Problem &problem, double lambda,
                     VqaResult &result);

/**
 * Shared resilient-execution harness for the baseline VQAs: owns a
 * ResilientExecutor and runs one sampling or expectation call through
 * its demote-and-retry loop (ResilientExecutor::runDegrading).  Shots
 * are re-derived from the ladder on every attempt so a ReducedShots
 * demotion takes effect immediately.
 */
class VqaExecHarness
{
  public:
    /** Objective value reported when an execution fails permanently. */
    static constexpr double kFailureScore = 1e18;

    explicit VqaExecHarness(const exec::ResilienceOptions &options)
        : executor_(options)
    {
    }

    /**
     * Sample with retries and degradation.  @p fn is called with a fresh
     * Rng(@p rngSeed) and the ladder-adjusted shot count per attempt.
     */
    exec::Expected<qsim::Counts>
    sample(const std::string &tag, uint64_t nominalShots, int numBits,
           uint64_t rngSeed, double attemptSeconds,
           const std::function<qsim::Counts(Rng &, uint64_t)> &fn);

    /**
     * The final sampling: sample(), then, when the ladder is spent,
     * a warning and one clean-simulator call of @p fn with
     * Rng(@p rngSeed).  A stopped job (deadline or cancellation) gets
     * no fallback: it returns empty counts, which the caller reports.
     */
    qsim::Counts
    sampleFinal(const std::string &tag, uint64_t shots, int numBits,
                uint64_t rngSeed, double attemptSeconds,
                const std::function<qsim::Counts(Rng &, uint64_t)> &fn);

    /** Evaluate an expectation value with retries and degradation. */
    exec::Expected<double>
    expectation(const std::string &tag, double attemptSeconds,
                const std::function<double()> &fn);

    exec::ResilientExecutor &executor() { return executor_; }

    /** Copy stats/level into @p result at the end of a run. */
    void finalize(VqaResult &result);

  private:
    exec::ResilientExecutor executor_;
};

} // namespace rasengan::baselines

#endif // RASENGAN_BASELINES_VQA_H
