/**
 * @file
 * The end-to-end Rasengan solver (Sections 3-4).
 *
 * Pipeline: homogeneous basis -> (opt 1) simplification -> transition
 * Hamiltonians -> chain construction with (opt 2) pruning/early stop ->
 * (opt 3) segmentation -> training loop that tunes the evolution time of
 * every kept transition with a COBYLA-style optimizer, executing the
 * segmented pipeline and forwarding the measured distribution between
 * segments, with purification-based error mitigation between segments.
 *
 * Execution backends:
 *  - ExactSparse: propagate exact Born probabilities through the sparse
 *    simulator (noise-free algorithmic evaluation, Table 2);
 *  - SampledSparse: shot-sampled forwarding (adds shot noise; scales to
 *    the 105-variable instances);
 *  - NoisyInjected: SampledSparse plus per-segment error injection whose
 *    rate derives from the segment's CX count and the device's two-qubit
 *    error rate (the scalable stand-in for hardware noise, Figure 10d);
 *  - NoisyGateLevel: full gate-level trajectory simulation of each
 *    transpiled segment under a NoiseModel (the stand-in for the IBM
 *    hardware runs, Figures 11/16).
 */

#ifndef RASENGAN_CORE_RASENGAN_H
#define RASENGAN_CORE_RASENGAN_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "circuit/transpile.h"
#include "common/bitvecset.h"
#include "core/chain.h"
#include "core/segment.h"
#include "device/device.h"
#include "device/latency.h"
#include "exec/checkpoint.h"
#include "exec/executor.h"
#include "opt/factory.h"
#include "opt/optimizer.h"
#include "problems/problem.h"
#include "qsim/noise.h"
#include "qsim/sparsestate.h"

namespace rasengan::core {

struct RasenganOptions
{
    enum class Execution {
        ExactSparse,
        SampledSparse,
        NoisyInjected,
        NoisyGateLevel,
    };

    /// @name Ablation toggles (Section 5.6)
    /// @{
    bool simplify = true;          ///< opt 1: Algorithm 1
    bool prune = true;             ///< opt 2: chain pruning + early stop
    int transitionsPerSegment = 3; ///< opt 3: segment size; <= 0 = one segment
    bool purify = true;            ///< opt 3: purification between segments
    /// @}

    /// @name Training
    /// @{
    int maxIterations = 300;       ///< optimizer evaluation budget
    double initialTime = 0.6;      ///< initial evolution times
    uint64_t seed = 7;
    opt::Method optimizer = opt::Method::Cobyla;
    /// @}

    /// @name Execution
    /// @{
    Execution execution = Execution::ExactSparse;
    uint64_t shotsPerSegment = 1024;
    /**
     * Apply tensored readout-error mitigation (device/mitigation.h) to
     * each segment's raw counts before purification, using the noise
     * model's readout rate as the calibration.  Orthogonal to
     * purification: mitigation fixes measurement flips, purification
     * removes gate-error leakage out of the feasible space.
     */
    bool mitigateReadout = false;
    /**
     * Per-segment shot multiplier (Figure 7's "x10 for the third
     * segment" knob): segment s executes shotsPerSegment * growth^s
     * shots, trading execution overhead for sharper probability
     * forwarding deep in the chain.  1.0 = uniform shots.
     */
    double shotGrowth = 1.0;
    qsim::NoiseModel noise;        ///< for the two noisy backends
    int trajectories = 8;          ///< gate-level noisy trajectories
    circuit::TranspileMode transpileMode =
        circuit::TranspileMode::AncillaLadder;
    int rounds = -1;               ///< chain rounds; -1 = m (Theorem 1)
    size_t maxTrackedStates = size_t{1} << 20; ///< pruning reachability cap
    /**
     * Post-rotation prune threshold on |amplitude|^2 forwarded to every
     * sparse kernel invocation (<= 0 disables pruning entirely, keeping
     * exact zeros in the support).
     */
    double sparsePruneThreshold = qsim::SparseState::kDefaultPruneThreshold;
    /// @}

    /** Device whose durations drive the quantum-latency estimate. */
    device::DeviceModel latencyDevice = device::DeviceModel::ibmQuebec();

    /// @name Artifact injection (src/serve)
    /// @{
    /**
     * Precomputed pipeline artifacts (transitions, chain, segments,
     * nominal segment costs) to adopt instead of building them in the
     * constructor.  Must have been built by buildPipelineArtifacts() for
     * the SAME problem and the same values of every option it reads
     * (see there) -- the serve layer's ArtifactCache guarantees this by
     * keying on the canonical problem + those options.
     */
    std::shared_ptr<const struct PipelineArtifacts> pipeline;
    /**
     * Optional transpile memo for NoisyGateLevel, which lowers each
     * segment at its trained times: when set, those lowerings go
     * through this hook instead of circuit::transpile directly, letting
     * the serve layer content-address transpiled circuits across jobs.
     * The hook MUST be semantically transparent (return exactly
     * transpile(circ, opts)); results are bit-identical with or without
     * it.
     */
    std::function<circuit::Circuit(const circuit::Circuit &,
                                   const circuit::TranspileOptions &)>
        lowerCircuit;
    /// @}

    /// @name Resilience (src/exec)
    /// @{
    /**
     * Retry/backoff, circuit-breaker, fault-injection, and degradation
     * configuration for the shot-based backends.  The fault injector is
     * enabled by `resilience.faults.rate > 0`; retries are always on.
     */
    exec::ResilienceOptions resilience;
    /**
     * When non-empty, run() checkpoints the solve to this file: the
     * trained evolution times after training, then the forwarded
     * distribution + RNG state after every segment of the final
     * execution.  A later run() with the same path resumes bit-exactly
     * from the last completed step instead of re-training.
     */
    std::string checkpointPath;
    /// @}
};

/**
 * Nominal cost of one segment: its circuit on the problem's trivial
 * feasible input with every evolution time at initialTime, transpiled
 * once and peephole-optimized once.
 */
struct SegmentCost
{
    /** LatencyModel::circuitTimeUs of the transpiled circuit. */
    double circuitUs = 0.0;
    int depth = 0; ///< depth after optimizeCircuit
    int cx = 0;    ///< CX count after optimizeCircuit
    /**
     * CX count of the transpiled circuit before optimizeCircuit.  Input
     * state and evolution times never change it (X preparation adds no
     * CX, and lowering does not branch on angles), so NoisyInjected
     * reads its error rate from here at any trained times.
     */
    int loweredCx = 0;
};

/**
 * The expensive reusable artifacts of one solver configuration: the
 * transition-Hamiltonian set over the problem's homogeneous basis, the
 * pruned chain, its segmentation, and each segment's nominal cost.
 * Computed once by buildPipelineArtifacts and shareable across every
 * solve of the same (problem, pipeline-config) pair -- the serve layer
 * memoizes these in its content-addressed cache and injects them via
 * RasenganOptions::pipeline.
 */
struct PipelineArtifacts
{
    std::vector<TransitionHamiltonian> transitions;
    Chain chain;
    std::vector<Segment> segments;
    std::vector<SegmentCost> segmentCosts; ///< one per segment
};

/**
 * Build the pipeline artifacts exactly as the RasenganSolver
 * constructor would: basis extraction + simplification + augmentation,
 * chain construction with pruning/early-stop, segmentation, and the
 * nominal segment costs.  The fields of @p options read are the ones
 * that shape the pipeline (simplify, prune, rounds,
 * transitionsPerSegment, maxTrackedStates) and the ones the costs
 * depend on (transpileMode, initialTime, latencyDevice).
 */
PipelineArtifacts buildPipelineArtifacts(const problems::Problem &problem,
                                         const RasenganOptions &options);

/**
 * Hooks into one segmented execution: checkpoint sink, resume source,
 * and a deterministic kill switch used by the resume tests.
 */
struct ExecHooks
{
    /** Called after each segment with the state needed to resume. */
    std::function<void(const exec::SegmentCheckpoint &)> onSegmentDone;
    /** Abort (as if killed) after this segment index; -1 = never. */
    int stopAfterSegment = -1;
    /** Resume from this snapshot instead of starting at segment 0. */
    const exec::SegmentCheckpoint *resumeFrom = nullptr;
};

/** Final output distribution of one pipeline execution. */
struct RasenganDistribution
{
    /** (state, probability) in ascending state order — deterministic, so
     *  equal-objective tie-breaks and FP accumulation over the entries do
     *  not depend on hash-map layout (live vs checkpoint-resumed runs). */
    std::vector<std::pair<BitVec, double>> entries;
    bool failed = false; ///< purification emptied a segment's output
    bool aborted = false; ///< stopped early by ExecHooks::stopAfterSegment
    /** Stopped by the resilience cancel token (deadline or drain). */
    bool deadlineHit = false;
    double prePurifyFeasibleFraction = 1.0; ///< feasible mass before purify
};

struct RasenganResult
{
    bool failed = false;
    BitVec solution;               ///< best feasible outcome found
    double objectiveValue = 0.0;   ///< objective at `solution`
    double expectedObjective = 0.0;///< expectation over final distribution
    double inConstraintsRate = 1.0;///< feasible fraction of raw output
    RasenganDistribution finalDistribution;

    int numParams = 0;             ///< trained evolution times
    int chainLength = 0;           ///< kept transition operators
    int unprunedLength = 0;        ///< m * rounds before pruning
    int numSegments = 0;
    int maxSegmentDepth = 0;       ///< transpiled+optimized segment depth
    int maxSegmentCx = 0;
    size_t feasibleCovered = 0;    ///< reachable feasible states

    double classicalSeconds = 0.0; ///< measured wall time (classical part)
    double quantumSeconds = 0.0;   ///< latency-model estimate
    opt::OptResult training;

    bool resumed = false; ///< produced from a checkpoint, training skipped
    /** Failed because the cancel token tripped (deadline or drain),
     *  not because execution itself broke. */
    bool deadlineHit = false;
    exec::ExecStats execStats;     ///< retries/failures/backoff summary
    exec::DegradationLevel degradation = exec::DegradationLevel::Full;
};

class RasenganSolver
{
  public:
    RasenganSolver(problems::Problem problem, RasenganOptions options = {});

    const problems::Problem &problem() const { return problem_; }
    const RasenganOptions &opts() const { return options_; }

    /// @name Pipeline artifacts (available after construction)
    /// @{
    const std::vector<TransitionHamiltonian> &transitions() const
    {
        return pipeline_->transitions;
    }
    const Chain &chain() const { return pipeline_->chain; }
    const std::vector<Segment> &segments() const
    {
        return pipeline_->segments;
    }
    const std::vector<SegmentCost> &segmentCosts() const
    {
        return pipeline_->segmentCosts;
    }
    int numParams() const
    {
        return static_cast<int>(pipeline_->chain.steps.size());
    }
    /// @}

    /**
     * Gate-level circuit of segment @p seg_index: X-gates preparing
     * @p init, then the segment's transition operators at @p times
     * (indexed by chain position).
     */
    circuit::Circuit segmentCircuit(int seg_index, const BitVec &init,
                                    const std::vector<double> &times) const;

    /**
     * Largest depth and CX count over the nominal segment costs (after
     * transpilation and peephole optimization: the paper's
     * deployable-depth metric).
     */
    std::pair<int, int> maxSegmentCost() const;

    /** Execute the segmented pipeline once with the given times. */
    RasenganDistribution execute(const std::vector<double> &times,
                                 Rng &rng) const;

    /** Execute with checkpoint/resume/kill hooks. */
    RasenganDistribution execute(const std::vector<double> &times,
                                 Rng &rng, const ExecHooks &hooks) const;

    /** Train the evolution times and return the full result. */
    RasenganResult run();

    /**
     * The resilient executor all shot-based executions route through
     * (per-solver state: retry stats, breaker, degradation ladder).
     */
    exec::ResilientExecutor &executor() const { return *executor_; }

    /**
     * Largest sparse-simulator support seen at any segment boundary
     * across every execution so far -- the observed support-growth
     * summary the serve telemetry carries.
     */
    uint64_t maxObservedSupport() const { return maxObservedSupport_; }

  private:
    /** transpile() via options_.lowerCircuit when set (serve memo). */
    circuit::Circuit lowerSegment(const circuit::Circuit &circ) const;
    double scoreDistribution(const RasenganDistribution &dist) const;
    RasenganResult summarize(const std::vector<double> &times,
                             opt::OptResult training, double classical_s,
                             double quantum_s,
                             const exec::SegmentCheckpoint *resume) const;
    double perExecutionQuantumSeconds() const;
    qsim::Counts sampleSegment(int seg_index,
                               const std::vector<double> &times,
                               const std::vector<std::pair<BitVec,
                                   uint64_t>> &alloc,
                               Rng &rng) const;
    /**
     * Evolve |init> through segment @p seg_index at the given times --
     * the single sparse-evolution entry point shared by the exact and
     * sampled backends.  Returns the solver's one reused state, which
     * the next call overwrites.
     */
    const qsim::SparseState &
    evolveSegment(int seg_index, const BitVec &init,
                  const std::vector<double> &times) const;
    /**
     * problem_.isFeasible(@p x), asked of the problem once per distinct
     * feasible state: a true verdict is cached for the solver's
     * lifetime, a false one is recomputed (noisy backends produce
     * infeasible states, and only feasible states recur).
     */
    bool verifiedFeasible(const BitVec &x) const;

    problems::Problem problem_;
    RasenganOptions options_;
    std::shared_ptr<const PipelineArtifacts> pipeline_;
    std::unique_ptr<exec::ResilientExecutor> executor_;
    /** Latency-model seconds of one execution of each segment at its
     *  shot count, from the nominal segment costs. */
    std::vector<double> segmentSeconds_;
    /**
     * The state every segment evolution runs in, reset per evolution so
     * its buffers are reused.  Like executor_, this is per-solver
     * mutable state: a solver instance is driven from one thread at a
     * time (the serve layer builds one solver per job), so no
     * synchronization is needed.
     */
    mutable qsim::SparseState sim_;
    mutable uint64_t maxObservedSupport_ = 0;
    /** States verifiedFeasible() has found to satisfy C x = b. */
    mutable BitVecSet feasibleSeen_;
};

} // namespace rasengan::core

#endif // RASENGAN_CORE_RASENGAN_H
