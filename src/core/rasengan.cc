#include "core/rasengan.h"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <unordered_map>

#include "circuit/optimize.h"
#include "common/logging.h"
#include "common/timer.h"
#include "core/basis.h"
#include "device/mitigation.h"
#include "obs/flight.h"
#include "obs/trace.h"
#include "opt/cobyla.h"
#include "problems/metrics.h"
#include "qsim/sparsestate.h"

namespace rasengan::core {

namespace {

using ProbMap = std::unordered_map<BitVec, double, BitVecHash>;
using ShotMap = std::unordered_map<BitVec, uint64_t, BitVecHash>;

constexpr double kFailureScore = 1e18;

/** "seg=<s>" span detail, built only when a span will record it. */
std::string
segmentDetail(int s)
{
    if (!obs::tracingEnabled() && !obs::flight::enabled())
        return std::string();
    return "seg=" + std::to_string(s);
}

/**
 * Gate-level circuit of @p seg over @p num_vars qubits: X gates
 * preparing @p init, then the segment's transition operators at
 * @p times (indexed by chain position).
 */
circuit::Circuit
buildSegmentCircuit(int num_vars,
                    const std::vector<TransitionHamiltonian> &transitions,
                    const Chain &chain, const Segment &seg,
                    const BitVec &init, const std::vector<double> &times)
{
    circuit::Circuit circ(num_vars);
    // A column of X gates prepares the segment's input basis state
    // (Section 4.2: equivalent to circuit merging).
    for (int q = 0; q < num_vars; ++q)
        if (init.get(q))
            circ.x(q);
    for (int pos = seg.firstStep; pos < seg.firstStep + seg.stepCount;
         ++pos) {
        transitions[chain.steps[pos]].appendToCircuit(circ, times[pos]);
    }
    return circ;
}

circuit::TranspileOptions
segmentTranspileOptions(const RasenganOptions &options)
{
    return {.mode = options.transpileMode, .lowerToCx = true};
}

} // namespace

PipelineArtifacts
buildPipelineArtifacts(const problems::Problem &problem,
                       const RasenganOptions &options)
{
    obs::Span pipeline_span("transition", "build-pipeline");
    PipelineArtifacts artifacts;
    {
        obs::Span span("transition", "transition-set");
        artifacts.transitions = makeTransitions(
            transitionVectors(problem, options.simplify,
                              options.maxTrackedStates));
    }

    ChainOptions chain_opts;
    chain_opts.rounds = options.rounds;
    chain_opts.prune = options.prune;
    chain_opts.earlyStop = options.prune;
    chain_opts.maxTrackedStates = options.maxTrackedStates;
    {
        obs::Span span("transition", "build-chain");
        artifacts.chain = buildChain(artifacts.transitions,
                                     problem.trivialFeasible(), chain_opts);
    }

    {
        obs::Span span("transition", "partition-chain");
        artifacts.segments =
            partitionChain(static_cast<int>(artifacts.chain.steps.size()),
                           options.transitionsPerSegment);
    }

    {
        // Each segment at nominal times, lowered and optimized once;
        // summaries and the latency model only read these.
        obs::Span span("transition", "segment-costs");
        device::LatencyModel latency(options.latencyDevice);
        const std::vector<double> nominal(artifacts.chain.steps.size(),
                                          options.initialTime);
        for (const Segment &seg : artifacts.segments) {
            circuit::Circuit lowered = circuit::transpile(
                buildSegmentCircuit(problem.numVars(), artifacts.transitions,
                                    artifacts.chain, seg,
                                    problem.trivialFeasible(), nominal),
                segmentTranspileOptions(options));
            circuit::Circuit optimized = circuit::optimizeCircuit(lowered);
            artifacts.segmentCosts.push_back(
                {.circuitUs = latency.circuitTimeUs(lowered),
                 .depth = optimized.depth(),
                 .cx = optimized.countCx(),
                 .loweredCx = lowered.countCx()});
        }
    }
    return artifacts;
}

RasenganSolver::RasenganSolver(problems::Problem problem,
                               RasenganOptions options)
    : problem_(std::move(problem)), options_(std::move(options)),
      pipeline_(options_.pipeline
                    ? options_.pipeline
                    : std::make_shared<const PipelineArtifacts>(
                          buildPipelineArtifacts(problem_, options_))),
      executor_(std::make_unique<exec::ResilientExecutor>(
          options_.resilience)),
      sim_(problem_.numVars(), BitVec{})
{
    device::LatencyModel latency(options_.latencyDevice);
    for (int s = 0; s < static_cast<int>(segments().size()); ++s) {
        uint64_t shots = static_cast<uint64_t>(
            static_cast<double>(options_.shotsPerSegment) *
            std::pow(std::max(options_.shotGrowth, 1e-6), s));
        segmentSeconds_.push_back(latency.executionTimeSeconds(
            segmentCosts()[s].circuitUs, shots));
    }
}

const qsim::SparseState &
RasenganSolver::evolveSegment(int seg_index, const BitVec &init,
                              const std::vector<double> &times) const
{
    obs::Span span("segment-evolve", "evolve", segmentDetail(seg_index));
    const Segment &seg = segments()[seg_index];
    sim_.reset(init);
    for (int pos = seg.firstStep; pos < seg.firstStep + seg.stepCount;
         ++pos)
        transitions()[chain().steps[pos]].applyTo(sim_, times[pos]);
    maxObservedSupport_ =
        std::max<uint64_t>(maxObservedSupport_, sim_.supportSize());
    return sim_;
}

bool
RasenganSolver::verifiedFeasible(const BitVec &x) const
{
    if (feasibleSeen_.contains(x))
        return true;
    if (!problem_.isFeasible(x))
        return false;
    feasibleSeen_.insert(x);
    return true;
}

circuit::Circuit
RasenganSolver::lowerSegment(const circuit::Circuit &circ) const
{
    circuit::TranspileOptions topts = segmentTranspileOptions(options_);
    if (options_.lowerCircuit)
        return options_.lowerCircuit(circ, topts);
    return circuit::transpile(circ, topts);
}

circuit::Circuit
RasenganSolver::segmentCircuit(int seg_index, const BitVec &init,
                               const std::vector<double> &times) const
{
    panic_if(seg_index < 0 ||
                 seg_index >= static_cast<int>(segments().size()),
             "segment {} out of range", seg_index);
    panic_if(times.size() != chain().steps.size(),
             "expected {} evolution times, got {}", chain().steps.size(),
             times.size());
    return buildSegmentCircuit(problem_.numVars(), transitions(), chain(),
                               segments()[seg_index], init, times);
}

std::pair<int, int>
RasenganSolver::maxSegmentCost() const
{
    int max_depth = 0;
    int max_cx = 0;
    for (const SegmentCost &cost : segmentCosts()) {
        max_depth = std::max(max_depth, cost.depth);
        max_cx = std::max(max_cx, cost.cx);
    }
    return {max_depth, max_cx};
}

qsim::Counts
RasenganSolver::sampleSegment(
    int seg_index, const std::vector<double> &times,
    const std::vector<std::pair<BitVec, uint64_t>> &alloc, Rng &rng) const
{
    const int n = problem_.numVars();
    qsim::Counts raw;
    for (const auto &[state, state_shots] : alloc) {
        if (state_shots == 0)
            continue;
        if (options_.execution ==
            RasenganOptions::Execution::NoisyGateLevel) {
            circuit::Circuit circ = segmentCircuit(seg_index, state, times);
            circuit::Circuit lowered = lowerSegment(circ);
            // The segment circuit itself prepares `state` with its
            // leading X column, so the register starts at |0...0>.
            qsim::Counts part = qsim::sampleNoisy(
                lowered, lowered.numQubits(), BitVec{}, options_.noise,
                rng, state_shots, options_.trajectories, n);
            for (const auto &[y, cnt] : part.map())
                raw.add(y, cnt);
        } else {
            const qsim::SparseState &sim =
                evolveSegment(seg_index, state, times);
            qsim::Counts part = sim.sample(rng, state_shots);
            if (options_.execution ==
                RasenganOptions::Execution::NoisyInjected) {
                // Error injection: each shot is corrupted with the
                // probability that at least one CX in the segment
                // failed; a corrupted shot takes random bit flips.
                double p_err =
                    1.0 - std::pow(1.0 - options_.noise.depol2q,
                                   segmentCosts()[seg_index].loweredCx);
                qsim::Counts corrupted;
                for (const auto &[y, cnt] : part.map()) {
                    for (uint64_t i = 0; i < cnt; ++i) {
                        BitVec out = y;
                        if (rng.bernoulli(p_err)) {
                            int flips =
                                1 + static_cast<int>(rng.uniformInt(0, 2));
                            for (int f = 0; f < flips; ++f)
                                out.flip(static_cast<int>(
                                    rng.uniformInt(0, n - 1)));
                        }
                        corrupted.add(out);
                    }
                }
                part = std::move(corrupted);
            }
            for (const auto &[y, cnt] : part.map())
                raw.add(y, cnt);
        }
    }
    return raw;
}

RasenganDistribution
RasenganSolver::execute(const std::vector<double> &times, Rng &rng) const
{
    return execute(times, rng, ExecHooks{});
}

RasenganDistribution
RasenganSolver::execute(const std::vector<double> &times, Rng &rng,
                        const ExecHooks &hooks) const
{
    panic_if(times.size() != chain().steps.size(),
             "expected {} evolution times, got {}", chain().steps.size(),
             times.size());
    obs::Span span("solver", "execute");
    const int n = problem_.numVars();
    const int num_segments = static_cast<int>(segments().size());
    RasenganDistribution result;

    // Cooperative deadline/cancel checkpoints between segment
    // evolutions: a long pipeline notices a tripped token at the next
    // segment boundary instead of running to completion.  A token that
    // never trips cannot influence the output.
    const exec::CancelToken *cancel_token = options_.resilience.cancel;
    auto cancelTripped = [&]() {
        if (cancel_token == nullptr || !cancel_token->stopRequested())
            return false;
        result.failed = true;
        result.deadlineHit = true;
        return true;
    };
    if (cancelTripped())
        return result;

    if (segments().empty()) {
        // Full-rank constraints: the trivial solution is the only state.
        result.entries.emplace_back(problem_.trivialFeasible(), 1.0);
        return result;
    }

    const bool exact =
        options_.execution == RasenganOptions::Execution::ExactSparse;
    exec::ResilientExecutor &ex = *executor_;

    auto baseSnapshot = [&](int next_segment) {
        exec::SegmentCheckpoint cp;
        cp.problemId = problem_.id();
        cp.shotBased = !exact;
        cp.nextSegment = next_segment;
        cp.numBits = n;
        cp.times = times;
        cp.prePurifyFeasibleFraction = result.prePurifyFeasibleFraction;
        return cp;
    };
    auto wantsStop = [&](int s) {
        return hooks.stopAfterSegment >= 0 && s >= hooks.stopAfterSegment &&
               s + 1 < num_segments;
    };

    if (exact) {
        // Each segment's map is built fresh, by inserting its keys in an
        // order the snapshot records, so a resumed run rebuilds a map
        // with the same iteration order and sums every later segment in
        // the same sequence: checkpoint-resumed runs are bit-exact.
        ProbMap dist;
        int first_seg = 0;
        if (hooks.resumeFrom != nullptr) {
            const exec::SegmentCheckpoint &cp = *hooks.resumeFrom;
            panic_if(cp.shotBased,
                     "exact execution cannot resume a shot checkpoint");
            for (const auto &[y, p] : cp.probEntries)
                dist[y] = p;
            first_seg = std::min(cp.nextSegment, num_segments);
            result.prePurifyFeasibleFraction = cp.prePurifyFeasibleFraction;
        } else {
            dist[problem_.trivialFeasible()] = 1.0;
        }
        // `dist`'s keys in insertion order, recorded for snapshots only.
        std::vector<BitVec> built;
        const bool snapshots = static_cast<bool>(hooks.onSegmentDone);
        for (int s = first_seg; s < num_segments; ++s) {
            if (cancelTripped())
                return result;
            ProbMap out;
            built.clear();
            for (const auto &[state, p] : dist) {
                const qsim::SparseState &sim =
                    evolveSegment(s, state, times);
                const std::vector<BitVec> &keys = sim.keys();
                const auto &amps = sim.amps();
                for (size_t i = 0; i < keys.size(); ++i) {
                    auto [it, fresh] = out.try_emplace(keys[i], 0.0);
                    if (fresh && snapshots)
                        built.push_back(keys[i]);
                    it->second += p * std::norm(amps[i]);
                }
            }
            // Purification (Section 4.3): validate C x = b, drop the rest.
            // The exact path never samples; this span is its analogue of
            // the sampled path's measurement stage.
            obs::Span sample_span("sample", "purify", segmentDetail(s));
            // One verdict per state: the feasible entries are kept in
            // map order, so purification inserts them in the same order.
            double feasible_mass = 0.0, total_mass = 0.0;
            std::vector<std::pair<BitVec, double>> feasible;
            for (const auto &[y, p] : out) {
                total_mass += p;
                if (verifiedFeasible(y)) {
                    feasible_mass += p;
                    feasible.emplace_back(y, p);
                }
            }
            result.prePurifyFeasibleFraction =
                total_mass > 0.0 ? feasible_mass / total_mass : 0.0;
            if (options_.purify) {
                if (feasible_mass <= 0.0) {
                    result.failed = true;
                    return result;
                }
                ProbMap purified;
                built.clear();
                for (const auto &[y, p] : feasible) {
                    purified[y] = p / feasible_mass;
                    if (snapshots)
                        built.push_back(y);
                }
                dist = std::move(purified);
            } else {
                for (auto &[y, p] : out)
                    p /= total_mass;
                dist = std::move(out);
            }
            if (snapshots) {
                exec::SegmentCheckpoint cp = baseSnapshot(s + 1);
                cp.probEntries.reserve(built.size());
                for (const BitVec &y : built)
                    cp.probEntries.emplace_back(y, dist.at(y));
                hooks.onSegmentDone(cp);
            }
            if (wantsStop(s)) {
                result.aborted = true;
                return result;
            }
        }
        result.entries.assign(dist.begin(), dist.end());
        // Ascending state order: callers' expectation sums and the
        // best-outcome tie-break must not depend on hash layout, so a
        // checkpoint-resumed run reports the identical solution.
        std::sort(result.entries.begin(), result.entries.end());
        return result;
    }

    // Shot-based backends, routed through the resilient executor.
    ShotMap dist{{problem_.trivialFeasible(), options_.shotsPerSegment}};
    int first_seg = 0;
    if (hooks.resumeFrom != nullptr) {
        const exec::SegmentCheckpoint &cp = *hooks.resumeFrom;
        panic_if(!cp.shotBased,
                 "shot execution cannot resume an exact checkpoint");
        dist.clear();
        for (const auto &[y, cnt] : cp.shotEntries)
            dist[y] = cnt;
        first_seg = std::min(cp.nextSegment, num_segments);
        result.prePurifyFeasibleFraction = cp.prePurifyFeasibleFraction;
        if (!cp.rngState.empty()) {
            // parseCheckpoint validated the text, so this cannot fail.
            std::istringstream is(cp.rngState);
            is >> rng.engine();
            panic_if(!is, "checkpoint rng state '{}' did not load",
                     cp.rngState);
        }
    }

    for (int s = first_seg; s < num_segments; ++s) {
        if (cancelTripped())
            return result;
        // One job seed per segment, drawn from the caller's stream before
        // anything can fail: every retry attempt re-seeds from it, so a
        // faulty-but-recovered run consumes the caller's rng exactly like
        // the fault-free run and yields the identical histogram.
        const uint64_t job_seed = rng.engine()();

        // Canonical state order: sampling consumes the job rng in a
        // fixed sequence regardless of hash-map iteration order, so a
        // checkpoint-resumed run replays the identical histogram.  The
        // allocation is rebuilt per attempt: a demotion rescales it.
        std::vector<std::pair<BitVec, uint64_t>> alloc;
        auto attempt = ex.runDegrading([&]() -> exec::Expected<qsim::Counts> {
            alloc.clear();
            uint64_t total_shots = 0;
            for (const auto &[y, cnt] : dist) {
                uint64_t a = ex.degradedShots(cnt);
                if (a > 0) {
                    alloc.emplace_back(y, a);
                    total_shots += a;
                }
            }
            std::sort(alloc.begin(), alloc.end());
            if (alloc.empty())
                return exec::ExecError{exec::ErrorCode::InvalidJob,
                                       "segment " + std::to_string(s) +
                                           ": no shots to run",
                                       0};

            exec::ShotJob job;
            job.tag = "segment " + std::to_string(s);
            job.shots = total_shots;
            job.numBits = n;
            job.rngSeed = job_seed;
            job.attemptSeconds = segmentSeconds_[s];
            job.sample = [this, s, &times, &alloc](Rng &job_rng) {
                return sampleSegment(s, times, alloc, job_rng);
            };
            return ex.run(job);
        });
        if (!attempt.ok()) {
            result.failed = true;
            result.deadlineHit = attempt.error().stopped();
            if (!result.deadlineHit)
                warn("segment {} failed permanently: {}", s,
                     attempt.error().toString());
            return result;
        }
        qsim::Counts raw = std::move(attempt.value());

        // Optional readout mitigation: undo measurement bit flips before
        // deciding feasibility (mitigation.h; calibrated from the noise
        // model's readout rate).
        if (options_.mitigateReadout && options_.noise.readoutError > 0.0 &&
            raw.total() > 0) {
            device::ReadoutMitigator mitigator(
                device::ReadoutCalibration::uniform(
                    n, options_.noise.readoutError));
            uint64_t total = raw.total();
            qsim::Counts mitigated;
            for (const auto &[y, p] : mitigator.mitigate(raw, n)) {
                uint64_t cnt = static_cast<uint64_t>(
                    p * static_cast<double>(total) + 0.5);
                if (cnt > 0)
                    mitigated.add(y, cnt);
            }
            if (mitigated.total() > 0)
                raw = std::move(mitigated);
        }

        // Purification + probability-preserving shot reallocation
        // (Figures 7-8): each surviving state gets the next segment's
        // shots proportionally to its purified frequency.  The ladder
        // can disable purification (NoPurification and below).
        const bool purify = options_.purify && !ex.purificationDisabled();
        uint64_t feasible_shots = 0;
        std::vector<std::pair<BitVec, uint64_t>> feasible;
        for (const auto &[y, cnt] : raw.map()) {
            if (verifiedFeasible(y)) {
                feasible_shots += cnt;
                feasible.emplace_back(y, cnt);
            }
        }
        result.prePurifyFeasibleFraction =
            raw.total() > 0
                ? static_cast<double>(feasible_shots) /
                      static_cast<double>(raw.total())
                : 0.0;

        const uint64_t next_shots = static_cast<uint64_t>(
            static_cast<double>(options_.shotsPerSegment) *
            std::pow(std::max(options_.shotGrowth, 1e-6), s + 1));
        ShotMap next;
        if (purify) {
            if (feasible_shots == 0) {
                result.failed = true;
                return result;
            }
            for (const auto &[y, cnt] : feasible) {
                uint64_t alloc = (cnt * next_shots + feasible_shots / 2) /
                                 feasible_shots;
                if (alloc > 0)
                    next[y] = alloc;
            }
        } else {
            for (const auto &[y, cnt] : raw.map()) {
                uint64_t alloc =
                    (cnt * next_shots + raw.total() / 2) / raw.total();
                if (alloc > 0)
                    next[y] = alloc;
            }
        }
        if (next.empty()) {
            result.failed = true;
            return result;
        }
        dist = std::move(next);

        if (hooks.onSegmentDone) {
            exec::SegmentCheckpoint cp = baseSnapshot(s + 1);
            std::ostringstream os;
            os << rng.engine();
            cp.rngState = os.str();
            cp.shotEntries.assign(dist.begin(), dist.end());
            std::sort(cp.shotEntries.begin(), cp.shotEntries.end());
            hooks.onSegmentDone(cp);
        }
        if (wantsStop(s)) {
            result.aborted = true;
            return result;
        }
    }

    uint64_t total = 0;
    for (const auto &[y, cnt] : dist)
        total += cnt;
    for (const auto &[y, cnt] : dist)
        result.entries.emplace_back(
            y, static_cast<double>(cnt) / static_cast<double>(total));
    std::sort(result.entries.begin(), result.entries.end());
    return result;
}

double
RasenganSolver::scoreDistribution(const RasenganDistribution &dist) const
{
    if (dist.failed || dist.entries.empty())
        return kFailureScore;
    double lambda = problems::defaultPenaltyLambda(problem_);
    double acc = 0.0;
    for (const auto &[y, p] : dist.entries)
        acc += p * problem_.penalizedObjective(y, lambda);
    return acc;
}

double
RasenganSolver::perExecutionQuantumSeconds() const
{
    double total = 0.0;
    for (double t : segmentSeconds_)
        total += t;
    return total;
}

RasenganResult
RasenganSolver::summarize(const std::vector<double> &times,
                          opt::OptResult training, double classical_s,
                          double quantum_s,
                          const exec::SegmentCheckpoint *resume) const
{
    RasenganResult res;
    res.training = std::move(training);
    res.numParams = numParams();
    res.chainLength = static_cast<int>(chain().steps.size());
    res.unprunedLength = static_cast<int>(chain().unprunedSteps.size());
    res.numSegments = static_cast<int>(segments().size());
    res.feasibleCovered = chain().reachableCount;
    res.classicalSeconds = classical_s;
    res.quantumSeconds = quantum_s;
    res.resumed = resume != nullptr;

    auto [depth, cx] = maxSegmentCost();
    res.maxSegmentDepth = depth;
    res.maxSegmentCx = cx;

    Rng rng(options_.seed + 1);
    ExecHooks hooks;
    hooks.resumeFrom = resume;
    if (!options_.checkpointPath.empty()) {
        const std::string path = options_.checkpointPath;
        hooks.onSegmentDone = [path](const exec::SegmentCheckpoint &cp) {
            auto saved = exec::saveCheckpoint(cp, path);
            if (!saved.ok())
                warn("checkpoint save failed: {}",
                     saved.error().toString());
        };
    }
    res.finalDistribution = execute(times, rng, hooks);
    res.failed = res.finalDistribution.failed;
    res.deadlineHit = res.finalDistribution.deadlineHit;
    res.execStats = executor_->stats();
    res.degradation = executor_->level();
    if (options_.execution != RasenganOptions::Execution::ExactSparse) {
        // The executor's clock already accounts every attempt (including
        // retried ones), injected timeouts, and backoff sleeps.
        res.quantumSeconds = executor_->elapsedSeconds();
    }

    double lambda = problems::defaultPenaltyLambda(problem_);
    const BitVec *best = nullptr;
    double best_obj = 0.0;
    double expected = 0.0;
    double feasible_mass = 0.0;
    for (const auto &[y, p] : res.finalDistribution.entries) {
        // penalizedObjective's arithmetic, sharing one violation and one
        // objective evaluation with the feasibility verdict.
        const int64_t violation = problem_.violation(y);
        const double obj = problem_.objective(y);
        expected += p * (obj + lambda * static_cast<double>(violation));
        if (violation == 0) {
            feasible_mass += p;
            if (!best || obj < best_obj) {
                best = &y;
                best_obj = obj;
            }
        }
    }
    if (res.failed || !best) {
        // Noisy failure: fall back to the initial feasible solution
        // (Figure 10d reports these runs as terminated early).
        res.failed = true;
        res.solution = problem_.trivialFeasible();
        res.objectiveValue = problem_.objective(res.solution);
        res.expectedObjective = res.objectiveValue;
        res.inConstraintsRate = 0.0;
        return res;
    }
    res.solution = *best;
    res.objectiveValue = best_obj;
    res.expectedObjective = expected;
    res.inConstraintsRate = feasible_mass;
    return res;
}

RasenganResult
RasenganSolver::run()
{
    obs::Span span("solver", "run", problem_.id());
    Stopwatch wall;
    wall.start();

    const bool exact =
        options_.execution == RasenganOptions::Execution::ExactSparse;

    // Resume a previous solve if a compatible checkpoint exists (the
    // common cold start -- no file yet -- falls through silently).
    exec::SegmentCheckpoint resume_cp;
    bool resume = false;
    if (!options_.checkpointPath.empty()) {
        auto loaded = exec::loadCheckpoint(options_.checkpointPath);
        if (loaded.ok()) {
            resume_cp = std::move(loaded.value());
            if (resume_cp.problemId != problem_.id()) {
                warn("checkpoint '{}' is for problem '{}', not '{}'; "
                     "ignoring it",
                     options_.checkpointPath, resume_cp.problemId,
                     problem_.id());
            } else if (resume_cp.shotBased == exact) {
                warn("checkpoint '{}' was written by a different execution "
                     "backend kind; ignoring it",
                     options_.checkpointPath);
            } else if (resume_cp.times.size() != chain().steps.size()) {
                warn("checkpoint '{}' has {} evolution times but the chain "
                     "needs {}; ignoring it",
                     options_.checkpointPath, resume_cp.times.size(),
                     chain().steps.size());
            } else {
                resume = true;
            }
        } else if (loaded.error().message.find("cannot open") ==
                   std::string::npos) {
            // An absent file is the normal first run; a file that
            // exists but fails to parse deserves a warning.
            warn("checkpoint '{}' is corrupt ({}); ignoring it",
                 options_.checkpointPath, loaded.error().message);
        }
    }
    if (resume) {
        inform("resuming '{}' from checkpoint '{}' at segment {}",
               problem_.id(), options_.checkpointPath,
               resume_cp.nextSegment);
        opt::OptResult training;
        training.x = resume_cp.times;
        training.converged = true;
        wall.stop();
        return summarize(resume_cp.times, std::move(training),
                         wall.seconds(), 0.0, &resume_cp);
    }

    const int params = numParams();
    if (params == 0) {
        opt::OptResult trivial_training;
        trivial_training.converged = true;
        wall.stop();
        return summarize({}, trivial_training, wall.seconds(), 0.0,
                         nullptr);
    }

    Rng train_rng(options_.seed);
    Stopwatch sim_time;
    auto objective = [&](const std::vector<double> &x) {
        ScopedTimer guard(sim_time);
        return scoreDistribution(execute(x, train_rng));
    };

    opt::OptOptions oo;
    oo.maxIterations = options_.maxIterations;
    oo.initialStep = 0.4;
    oo.tolerance = 1e-5;
    oo.seed = options_.seed;
    auto optimizer = opt::makeOptimizer(options_.optimizer, oo);

    std::vector<double> x0(params, options_.initialTime);
    opt::OptResult training;
    {
        obs::Span train_span("solver", "train");
        training = optimizer->minimize(objective, x0);
    }
    wall.stop();

    // Persist the trained evolution times before the final execution so
    // a kill between training and completion resumes without retraining:
    // the snapshot is positioned "before segment 0" of the final run.
    // Never from a cancelled run, though: a token that tripped
    // mid-training leaves training.x at whatever point the objective
    // evaluations started failing, and resuming from those times would
    // diverge from an uninterrupted solve.
    const exec::CancelToken *cancel_token = options_.resilience.cancel;
    const bool cancelled =
        cancel_token != nullptr && cancel_token->stopRequested();
    if (!options_.checkpointPath.empty() && !cancelled) {
        exec::SegmentCheckpoint cp;
        cp.problemId = problem_.id();
        cp.shotBased = !exact;
        cp.nextSegment = 0;
        cp.numBits = problem_.numVars();
        cp.times = training.x;
        if (exact) {
            cp.probEntries.emplace_back(problem_.trivialFeasible(), 1.0);
        } else {
            Rng final_rng(options_.seed + 1);
            std::ostringstream os;
            os << final_rng.engine();
            cp.rngState = os.str();
            cp.shotEntries.emplace_back(problem_.trivialFeasible(),
                                        options_.shotsPerSegment);
        }
        auto saved = exec::saveCheckpoint(cp, options_.checkpointPath);
        if (!saved.ok())
            warn("checkpoint save failed: {}", saved.error().toString());
    }

    // The simulated circuit executions stand in for quantum time; what
    // remains of the wall clock is the classical optimizer + purification
    // share (Figure 12's breakdown).
    double classical_s = std::max(0.0, wall.seconds() - sim_time.seconds());
    double quantum_s =
        perExecutionQuantumSeconds() * training.evaluations;
    return summarize(training.x, training, classical_s, quantum_s, nullptr);
}

} // namespace rasengan::core
