#include "qsim/noise.h"

#include <cmath>

#include "common/logging.h"

namespace rasengan::qsim {

namespace {

constexpr Complex kI{0.0, 1.0};

} // namespace

void
applyRandomPauli(Statevector &sv, int q, Rng &rng)
{
    switch (rng.uniformInt(0, 2)) {
      case 0:
        sv.apply1q(q, {0, 1, 1, 0}); // X
        break;
      case 1:
        sv.apply1q(q, {0, -kI, kI, 0}); // Y
        break;
      default:
        sv.apply1q(q, {1, 0, 0, -1}); // Z
        break;
    }
}

void
applyAmplitudeDampingTrajectory(Statevector &sv, int q, double gamma,
                                Rng &rng)
{
    if (gamma <= 0.0)
        return;
    fatal_if(gamma > 1.0, "amplitude damping gamma {} > 1", gamma);
    // K1 = [[0, sqrt(g)], [0, 0]] fires with probability g * P(q = 1).
    double p1 = sv.probabilityOfOne(q);
    if (rng.bernoulli(gamma * p1)) {
        sv.apply1q(q, {0, std::sqrt(gamma), 0, 0});
    } else {
        sv.apply1q(q, {1, 0, 0, std::sqrt(1.0 - gamma)});
    }
    sv.renormalize();
}

void
applyPhaseDampingTrajectory(Statevector &sv, int q, double lambda, Rng &rng)
{
    if (lambda <= 0.0)
        return;
    fatal_if(lambda > 1.0, "phase damping lambda {} > 1", lambda);
    // K1 = [[0, 0], [0, sqrt(l)]] fires with probability l * P(q = 1).
    double p1 = sv.probabilityOfOne(q);
    if (rng.bernoulli(lambda * p1)) {
        sv.apply1q(q, {0, 0, 0, std::sqrt(lambda)});
    } else {
        sv.apply1q(q, {1, 0, 0, std::sqrt(1.0 - lambda)});
    }
    sv.renormalize();
}

void
applyGateNoise(Statevector &sv, const circuit::Gate &gate,
               const NoiseModel &noise, Rng &rng)
{
    if (gate.kind == circuit::GateKind::Barrier)
        return;
    double depol = gate.isMultiQubit() ? noise.depol2q : noise.depol1q;
    for (int q : gate.qubits()) {
        if (depol > 0.0 && rng.bernoulli(depol))
            applyRandomPauli(sv, q, rng);
        applyAmplitudeDampingTrajectory(sv, q, noise.amplitudeDamping, rng);
        applyPhaseDampingTrajectory(sv, q, noise.phaseDamping, rng);
    }
}

Statevector
runTrajectory(const circuit::Circuit &circ, int num_qubits,
              const BitVec &init, const NoiseModel &noise, Rng &rng)
{
    fatal_if(num_qubits < circ.numQubits(),
             "trajectory register {} smaller than circuit {}", num_qubits,
             circ.numQubits());
    Statevector sv(num_qubits, init);
    for (const circuit::Gate &g : circ.gates()) {
        if (g.kind == circuit::GateKind::Measure) {
            sv.measureQubit(g.targets[0], rng);
            continue;
        }
        if (g.kind == circuit::GateKind::Reset) {
            sv.resetQubit(g.targets[0], rng);
            continue;
        }
        sv.applyGate(g);
        applyGateNoise(sv, g, noise, rng);
    }
    return sv;
}

Counts
applyReadoutError(const Counts &counts, int num_bits, double p, Rng &rng)
{
    if (p <= 0.0)
        return counts;
    Counts out;
    for (const auto &[outcome, n] : counts.map()) {
        for (uint64_t i = 0; i < n; ++i) {
            BitVec flipped = outcome;
            for (int b = 0; b < num_bits; ++b)
                if (rng.bernoulli(p))
                    flipped.flip(b);
            out.add(flipped);
        }
    }
    return out;
}

Counts
sampleNoisy(const circuit::Circuit &circ, int num_qubits, const BitVec &init,
            const NoiseModel &noise, Rng &rng, uint64_t shots,
            int trajectories, int num_bits)
{
    fatal_if(shots == 0, "sampleNoisy with zero shots");
    if (num_bits < 0)
        num_bits = num_qubits;
    if (!noise.enabled()) {
        Statevector sv(num_qubits, init);
        sv.applyCircuit(circ);
        return sv.sample(rng, shots, num_bits);
    }
    int runs = static_cast<int>(
        std::min<uint64_t>(shots, std::max(trajectories, 1)));
    // Child seeds are drawn from the caller's rng *up front*, in
    // trajectory order, so each trajectory owns an independent
    // deterministic stream (the seed tree described in DESIGN.md).
    std::vector<uint64_t> traj_seeds(runs), sample_seeds(runs);
    for (int r = 0; r < runs; ++r) {
        traj_seeds[r] = rng.engine()();
        sample_seeds[r] = rng.engine()();
    }
    // Merge in trajectory order: the histogram content is
    // order-independent, but the *insertion* order fixes the map
    // iteration order that applyReadoutError consumes rng draws in.
    Counts counts;
    for (uint64_t r = 0; r < static_cast<uint64_t>(runs); ++r) {
        uint64_t slice = shots / runs + (r < shots % runs ? 1 : 0);
        if (slice == 0)
            continue;
        Rng traj_rng(traj_seeds[r]);
        Statevector sv =
            runTrajectory(circ, num_qubits, init, noise, traj_rng);
        Rng sample_rng(sample_seeds[r]);
        const Counts part = sv.sample(sample_rng, slice, num_bits);
        for (const auto &[outcome, n] : part.map())
            counts.add(outcome, n);
    }
    return applyReadoutError(counts, num_bits, noise.readoutError, rng);
}

} // namespace rasengan::qsim
