#include "qsim/density.h"

#include <cmath>

#include "common/logging.h"

namespace rasengan::qsim {

namespace {

Mat2
conjugated(const Mat2 &u)
{
    return {std::conj(u.m00), std::conj(u.m01),
            std::conj(u.m10), std::conj(u.m11)};
}

} // namespace

DensityMatrix::DensityMatrix(int num_qubits, const BitVec &basis)
    : numQubits_(num_qubits), vec_(2 * num_qubits)
{
    fatal_if(num_qubits < 1 || num_qubits > 13,
             "density matrix limited to 13 qubits, got {}", num_qubits);
    uint64_t idx = basis.toIndex();
    BitVec diag = BitVec::fromIndex(idx | (idx << num_qubits));
    vec_ = Statevector(2 * num_qubits, diag);
}

double
DensityMatrix::probability(const BitVec &x) const
{
    uint64_t idx = x.toIndex();
    return vec_.amplitudes()[idx | (idx << numQubits_)].real();
}

std::vector<double>
DensityMatrix::diagonal() const
{
    std::vector<double> out(size_t{1} << numQubits_);
    for (uint64_t i = 0; i < out.size(); ++i)
        out[i] = vec_.amplitudes()[i | (i << numQubits_)].real();
    return out;
}

double
DensityMatrix::trace() const
{
    double acc = 0.0;
    for (double d : diagonal())
        acc += d;
    return acc;
}

double
DensityMatrix::purity() const
{
    // tr(rho^2) = sum_{ij} |rho_{ij}|^2 = || vec(rho) ||^2.
    return vec_.normSquared();
}

void
DensityMatrix::applyGate(const circuit::Gate &gate)
{
    using circuit::GateKind;
    if (gate.kind == GateKind::Barrier)
        return;
    auto shift = [this](const std::vector<int> &qs) {
        std::vector<int> out;
        out.reserve(qs.size());
        for (int q : qs)
            out.push_back(q + numQubits_);
        return out;
    };
    if (gate.kind == GateKind::Swap) {
        vec_.applySwap(gate.targets[0], gate.targets[1]);
        vec_.applySwap(gate.targets[0] + numQubits_,
                       gate.targets[1] + numQubits_);
        return;
    }
    Mat2 u = gateMatrix(gate.kind, gate.param);
    vec_.applyControlled1q(gate.controls, gate.targets[0], u);
    vec_.applyControlled1q(shift(gate.controls),
                           gate.targets[0] + numQubits_, conjugated(u));
}

void
DensityMatrix::applyCircuit(const circuit::Circuit &circ)
{
    fatal_if(circ.numQubits() > numQubits_,
             "circuit needs {} qubits, density matrix has {}",
             circ.numQubits(), numQubits_);
    for (const circuit::Gate &g : circ.gates())
        applyGate(g);
}

void
DensityMatrix::applyKraus1q(int target, const std::vector<Mat2> &kraus)
{
    fatal_if(kraus.empty(), "empty Kraus set");
    // vec(rho) -> sum_i (K_i (x) K_i*) vec(rho): accumulate over branches.
    Statevector acc(2 * numQubits_);
    bool first = true;
    for (const Mat2 &k : kraus) {
        Statevector branch = vec_;
        branch.apply1q(target, k);
        branch.apply1q(target + numQubits_, conjugated(k));
        if (first) {
            acc = std::move(branch);
            first = false;
        } else {
            // Element-wise accumulation through the amplitude vector.
            auto &out = acc.mutableAmplitudes();
            const auto &b = branch.amplitudes();
            for (size_t i = 0; i < out.size(); ++i)
                out[i] += b[i];
        }
    }
    vec_ = std::move(acc);
}

void
DensityMatrix::applyDepolarizing(int target, double p)
{
    if (p <= 0.0)
        return;
    fatal_if(p > 1.0, "depolarizing probability {} > 1", p);
    constexpr Complex i{0.0, 1.0};
    double keep = std::sqrt(1.0 - p);
    double each = std::sqrt(p / 3.0);
    std::vector<Mat2> kraus = {
        {keep, 0, 0, keep},                     // sqrt(1-p) I
        {0, each, each, 0},                     // sqrt(p/3) X
        {0, -i * each, i * each, 0},            // sqrt(p/3) Y
        {each, 0, 0, -each},                    // sqrt(p/3) Z
    };
    applyKraus1q(target, kraus);
}

void
DensityMatrix::applyAmplitudeDamping(int target, double gamma)
{
    if (gamma <= 0.0)
        return;
    fatal_if(gamma > 1.0, "amplitude damping gamma {} > 1", gamma);
    std::vector<Mat2> kraus = {
        {1, 0, 0, std::sqrt(1.0 - gamma)},
        {0, std::sqrt(gamma), 0, 0},
    };
    applyKraus1q(target, kraus);
}

void
DensityMatrix::applyPhaseDamping(int target, double lambda)
{
    if (lambda <= 0.0)
        return;
    fatal_if(lambda > 1.0, "phase damping lambda {} > 1", lambda);
    std::vector<Mat2> kraus = {
        {1, 0, 0, std::sqrt(1.0 - lambda)},
        {0, 0, 0, std::sqrt(lambda)},
    };
    applyKraus1q(target, kraus);
}

void
DensityMatrix::applyNoisyCircuit(const circuit::Circuit &circ,
                                 const NoiseModel &noise)
{
    fatal_if(circ.numQubits() > numQubits_,
             "circuit needs {} qubits, density matrix has {}",
             circ.numQubits(), numQubits_);
    for (const circuit::Gate &g : circ.gates()) {
        applyGate(g);
        if (g.kind == circuit::GateKind::Barrier)
            continue;
        double depol = g.isMultiQubit() ? noise.depol2q : noise.depol1q;
        for (int q : g.qubits()) {
            applyDepolarizing(q, depol);
            applyAmplitudeDamping(q, noise.amplitudeDamping);
            applyPhaseDamping(q, noise.phaseDamping);
        }
    }
}

Counts
DensityMatrix::sample(Rng &rng, uint64_t shots, int num_bits) const
{
    if (num_bits < 0)
        num_bits = numQubits_;
    std::vector<double> diag = diagonal();
    // Clamp tiny negative float noise on the diagonal.
    for (double &d : diag)
        d = std::max(d, 0.0);
    const uint64_t mask = num_bits >= 64
                              ? ~uint64_t{0}
                              : ((uint64_t{1} << num_bits) - 1);
    AliasTable table(diag); // O(1)/shot instead of a linear scan
    Counts counts;
    table.forEachDraw(rng, shots, [&](uint32_t idx) {
        counts.add(BitVec::fromIndex(idx & mask));
    });
    return counts;
}

} // namespace rasengan::qsim
