#include "qsim/statevector.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/logging.h"
#include "common/parallel.h"
#include "obs/prof.h"
#include "qsim/simd.h"

namespace rasengan::qsim {

namespace {

constexpr Complex kI{0.0, 1.0};

/** Minimum circuit size for which fusing pays off. */
constexpr size_t kFusionMinGates = 4;

/** Insert a zero bit at position `bit` of the compact pair index `h`,
 *  mapping [0, dim/2) onto the indices whose `bit` is clear. */
inline uint64_t
expandIndex(uint64_t h, uint64_t low_mask)
{
    return ((h & ~low_mask) << 1) | (h & low_mask);
}

} // namespace

Statevector::Statevector(int num_qubits) : numQubits_(num_qubits)
{
    fatal_if(num_qubits < 0 || num_qubits > 30,
             "dense statevector limited to 30 qubits, got {}", num_qubits);
    amps_.assign(size_t{1} << num_qubits, Complex{0.0, 0.0});
    amps_[0] = 1.0;
}

Statevector::Statevector(int num_qubits, const BitVec &basis)
    : Statevector(num_qubits)
{
    uint64_t idx = basis.toIndex();
    panic_if(idx >= amps_.size(), "basis state outside register");
    amps_[0] = 0.0;
    amps_[idx] = 1.0;
}

void
Statevector::checkQubit(int q) const
{
    panic_if(q < 0 || q >= numQubits_, "qubit {} out of range [0, {})", q,
             numQubits_);
}

double
Statevector::normSquared() const
{
    return parallel::reduceBlocks(
        0, amps_.size(), parallel::kReduceBlock,
        [this](uint64_t lo, uint64_t hi) {
            double acc = 0.0;
            for (uint64_t i = lo; i < hi; ++i)
                acc += std::norm(amps_[i]);
            return acc;
        });
}

void
Statevector::renormalize()
{
    double n2 = normSquared();
    panic_if(n2 < 1e-300, "renormalizing a zero state");
    const double inv = 1.0 / std::sqrt(n2);
    for (Complex &a : amps_)
        a *= inv;
}

Complex
Statevector::inner(const Statevector &other) const
{
    panic_if(numQubits_ != other.numQubits_,
             "inner product across register sizes {} vs {}", numQubits_,
             other.numQubits_);
    return parallel::reduceBlocksComplex(
        0, amps_.size(), parallel::kReduceBlock,
        [&](uint64_t lo, uint64_t hi) {
            Complex acc{0.0, 0.0};
            for (uint64_t i = lo; i < hi; ++i)
                acc += std::conj(amps_[i]) * other.amps_[i];
            return acc;
        });
}

void
Statevector::apply1q(int target, const Mat2 &u)
{
    checkQubit(target);
    const uint64_t bit = uint64_t{1} << target;
    const SimdKernels &kern = simdKernels();
    if (target == 0) {
        // Pairs (2h, 2h+1) are adjacent in memory.
        kern.pairRotateAdjacent(amps_.data(), 0, amps_.size() >> 1, u);
        return;
    }
    // The pairs decompose into runs of 2^target consecutive bases (bit
    // clear), one run every 2^(target+1) amplitudes; feed each run to
    // the strided kernel.
    for (uint64_t base = 0; base < amps_.size(); base += 2 * bit)
        kern.pairRotateStrided(amps_.data(), base, bit, bit, u);
}

void
Statevector::applyControlled1q(const std::vector<int> &controls, int target,
                               const Mat2 &u)
{
    if (controls.empty()) {
        apply1q(target, u);
        return;
    }
    checkQubit(target);
    uint64_t cmask = 0;
    for (int c : controls) {
        checkQubit(c);
        panic_if(c == target, "control equals target {}", c);
        cmask |= uint64_t{1} << c;
    }
    const uint64_t bit = uint64_t{1} << target;
    const uint64_t low = bit - 1;
    const uint64_t pairs = amps_.size() >> 1;
    const SimdKernels &kern = simdKernels();
    // Accumulate maximal contiguous control-satisfying base segments
    // (contiguity breaks at run boundaries, where bases jump) and hand
    // each to the strided kernel.
    uint64_t seg_base = 0;
    uint64_t seg_len = 0;
    auto flush = [&]() {
        if (seg_len != 0)
            kern.pairRotateStrided(amps_.data(), seg_base, seg_len, bit,
                                   u);
        seg_len = 0;
    };
    for (uint64_t h = 0; h < pairs; ++h) {
        uint64_t base = expandIndex(h, low);
        if ((base & cmask) != cmask) {
            flush();
            continue;
        }
        if (seg_len != 0 && base == seg_base + seg_len) {
            ++seg_len;
        } else {
            flush();
            seg_base = base;
            seg_len = 1;
        }
    }
    flush();
}

void
Statevector::applySwap(int a, int b)
{
    checkQubit(a);
    checkQubit(b);
    if (a == b)
        return;
    const uint64_t bit_a = uint64_t{1} << a;
    const uint64_t bit_b = uint64_t{1} << b;
    // Each index with a=1,b=0 swaps with its a=0,b=1 partner.
    for (uint64_t i = 0; i < amps_.size(); ++i) {
        bool va = i & bit_a;
        bool vb = i & bit_b;
        if (va && !vb)
            std::swap(amps_[i], amps_[(i ^ bit_a) | bit_b]);
    }
}

void
Statevector::applyGate(const circuit::Gate &gate)
{
    using circuit::GateKind;
    switch (gate.kind) {
      case GateKind::Barrier:
        return;
      case GateKind::Measure:
      case GateKind::Reset:
        panic("mid-circuit {} needs an rng: use runTrajectory or "
              "measureQubit/resetQubit",
              circuit::gateName(gate.kind));
        return;
      case GateKind::Swap:
        applySwap(gate.targets[0], gate.targets[1]);
        return;
      default:
        applyControlled1q(gate.controls, gate.targets[0],
                          gateMatrix(gate.kind, gate.param));
        return;
    }
}

void
Statevector::applyCircuit(const circuit::Circuit &circ)
{
    fatal_if(circ.numQubits() > numQubits_,
             "circuit needs {} qubits, register has {}", circ.numQubits(),
             numQubits_);
    RASENGAN_PROF("kernel", "dense-apply-circuit");
    if (circuit::fusionEnabled() && circ.size() >= kFusionMinGates) {
        applyFused(circuit::fuseCircuit(circ));
        return;
    }
    for (const circuit::Gate &g : circ.gates())
        applyGate(g);
}

void
Statevector::applyFused(const circuit::FusedProgram &prog)
{
    fatal_if(prog.numQubits > numQubits_,
             "fused program needs {} qubits, register has {}",
             prog.numQubits, numQubits_);
    RASENGAN_PROF("kernel", "dense-apply-fused");
    using Kind = circuit::FusedOp::Kind;
    for (const circuit::FusedOp &op : prog.ops) {
        switch (op.kind) {
          case Kind::Unitary1q:
            apply1q(op.target, op.unitary);
            break;
          case Kind::Controlled1q:
            applyControlled1q(op.controls, op.target, op.unitary);
            break;
          case Kind::Swap:
            applySwap(op.target, op.other);
            break;
          case Kind::Diagonal:
            applyDiagonalTerms(op.diag);
            break;
          case Kind::Measure:
          case Kind::Reset:
            panic("mid-circuit measure/reset needs an rng: use "
                  "runTrajectory or measureQubit/resetQubit");
        }
    }
}

void
Statevector::applyDiagonalTerms(const std::vector<circuit::DiagTerm> &terms)
{
    if (terms.empty())
        return;
    simdKernels().diagonalTerms(amps_.data(), terms.data(), terms.size(),
                                0, amps_.size());
}

void
Statevector::applyDiagonalPhase(
    const std::function<double(const BitVec &)> &phase)
{
    // Serial on purpose: the callback may capture state.  Zero
    // amplitudes skip the BitVec construction and the callback
    // entirely, and the exp of a repeated phase value is reused (many
    // objective-derived phases are piecewise constant).
    double cached_phase = 0.0;
    Complex cached_exp{1.0, 0.0};
    bool have_cache = false;
    for (uint64_t i = 0; i < amps_.size(); ++i) {
        if (std::norm(amps_[i]) == 0.0)
            continue;
        double p = phase(BitVec::fromIndex(i));
        if (!have_cache || p != cached_phase) {
            cached_phase = p;
            cached_exp = std::exp(kI * p);
            have_cache = true;
        }
        amps_[i] *= cached_exp;
    }
}

void
Statevector::applyDiagonalEvolution(const std::vector<double> &values,
                                    double scale)
{
    fatal_if(values.size() != amps_.size(),
             "diagonal has {} entries, state has {}", values.size(),
             amps_.size());
    simdKernels().diagonalEvolution(amps_.data(), values.data(), scale, 0,
                                    amps_.size());
}

Counts
Statevector::sample(Rng &rng, uint64_t shots, int num_bits) const
{
    RASENGAN_PROF("sample", "dense-sample");
    if (num_bits < 0)
        num_bits = numQubits_;
    std::vector<double> weights(amps_.size());
    for (uint64_t i = 0; i < amps_.size(); ++i)
        weights[i] = std::norm(amps_[i]);
    double total = parallel::reduceBlocks(
        0, weights.size(), parallel::kReduceBlock,
        [&](uint64_t lo, uint64_t hi) {
            double acc = 0.0;
            for (uint64_t i = lo; i < hi; ++i)
                acc += weights[i];
            return acc;
        });
    fatal_if(total < 1e-12, "sampling from a zero state");

    AliasTable table(weights);
    const uint64_t mask = num_bits >= 64
                              ? ~uint64_t{0}
                              : ((uint64_t{1} << num_bits) - 1);
    Counts counts;
    table.forEachDraw(rng, shots, [&](uint32_t idx) {
        counts.add(BitVec::fromIndex(idx & mask));
    });
    return counts;
}

double
Statevector::probabilityOfOne(int q) const
{
    checkQubit(q);
    const uint64_t bit = uint64_t{1} << q;
    const uint64_t low = bit - 1;
    return parallel::reduceBlocks(
        0, amps_.size() >> 1, parallel::kReduceBlock,
        [&](uint64_t h0, uint64_t h1) {
            double acc = 0.0;
            for (uint64_t h = h0; h < h1; ++h)
                acc += std::norm(amps_[expandIndex(h, low) | bit]);
            return acc;
        });
}

bool
Statevector::measureQubit(int q, Rng &rng)
{
    checkQubit(q);
    double p1 = probabilityOfOne(q);
    bool outcome = rng.bernoulli(p1);
    const uint64_t bit = uint64_t{1} << q;
    for (uint64_t i = 0; i < amps_.size(); ++i) {
        bool is_one = i & bit;
        if (is_one != outcome)
            amps_[i] = 0.0;
    }
    renormalize();
    return outcome;
}

void
Statevector::resetQubit(int q, Rng &rng)
{
    if (measureQubit(q, rng))
        apply1q(q, gateMatrix(circuit::GateKind::X, 0.0));
}

} // namespace rasengan::qsim
