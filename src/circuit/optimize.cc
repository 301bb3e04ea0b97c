#include "circuit/optimize.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace rasengan::circuit {

namespace {

constexpr double kAngleEps = 1e-12;

bool
sameWiring(const Gate &a, const Gate &b)
{
    return a.kind == b.kind && a.controls == b.controls &&
           a.targets == b.targets;
}

bool
isSelfInverse(GateKind kind)
{
    return kind == GateKind::X || kind == GateKind::H ||
           kind == GateKind::CX || kind == GateKind::Swap;
}

bool
isMergeableRotation(GateKind kind)
{
    return kind == GateKind::RX || kind == GateKind::RY ||
           kind == GateKind::RZ || kind == GateKind::P ||
           kind == GateKind::CP || kind == GateKind::MCP;
}

/** CP and MCP are diagonal: control/target roles are interchangeable. */
bool
samePhaseWiring(const Gate &a, const Gate &b)
{
    if (a.kind != b.kind || a.controls.size() + a.targets.size() !=
                                b.controls.size() + b.targets.size())
        return false;
    // A gate's qubits are distinct, so equal counts and containment
    // mean equal sets.
    bool contained = true;
    a.forEachQubit([&](int q) {
        bool found = false;
        b.forEachQubit([&](int r) { found |= r == q; });
        contained &= found;
    });
    return contained;
}

/** A pass's working arrays, reused by every pass of one circuit. */
struct PassScratch
{
    explicit PassScratch(int num_qubits) : onQubit(num_qubits) {}

    /** Per wire, the indices into out of the surviving gates on it. */
    std::vector<std::vector<int>> onQubit;
    std::vector<Gate> out;
    /** Per entry of out: cancelled or merged away after it was kept. */
    std::vector<char> dead;
};

/**
 * One peephole pass over @p gates, in place; false when nothing
 * changed.  Gates are moved, never copied.
 */
bool
pass(std::vector<Gate> &gates, PassScratch &scratch)
{
    auto &on_qubit = scratch.onQubit;
    auto &out = scratch.out;
    auto &dead = scratch.dead;
    for (auto &stack : on_qubit)
        stack.clear();
    out.clear();
    dead.clear();
    int fence = -1; // index in out of the last barrier
    bool changed = false;

    // Cancels and merges need equal qubit sets, so the gate erased is
    // the top of every stack it is on.
    auto erase = [&](int idx) {
        out[idx].forEachQubit([&](int q) {
            panic_if(on_qubit[q].back() != idx,
                     "erased gate {} is not the last on qubit {}", idx, q);
            on_qubit[q].pop_back();
        });
        dead[idx] = 1;
    };
    auto keep = [&](Gate &g) {
        out.push_back(std::move(g));
        dead.push_back(0);
    };

    for (Gate &g : gates) {
        if (g.kind == GateKind::Barrier) {
            fence = static_cast<int>(out.size());
            keep(g);
            continue;
        }
        if ((isMergeableRotation(g.kind) && g.targets.size() == 1) &&
            std::abs(g.param) < kAngleEps) {
            changed = true; // identity rotation
            continue;
        }

        // The nearest earlier surviving gate sharing a qubit is the
        // latest top among the gate's wires, unless a later barrier
        // fences it off.
        int prev = -1;
        g.forEachQubit([&](int q) {
            if (!on_qubit[q].empty())
                prev = std::max(prev, on_qubit[q].back());
        });
        if (prev > fence) {
            Gate &p = out[prev];
            if (isSelfInverse(g.kind) && sameWiring(p, g)) {
                erase(prev);
                changed = true;
                continue;
            }
            bool diagonal = g.kind == GateKind::CP || g.kind == GateKind::MCP;
            bool wiring_ok = diagonal ? samePhaseWiring(p, g)
                                      : sameWiring(p, g);
            if (isMergeableRotation(g.kind) && wiring_ok) {
                p.param += g.param;
                if (std::abs(p.param) < kAngleEps)
                    erase(prev);
                changed = true;
                continue;
            }
        }
        const int idx = static_cast<int>(out.size());
        g.forEachQubit([&](int q) { on_qubit[q].push_back(idx); });
        keep(g);
    }

    gates.clear();
    for (size_t i = 0; i < out.size(); ++i)
        if (!dead[i])
            gates.push_back(std::move(out[i]));
    return changed;
}

} // namespace

Circuit
optimizeCircuit(const Circuit &input, int max_passes)
{
    std::vector<Gate> gates = input.gates();
    PassScratch scratch(input.numQubits());
    for (int i = 0; i < max_passes; ++i)
        if (!pass(gates, scratch))
            break;
    Circuit out(input.numQubits());
    for (Gate &g : gates)
        out.append(std::move(g));
    return out;
}

} // namespace rasengan::circuit
