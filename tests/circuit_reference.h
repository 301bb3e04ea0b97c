/**
 * @file
 * Slow reference for the peephole optimizer, shared by the tests that
 * pin circuit::optimizeCircuit to it: for every gate, scan the output
 * backwards for the nearest earlier gate sharing a qubit, and erase
 * cancelled gates from the middle of the vector.  O(gates^2) per pass.
 */

#ifndef RASENGAN_TESTS_CIRCUIT_REFERENCE_H
#define RASENGAN_TESTS_CIRCUIT_REFERENCE_H

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "circuit/circuit.h"

namespace rasengan::circuit::reference {

constexpr double kAngleEps = 1e-12;

inline bool
sameWiring(const Gate &a, const Gate &b)
{
    return a.kind == b.kind && a.controls == b.controls &&
           a.targets == b.targets;
}

inline bool
isSelfInverse(GateKind kind)
{
    return kind == GateKind::X || kind == GateKind::H ||
           kind == GateKind::CX || kind == GateKind::Swap;
}

inline bool
isMergeableRotation(GateKind kind)
{
    return kind == GateKind::RX || kind == GateKind::RY ||
           kind == GateKind::RZ || kind == GateKind::P ||
           kind == GateKind::CP || kind == GateKind::MCP;
}

/** CP and MCP are diagonal: control/target roles are interchangeable. */
inline bool
samePhaseWiring(const Gate &a, const Gate &b)
{
    if (a.kind != b.kind)
        return false;
    auto qubit_set = [](const Gate &g) {
        std::vector<int> qs = g.qubits();
        std::sort(qs.begin(), qs.end());
        return qs;
    };
    return qubit_set(a) == qubit_set(b);
}

inline bool
sharesQubit(const Gate &a, const Gate &b)
{
    for (int qa : a.qubits())
        for (int qb : b.qubits())
            if (qa == qb)
                return true;
    return false;
}

/** One peephole pass; returns nullopt when nothing changed. */
inline std::optional<std::vector<Gate>>
pass(const std::vector<Gate> &gates)
{
    std::vector<Gate> out;
    bool changed = false;

    for (const Gate &g : gates) {
        if (g.kind == GateKind::Barrier) {
            out.push_back(g);
            continue;
        }
        if ((isMergeableRotation(g.kind) && g.targets.size() == 1) &&
            std::abs(g.param) < kAngleEps) {
            changed = true; // identity rotation
            continue;
        }

        // Find the nearest earlier surviving gate sharing a qubit.
        int prev = -1;
        for (int i = static_cast<int>(out.size()) - 1; i >= 0; --i) {
            if (out[i].kind == GateKind::Barrier)
                break;
            if (sharesQubit(out[i], g)) {
                prev = i;
                break;
            }
        }
        if (prev >= 0) {
            Gate &p = out[prev];
            if (isSelfInverse(g.kind) && sameWiring(p, g)) {
                out.erase(out.begin() + prev);
                changed = true;
                continue;
            }
            bool diagonal = g.kind == GateKind::CP || g.kind == GateKind::MCP;
            bool wiring_ok = diagonal ? samePhaseWiring(p, g)
                                      : sameWiring(p, g);
            if (isMergeableRotation(g.kind) && wiring_ok) {
                p.param += g.param;
                if (std::abs(p.param) < kAngleEps)
                    out.erase(out.begin() + prev);
                changed = true;
                continue;
            }
        }
        out.push_back(g);
    }
    if (!changed)
        return std::nullopt;
    return out;
}

/** optimizeCircuit over the quadratic pass. */
inline Circuit
optimizeCircuit(const Circuit &input, int max_passes = 10)
{
    std::vector<Gate> gates = input.gates();
    for (int i = 0; i < max_passes; ++i) {
        auto next = pass(gates);
        if (!next)
            break;
        gates = std::move(*next);
    }
    Circuit out(input.numQubits());
    for (Gate &g : gates)
        out.append(std::move(g));
    return out;
}

/**
 * circuit::optimizeCircuit equals the reference gate for gate: kind,
 * wiring and the exact bits of every angle.
 */
inline void
expectOptimizerMatchesReference(const Circuit &input, const std::string &what)
{
    const Circuit got = circuit::optimizeCircuit(input);
    const Circuit want = reference::optimizeCircuit(input);
    ASSERT_EQ(got.numQubits(), want.numQubits()) << what;
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t i = 0; i < got.size(); ++i) {
        const Gate &a = got.gates()[i];
        const Gate &b = want.gates()[i];
        ASSERT_TRUE(sameWiring(a, b)) << what << " gate " << i;
        ASSERT_EQ(std::memcmp(&a.param, &b.param, sizeof(a.param)), 0)
            << what << " gate " << i << ": " << a.param << " vs " << b.param;
    }
}

} // namespace rasengan::circuit::reference

#endif // RASENGAN_TESTS_CIRCUIT_REFERENCE_H
