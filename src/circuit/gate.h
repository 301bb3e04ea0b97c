/**
 * @file
 * Gate records for the quantum circuit IR.
 *
 * The gate set covers everything the Rasengan pipeline and the baseline
 * VQAs emit: Pauli-X, Hadamard, the parameterized rotations RX/RY/RZ, the
 * phase gate P, controlled gates CX/CP, swap, and the multi-controlled
 * MCX/MCP primitives that implement transition operators before they are
 * lowered by the transpiler.
 */

#ifndef RASENGAN_CIRCUIT_GATE_H
#define RASENGAN_CIRCUIT_GATE_H

#include <string>
#include <vector>

namespace rasengan::circuit {

enum class GateKind {
    X,       ///< Pauli-X
    H,       ///< Hadamard
    RX,      ///< exp(-i theta X / 2)
    RY,      ///< exp(-i theta Y / 2)
    RZ,      ///< exp(-i theta Z / 2)
    P,       ///< phase: diag(1, e^{i theta})
    CX,      ///< controlled-X
    CP,      ///< controlled-phase
    Swap,    ///< swap two qubits
    MCX,     ///< multi-controlled X
    MCP,     ///< multi-controlled phase
    Barrier, ///< scheduling barrier (no-op for simulation)
    Measure, ///< mid-circuit Z-basis measurement (stochastic collapse)
    Reset,   ///< measure-and-flip-to-|0> (active qubit reset)
};

/** True for gates carrying an angle parameter. */
bool gateHasParam(GateKind kind);

/** Lower-case OpenQASM-style mnemonic. */
std::string gateName(GateKind kind);

struct Gate
{
    GateKind kind;
    std::vector<int> controls; ///< control qubits (all positive controls)
    std::vector<int> targets;  ///< target qubit(s)
    double param = 0.0;        ///< rotation/phase angle when applicable

    /** All qubits the gate touches, controls first. */
    std::vector<int>
    qubits() const
    {
        std::vector<int> qs = controls;
        qs.insert(qs.end(), targets.begin(), targets.end());
        return qs;
    }

    /** Call @p f on every qubit the gate touches, controls first. */
    template <typename F>
    void
    forEachQubit(F &&f) const
    {
        for (int q : controls)
            f(q);
        for (int q : targets)
            f(q);
    }

    /** True when the gate acts on two or more qubits. */
    bool
    isMultiQubit() const
    {
        return controls.size() + targets.size() >= 2;
    }
};

} // namespace rasengan::circuit

#endif // RASENGAN_CIRCUIT_GATE_H
