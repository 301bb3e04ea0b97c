/**
 * @file
 * Quantum circuit container with builder methods and depth/size metrics.
 */

#ifndef RASENGAN_CIRCUIT_CIRCUIT_H
#define RASENGAN_CIRCUIT_CIRCUIT_H

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/gate.h"

namespace rasengan::circuit {

class Circuit
{
  public:
    /**
     * @param num_qubits total wires, including any ancillas
     */
    explicit Circuit(int num_qubits = 0);

    int numQubits() const { return numQubits_; }

    /**
     * Grow the register to at least @p n qubits (used by transpilation
     * passes that allocate ancillas).
     */
    void ensureQubits(int n);

    const std::vector<Gate> &gates() const { return gates_; }
    size_t size() const { return gates_.size(); }
    bool empty() const { return gates_.empty(); }

    /// @name Builder methods
    /// @{
    void x(int q);
    void h(int q);
    void rx(int q, double theta);
    void ry(int q, double theta);
    void rz(int q, double theta);
    void p(int q, double theta);
    void cx(int control, int target);
    void cp(int control, int target, double theta);
    void swap(int a, int b);
    void mcx(const std::vector<int> &controls, int target);
    void mcp(const std::vector<int> &controls, int target, double theta);
    void barrier();
    /** Mid-circuit Z-basis measurement of @p q (stochastic collapse). */
    void measure(int q);
    /** Active reset of @p q to |0> (measure, flip if 1). */
    void reset(int q);
    /** Append an arbitrary gate record (validated). */
    void append(Gate g);
    /** Append every gate of @p other (qubit counts are merged). */
    void append(const Circuit &other);
    /// @}

    /// @name Metrics
    /// @{
    /** Standard circuit depth: longest chain of dependent gates. */
    int depth() const;
    /** Depth counting only multi-qubit gates (barriers ignored). */
    int twoQubitDepth() const;
    /** Number of CX gates (other gates not counted). */
    int countCx() const;
    /** Number of gates of @p kind. */
    int countKind(GateKind kind) const;
    /** Total non-barrier gates. */
    int countOps() const;
    /// @}

    /** OpenQASM 2.0-style textual dump (MCX/MCP printed as comments). */
    std::string toQasm() const;

    /**
     * Content hash of the circuit: qubit count plus every gate record
     * (kind, controls, targets, exact parameter bits), FNV-1a folded.
     * Two circuits with identical gate streams hash equal.  Its only
     * caller is the end-to-end harness (bench/e2e/traced.cc), which
     * keys its memo of lowered segment circuits on it.
     */
    uint64_t fingerprint() const;

  private:
    void checkQubit(int q) const;
    void checkGate(const Gate &g) const;

    int numQubits_;
    std::vector<Gate> gates_;
};

} // namespace rasengan::circuit

#endif // RASENGAN_CIRCUIT_CIRCUIT_H
