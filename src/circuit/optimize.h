/**
 * @file
 * Peephole circuit optimization passes.
 *
 * Rasengan's segmented circuits begin with a column of X gates preparing
 * the segment's initial basis state; adjacent segments and the transition
 * operator's symmetric conjugation structure create cancellation
 * opportunities (X-X, H-H, CX-CX pairs and mergeable rotations).  The
 * optimizer runs simple peephole passes to a fixed point.
 */

#ifndef RASENGAN_CIRCUIT_OPTIMIZE_H
#define RASENGAN_CIRCUIT_OPTIMIZE_H

#include "circuit/circuit.h"

namespace rasengan::circuit {

/**
 * Apply cancellation/merge passes until a fixed point (or @p max_passes).
 *
 * Rules, applied to a gate and the nearest earlier gate that shares any
 * qubit with it (merging only when the qubit sets match exactly):
 *  - X.X, H.H, CX.CX, Swap.Swap with identical wiring cancel;
 *  - consecutive RX/RY/RZ/P on one wire and CP on one pair merge angles;
 *  - rotations with (merged) angle ~ 0 are dropped.
 * A barrier fences off every gate before it.  Each pass costs
 * O(qubits + total gate arity): every wire keeps a stack of its
 * surviving gates, so the nearest earlier gate is the latest top among
 * the gate's wires, and a cancelled gate is popped, not erased from the
 * middle of the gate list.
 */
Circuit optimizeCircuit(const Circuit &input, int max_passes = 10);

} // namespace rasengan::circuit

#endif // RASENGAN_CIRCUIT_OPTIMIZE_H
