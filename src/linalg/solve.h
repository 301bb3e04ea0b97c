/**
 * @file
 * Linear-system solving: rational particular solutions and binary
 * (0/1) feasibility search for C x = b.
 */

#ifndef RASENGAN_LINALG_SOLVE_H
#define RASENGAN_LINALG_SOLVE_H

#include <functional>
#include <optional>
#include <vector>

#include "common/bitvec.h"
#include "linalg/matrix.h"

namespace rasengan::linalg {

/**
 * A rational particular solution of C x = b, or nullopt when the system is
 * inconsistent.  Free variables are set to zero.
 */
std::optional<std::vector<Rational>> solveParticular(const IntMat &c,
                                                     const IntVec &b);

/**
 * Find one binary solution x in {0,1}^n of C x = b by depth-first search
 * with per-row interval pruning (at each partial assignment, a row is
 * pruned when even the most favourable completion cannot reach b).
 *
 * Complete: returns nullopt only when no binary solution exists.  Intended
 * as the generic fallback when a problem family has no O(n) constructor.
 */
std::optional<IntVec> solveBinary(const IntMat &c, const IntVec &b);

/** Receives one binary solution; returns false to stop the search. */
using BinaryVisitor = std::function<bool(const IntVec &)>;

/**
 * The one binary enumerator: call @p visit on each binary solution of
 * C x = b in the DFS order of solveBinary, until it returns false or
 * @p limit solutions were visited (0 = no limit).  The vector passed to
 * @p visit is the search's own assignment, valid during the call only.
 */
void visitBinary(const IntMat &c, const IntVec &b, size_t limit,
                 const BinaryVisitor &visit);

/** The first @p limit (0 = all) solutions of visitBinary, as vectors. */
std::vector<IntVec> enumerateBinary(const IntMat &c, const IntVec &b,
                                    size_t limit = 0);

/**
 * The first @p limit (0 = all) solutions of visitBinary, entry i -> bit
 * i, without an intermediate vector per solution.  At most kMaxBits
 * columns.
 */
std::vector<BitVec> enumerateBinaryBits(const IntMat &c, const IntVec &b,
                                        size_t limit = 0);

/** True iff C x = b for the binary/integer vector @p x. */
bool satisfies(const IntMat &c, const IntVec &b, const IntVec &x);

} // namespace rasengan::linalg

#endif // RASENGAN_LINALG_SOLVE_H
