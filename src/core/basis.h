/**
 * @file
 * Homogeneous-basis extraction and simplification (Section 4.1).
 *
 * The homogeneous basis of a problem is an integer basis of ker(C); the
 * paper's Algorithm 1 ("Hamiltonian simplification") replaces basis
 * vectors by +/- combinations with fewer nonzero entries, which shortens
 * every transition operator (the circuit cost is linear in the nonzero
 * count k).
 */

#ifndef RASENGAN_CORE_BASIS_H
#define RASENGAN_CORE_BASIS_H

#include <vector>

#include "linalg/matrix.h"
#include "problems/problem.h"

namespace rasengan::core {

/**
 * Homogeneous basis of @p problem's constraints, one integer vector per
 * nullspace dimension.  Aborts if any entry falls outside {-1, 0, 1}
 * (Definition 1 requires signed-0/1 vectors; every encoding in
 * src/problems satisfies this).
 */
std::vector<linalg::IntVec> homogeneousBasis(const problems::Problem &problem);

/**
 * Algorithm 1: greedy pairwise simplification.  For each ordered pair
 * (u_i, u_j), try u_i + u_j and u_i - u_j; replace u_i when the candidate
 * stays in {-1,0,1}^n and has strictly fewer nonzeros.
 *
 * The sweep runs on each vector packed as a (+1 mask, -1 mask) pair of
 * BitVecs: a combination leaves {-1,0,1} iff the masks of equal sign
 * overlap, and its nonzero count is a popcount.  Precondition (aborts
 * otherwise): the vectors have equal length, at most kMaxBits entries,
 * and entries in {-1, 0, 1}.
 *
 * @param max_passes repeat the O(m^2 n) sweep until a fixed point or this
 *                   many passes (1 reproduces the paper's single sweep).
 */
std::vector<linalg::IntVec>
simplifyBasis(std::vector<linalg::IntVec> basis, int max_passes = 8);

/** Total nonzero entries across @p basis (the simplification metric). */
int totalNonZeros(const std::vector<linalg::IntVec> &basis);

/**
 * The executable transition-vector set for a problem: the (optionally
 * simplified) homogeneous basis, augmented so the feasible set is
 * CONNECTED under single-transition moves.
 *
 * Theorem 1 guarantees chain coverage for totally unimodular constraint
 * matrices; for general encodings the +/-u walk can leave feasible
 * states unreachable (every intermediate stop would be non-binary).  When
 * the feasible set is enumerable, this pass detects unreached states and
 * appends difference vectors u = x_g - x_p -- kernel vectors in
 * {-1,0,1}^n by construction, per Equation 3 -- until the walk covers
 * everything.  Non-enumerable (scalability) instances, and instances
 * with more than @p max_feasible feasible states, skip augmentation;
 * when @p simplify is set they keep the original basis vectors next to
 * the simplified ones, since the simplified set alone can disconnect
 * the walk.
 *
 * @param max_feasible skip augmentation when the feasible set is larger.
 */
std::vector<linalg::IntVec>
transitionVectors(const problems::Problem &problem, bool simplify = true,
                  size_t max_feasible = size_t{1} << 18);

} // namespace rasengan::core

#endif // RASENGAN_CORE_BASIS_H
