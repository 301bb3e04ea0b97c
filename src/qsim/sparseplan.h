/**
 * @file
 * Cached rotation plans for the sparse simulator.
 *
 * A Rasengan segment applies a fixed sequence of transition rotations
 * whose *structure* (which basis states pair with which, which states
 * are dark, which partner states get created) depends only on the
 * initial support and the transition masks/patterns -- never on the
 * evolution angles the optimizer tunes.  A SparseSegmentPlan captures
 * that structure once, in index space: per rotation a scatter map from
 * the previous support layout into the next one plus the (plus, minus)
 * index pairs to rotate.  Replaying a plan is then pure arithmetic on a
 * flat amplitude array -- no key classification, no partner search, no
 * key-array rebuilds -- and is bit-identical to the direct kernels
 * (replay applies exactly the scatter + pair rotations the recording
 * run applied).
 *
 * Pruning is the one way the structure can become angle-dependent: if
 * prune() removes a state mid-segment, every later rotation sees a
 * different support.  The contract is therefore:
 *  - a plan recorded while the state's support epoch advanced is marked
 *    non-replayable (recording ran under the caller's prune policy and
 *    pruning actually fired);
 *  - replaySegmentPlan() re-checks the caller's prune threshold after
 *    every step and *aborts* (returns nullopt) the moment any amplitude
 *    falls below it, because the direct path would have pruned there.
 *    The caller falls back to direct execution for these angles and
 *    keeps the plan (it counts an abort: other angle vectors may still
 *    replay it), so planned and unplanned execution always produce
 *    identical results.
 */

#ifndef RASENGAN_QSIM_SPARSEPLAN_H
#define RASENGAN_QSIM_SPARSEPLAN_H

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/bitvec.h"
#include "qsim/sparsestate.h"

namespace rasengan::qsim {

/** Scatter-source sentinel: the slot starts at amplitude zero (a
 *  partner state the rotation creates). */
constexpr uint32_t kPlanNoSource = UINT32_MAX;

/** Index-space structure of one pair rotation. */
struct SparseStepPlan
{
    /**
     * scatter[k] = index in the previous amplitude array whose value
     * seeds slot k of the next array, or kPlanNoSource for a freshly
     * created (zero) slot.  Its size is the post-rotation support size.
     */
    std::vector<uint32_t> scatter;
    /** (plus, minus) slot pairs to rotate, indices into the next array. */
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
};

/** Angle-independent replay recipe for one segment + initial state
 *  (the state itself is the key the caller files the plan under). */
struct SparseSegmentPlan
{
    int numQubits = 0;
    /**
     * False when the recording run pruned mid-segment: the structure
     * was angle-dependent for the recording angles, so the plan only
     * memoizes that fact (steps/finalKeys are empty).
     */
    bool replayable = true;
    std::vector<SparseStepPlan> steps;
    /** Support after the last step, strictly ascending. */
    std::vector<BitVec> finalKeys;
};

/**
 * Rotate each (plus, minus) slot pair of @p amps by angle @p t:
 * a+' = cos(t) a+ - i sin(t) a-, and symmetrically for a-.  The one
 * rotation body that SparseState::applyPairRotation and
 * replaySegmentPlan share, which is what makes replay bit-identical to
 * direct execution.  Pairs must be disjoint.
 */
void rotatePairs(std::vector<SparseState::Complex> &amps,
                 const std::vector<std::pair<uint32_t, uint32_t>> &pairs,
                 double t);

/**
 * Replay @p plan with per-step angles @p times (times[i] drives step i;
 * the caller guarantees plan.steps.size() angles).  After each step the
 * amplitudes are checked against @p prune_threshold exactly like the
 * direct kernels would; the first would-be prune aborts the replay
 * (returns nullopt) so the caller can fall back to direct execution.
 * @p plan must be replayable.
 */
std::optional<SparseState>
replaySegmentPlan(const SparseSegmentPlan &plan, const double *times,
                  double prune_threshold =
                      SparseState::kDefaultPruneThreshold);

} // namespace rasengan::qsim

#endif // RASENGAN_QSIM_SPARSEPLAN_H
