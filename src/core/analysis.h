/**
 * @file
 * Pipeline introspection: a structured report of everything the Rasengan
 * pipeline decided for a problem (basis sizes, simplification effect,
 * chain statistics, per-segment compiled costs, modeled latency), plus a
 * formatted printout.  Used by the examples and available to downstream
 * users who want to inspect a deployment before running it.
 */

#ifndef RASENGAN_CORE_ANALYSIS_H
#define RASENGAN_CORE_ANALYSIS_H

#include <string>
#include <vector>

#include "core/rasengan.h"

namespace rasengan::core {

struct SegmentReport
{
    int index = 0;
    int transitions = 0;
    int depth = 0;      ///< transpiled + peephole-optimized
    int cxCount = 0;    ///< transpiled + peephole-optimized
    double shotTimeUs = 0.0; ///< latency model, one transpiled shot
};

struct PipelineReport
{
    std::string problemId;
    int numVars = 0;
    int numConstraints = 0;

    int rawBasisSize = 0;
    int rawNonZeros = 0;
    int executableVectors = 0; ///< after simplification + augmentation
    int executableNonZeros = 0;

    int unprunedChain = 0;
    int prunedChain = 0;
    size_t reachableStates = 0;
    bool coverageCapped = false;

    std::vector<SegmentReport> segments;
    int maxSegmentDepth = 0;
    /** RasenganSolver::perExecutionQuantumSeconds(). */
    double quantumSecondsPerExecution = 0.0;

    /** Human-readable multi-line summary. */
    std::string toString() const;
};

/** Analyze the already-constructed solver (no training involved). */
PipelineReport analyzePipeline(const RasenganSolver &solver);

} // namespace rasengan::core

#endif // RASENGAN_CORE_ANALYSIS_H
