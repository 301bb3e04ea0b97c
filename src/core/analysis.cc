#include "core/analysis.h"

#include <algorithm>
#include <sstream>

#include "core/basis.h"
#include "linalg/nullspace.h"

namespace rasengan::core {

PipelineReport
analyzePipeline(const RasenganSolver &solver)
{
    const problems::Problem &problem = solver.problem();

    PipelineReport report;
    report.problemId = problem.id();
    report.numVars = problem.numVars();
    report.numConstraints = problem.numConstraints();

    auto raw = homogeneousBasis(problem);
    report.rawBasisSize = static_cast<int>(raw.size());
    report.rawNonZeros = totalNonZeros(raw);
    report.executableVectors = static_cast<int>(solver.transitions().size());
    int executable_nonzeros = 0;
    for (const auto &tau : solver.transitions())
        executable_nonzeros += tau.support();
    report.executableNonZeros = executable_nonzeros;

    report.unprunedChain =
        static_cast<int>(solver.chain().unprunedSteps.size());
    report.prunedChain = static_cast<int>(solver.chain().steps.size());
    report.reachableStates = solver.chain().reachableCount;
    report.coverageCapped = solver.chain().capped;

    // The pipeline's stored nominal costs, the figures the solver
    // prices its executions with.
    for (int s = 0; s < static_cast<int>(solver.segments().size()); ++s) {
        const SegmentCost &cost = solver.segmentCosts()[s];
        SegmentReport seg;
        seg.index = s;
        seg.transitions = solver.segments()[s].stepCount;
        seg.depth = cost.depth;
        seg.cxCount = cost.cx;
        seg.shotTimeUs = cost.circuitUs;
        report.segments.push_back(seg);
        report.maxSegmentDepth = std::max(report.maxSegmentDepth, seg.depth);
    }
    report.quantumSecondsPerExecution = solver.perExecutionQuantumSeconds();
    return report;
}

std::string
PipelineReport::toString() const
{
    std::ostringstream os;
    os << "pipeline report for " << problemId << " (" << numVars
       << " vars, " << numConstraints << " constraints)\n";
    os << "  homogeneous basis: " << rawBasisSize << " vectors, "
       << rawNonZeros << " nonzeros\n";
    os << "  executable set:    " << executableVectors << " vectors, "
       << executableNonZeros << " nonzeros (after Algorithm 1 + "
       << "augmentation)\n";
    os << "  chain: " << prunedChain << " kept of " << unprunedChain
       << " scheduled; reaches " << reachableStates << " feasible states"
       << (coverageCapped ? " (capped)" : "") << "\n";
    os << "  segments (" << segments.size() << "):\n";
    for (const SegmentReport &seg : segments) {
        os << "    #" << seg.index << ": " << seg.transitions
           << " transitions, depth " << seg.depth << ", " << seg.cxCount
           << " CX, " << seg.shotTimeUs << " us/shot\n";
    }
    os << "  quantum time per training evaluation: "
       << quantumSecondsPerExecution << " s\n";
    return os.str();
}

} // namespace rasengan::core
