#include "device/latency.h"

namespace rasengan::device {

double
LatencyModel::circuitTimeUs(const circuit::Circuit &circ) const
{
    int total_depth = circ.depth();
    int twoq_depth = circ.twoQubitDepth();
    int oneq_depth = total_depth - twoq_depth;
    double ns = twoq_depth * device_.gate2qNs +
                oneq_depth * device_.gate1qNs + device_.readoutNs;
    return ns * 1e-3;
}

double
LatencyModel::executionTimeSeconds(const circuit::Circuit &circ,
                                   uint64_t shots) const
{
    return executionTimeSeconds(circuitTimeUs(circ), shots);
}

double
LatencyModel::executionTimeSeconds(double circuit_us, uint64_t shots) const
{
    double per_shot_us = circuit_us + device_.shotOverheadUs;
    return per_shot_us * static_cast<double>(shots) * 1e-6;
}

double
LatencyModel::segmentedTimeSeconds(
    const std::vector<std::pair<circuit::Circuit, uint64_t>> &segments) const
{
    double total = 0.0;
    for (const auto &[circ, shots] : segments)
        total += executionTimeSeconds(circ, shots);
    return total;
}

} // namespace rasengan::device
