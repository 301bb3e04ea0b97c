/**
 * @file
 * Latency estimation for quantum execution.
 *
 * Composes per-shot circuit time from the device's gate durations along
 * the circuit's critical path, plus readout and per-shot reset overhead.
 * This is the repository's substitute for measured IBM-cloud execution
 * time (Table 1, Figures 12-13); classical optimizer time is measured for
 * real with common/timer.h and reported next to these estimates.
 */

#ifndef RASENGAN_DEVICE_LATENCY_H
#define RASENGAN_DEVICE_LATENCY_H

#include <cstdint>

#include "circuit/circuit.h"
#include "device/device.h"

namespace rasengan::device {

class LatencyModel
{
  public:
    explicit LatencyModel(DeviceModel device) : device_(std::move(device)) {}

    const DeviceModel &device() const { return device_; }

    /**
     * Critical-path duration of one execution of @p circ, in microseconds:
     * two-qubit layers at the 2q gate duration, remaining layers at the 1q
     * duration, plus readout.
     */
    double circuitTimeUs(const circuit::Circuit &circ) const;

    /** Total quantum time for @p shots executions, in seconds. */
    double executionTimeSeconds(const circuit::Circuit &circ,
                                uint64_t shots) const;

    /**
     * The same for a circuit whose circuitTimeUs() is @p circuit_us
     * (a cost computed once and stored, as in core::SegmentCost).
     */
    double executionTimeSeconds(double circuit_us, uint64_t shots) const;

    /**
     * Quantum time of a segmented run: each (circuit, shots) pair is
     * executed independently (Figure 13's latency-vs-segments study).
     */
    double
    segmentedTimeSeconds(
        const std::vector<std::pair<circuit::Circuit, uint64_t>> &segments)
        const;

  private:
    DeviceModel device_;
};

} // namespace rasengan::device

#endif // RASENGAN_DEVICE_LATENCY_H
