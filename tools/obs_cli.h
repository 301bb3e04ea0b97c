/**
 * @file
 * Shared --trace/--metrics/--simd/--flight plumbing for the CLI tools
 * (the flags themselves are tools::obsOptions() in drivers.h).
 *
 * Usage: call obsCliStart() once flags are parsed (enables tracing when
 * a trace path was given, configures the flight recorder from --flight
 * or RASENGAN_FLIGHT and installs its dump signal handlers) and
 * obsCliFinish() before exit (writes the Chrome trace JSON and the
 * metrics exposition).  A metrics path ending in ".json" selects the
 * flat JSON export; anything else gets Prometheus text.
 *
 * obsCliStart() also pins the SIMD kernel tier: it resolves the active
 * ISA (registering the simd_isa_info gauge before any export can run)
 * and, when tracing, records the ISA as an instant event so every
 * trace artifact carries the kernel configuration it was produced
 * under.  applySimdFlag() is the shared --simd ISA handler.
 */

#ifndef RASENGAN_TOOLS_OBS_CLI_H
#define RASENGAN_TOOLS_OBS_CLI_H

#include <cstdio>
#include <string>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "qsim/simd.h"

namespace rasengan::tools {

struct ObsCliOptions
{
    /** --simd ISA; "" leaves the RASENGAN_SIMD / auto default. */
    std::string simd;
    std::string tracePath;
    std::string metricsPath;
    /** --flight value: on|off|N (ring entries)|/dump/path; "" falls
     *  back to RASENGAN_FLIGHT, then off. */
    std::string flightSpec;
};

/**
 * Apply a --simd spec ("auto"|"avx2"|"neon"|"scalar"); empty means
 * leave the RASENGAN_SIMD / auto default in place.  Returns false
 * after printing a diagnostic when the spec is unknown or the ISA is
 * unavailable on this build/CPU.
 */
inline bool
applySimdFlag(const std::string &spec)
{
    if (spec.empty())
        return true;
    std::string error;
    if (!qsim::selectSimdIsa(spec, &error)) {
        std::fprintf(stderr, "--simd: %s\n", error.c_str());
        return false;
    }
    return true;
}

inline void
obsCliStart(const ObsCliOptions &opts)
{
    // Resolving the active ISA here registers the simd_isa_info gauge
    // before any metrics export can run.
    const char *isa = qsim::simdIsaName(qsim::simdActiveIsa());
    const bool flight =
        opts.flightSpec.empty()
            ? obs::flight::configureFromEnv(/*defaultOn=*/false)
            : obs::flight::configureFromSpec(opts.flightSpec,
                                             /*defaultOn=*/false);
    if (flight)
        obs::flight::installSignalHandlers();
    if (!opts.tracePath.empty()) {
        obs::clearTrace();
        obs::startTracing();
        obs::instantEvent("qsim", "simd_isa", isa);
    }
}

/** Returns false (after printing to stderr) if an export failed. */
inline bool
obsCliFinish(const ObsCliOptions &opts)
{
    bool ok = true;
    if (!opts.tracePath.empty()) {
        obs::stopTracing();
        if (!obs::writeChromeTrace(opts.tracePath)) {
            std::fprintf(stderr, "cannot write trace to '%s'\n",
                         opts.tracePath.c_str());
            ok = false;
        } else {
            std::fprintf(stderr, "trace: %zu events -> %s\n",
                         obs::traceEventCount(), opts.tracePath.c_str());
            if (uint64_t dropped = obs::traceDroppedCount())
                std::fprintf(stderr,
                             "trace: %llu events dropped (buffer full)\n",
                             static_cast<unsigned long long>(dropped));
        }
    }
    if (!opts.metricsPath.empty()) {
        const bool json =
            opts.metricsPath.size() >= 5 &&
            opts.metricsPath.compare(opts.metricsPath.size() - 5, 5,
                                     ".json") == 0;
        const std::string text = json ? obs::Registry::global().jsonText()
                                      : obs::Registry::global().promText();
        if (!obs::writeTextFile(opts.metricsPath, text)) {
            std::fprintf(stderr, "cannot write metrics to '%s'\n",
                         opts.metricsPath.c_str());
            ok = false;
        }
    }
    return ok;
}

} // namespace rasengan::tools

#endif // RASENGAN_TOOLS_OBS_CLI_H
