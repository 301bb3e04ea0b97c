/**
 * @file
 * The traced pass: per-layer metrics for one workload.
 *
 * The harness records its own spans (name, start, end, parent, job id)
 * around calls into the library's public functions, keeps them in
 * memory, and writes them at the end as a Chrome trace-event file that
 * Perfetto loads.  Nothing inside the program is instrumented for this:
 * its own tracing stays off except where the trace-overhead probe turns
 * it on.
 *
 * Two in-process passes run the workload's requests serially on a
 * two-thread pool, each with its own artifact cache that starts empty,
 * as one driver process does:
 *
 *  - the serve pass, through the production path: parseRequest,
 *    screenRequest, JobRunner::run, writeResult + writeTelemetry, the
 *    daemon journal's appends, and the cluster wire round trip of the
 *    request and result;
 *  - the attribution pass, which rebuilds each job's solver from the
 *    same options and times pipeline build, lowering, training, one
 *    extra execution and the baselines separately.  Its solutions must
 *    equal the serve pass's, byte for byte.
 *
 * Around them: one run of the workload's real driver (its telemetry
 * gives the cache counters, its bytes must equal the serve pass's), and
 * alternating batch runs with and without the driver's --trace and
 * through the cluster, for the tracing overhead and the cluster tax.
 */

#ifndef RASENGAN_BENCH_E2E_TRACED_H
#define RASENGAN_BENCH_E2E_TRACED_H

#include <string>

#include "drivers.h"
#include "outcome.h"
#include "workloads.h"

namespace e2e {

/**
 * Run the traced pass of @p w; @p expectedDigest ("" = unchecked) is
 * compared with the driver's result bytes, @p alternations sets the
 * overhead/tax repetitions, and the spans go to @p spanFile.
 */
Outcome measureTraced(const Workload &w, const Paths &paths,
                      const std::string &expectedDigest, int alternations,
                      const std::string &spanFile);

} // namespace e2e

#endif // RASENGAN_BENCH_E2E_TRACED_H
