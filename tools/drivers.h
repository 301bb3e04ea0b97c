/**
 * @file
 * The four drivers' command lines and the batch front end that
 * rasengan_serve and rasengan_clusterd share.
 *
 * Every flag of rasengan_solve, rasengan_serve, rasengan_served and
 * rasengan_clusterd is declared here, in one option table per driver.
 * Groups several drivers accept are declared once and appended:
 * obsOptions() (--simd, --trace, --metrics, --flight),
 * serviceOptions() (--threads, --batch-seed, --cache-mb and the --max-*
 * admission limits, bound straight into serve::ServiceOptions) and
 * batchOptions() (where requests come from and where lines go).  The
 * *CommandLine() functions bind a table to an args struct; the drivers'
 * usage text is generated from the same table.
 */

#ifndef RASENGAN_TOOLS_DRIVERS_H
#define RASENGAN_TOOLS_DRIVERS_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cluster/coordinator.h"
#include "obs_cli.h"
#include "options.h"
#include "serve/daemon.h"
#include "serve/job.h"
#include "serve/scheduler.h"

namespace rasengan::tools {

/** --simd and --flight; with @p tracing also --trace and --metrics. */
OptionTable obsOptions(ObsCliOptions &obs, bool tracing = true);

/** --threads, --batch-seed, --cache-mb and the --max-* limits. */
OptionTable serviceOptions(serve::ServiceOptions &service);

/** Where a batch driver's requests come from and its lines go. */
struct BatchArgs
{
    std::string requests;
    long workload = -1; ///< -1: no --workload
    uint64_t workloadSeed = 1;
    std::string out; ///< "" = stdout
    std::string telemetry;
};

/** --requests, --workload, --workload-seed, --out, --telemetry. */
OptionTable batchOptions(BatchArgs &batch);

struct SolveArgs
{
    std::string benchmark;
    std::string file;
    std::string dump;
    std::string algorithm = "rasengan";
    std::string noise = "none";
    std::string optimizer = "cobyla";
    int iterations = 200;
    uint64_t seed = 7;
    bool draw = false;
    bool qasm = false;
    double faults = 0.0;
    int retries = 5;
    std::string checkpoint;
    ObsCliOptions obs;
};

struct ServeArgs
{
    BatchArgs batch;
    serve::ServeOptions service;
    bool dumpWorkload = false;
    ObsCliOptions obs;
};

struct ServedArgs
{
    ServedArgs() { daemon.listen.clear(); } // --listen is required
    serve::DaemonOptions daemon;
    ObsCliOptions obs;
};

struct ClusterdArgs
{
    ClusterdArgs()
    {
        coordinator.faultWorker = 0;
        coordinator.retry.maxAttempts = 3;
    }
    int workers = -1; ///< fork mode worker count
    bool workerMode = false;
    std::string connect; ///< HOST:PORT (worker mode)
    int listenPort = -1;
    long expectWorkers = -1;
    BatchArgs batch;
    cluster::CoordinatorOptions coordinator;
    std::string traceSignature; ///< merged signature output path
    ObsCliOptions obs;
};

CommandLine solveCommandLine(SolveArgs &args);
CommandLine serveCommandLine(ServeArgs &args);
CommandLine servedCommandLine(ServedArgs &args);
CommandLine clusterdCommandLine(ClusterdArgs &args);

/** "" when exactly one of --requests and --workload was given. */
std::string batchSourceError(const BatchArgs &batch);

/**
 * The batch's requests: each line of --requests, or the generated
 * --workload.  A defective request line fails the whole file.  Returns
 * false after printing "FILE:LINE: why".
 */
bool loadRequests(const BatchArgs &batch,
                  std::vector<serve::JobRequest> *requests);

/**
 * Write result(i) for every i < @p count to --out (stdout when unset)
 * and, with --telemetry, telemetry(i) to that file.  Returns false
 * after printing when a file cannot be opened.
 */
bool writeBatchLines(const BatchArgs &batch, size_t count,
                     const std::function<std::string(size_t)> &result,
                     const std::function<std::string(size_t)> &telemetry);

} // namespace rasengan::tools

#endif // RASENGAN_TOOLS_DRIVERS_H
