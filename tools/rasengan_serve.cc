/**
 * @file
 * Batch solve service driver.
 *
 * Reads solve requests (one flat JSON object per line) from a file or
 * generates a synthetic workload, runs them through the
 * serve::BatchScheduler, and writes one deterministic result line per
 * job -- in submission order -- plus an optional telemetry stream.
 *
 * The result file contains no timing fields: two runs over the same
 * requests with the same --batch-seed are byte-identical at any
 * --threads setting (CI diffs them), while --telemetry captures queue
 * wait, wall time, cache hits, and retries per job.
 *
 * Run it with no arguments for the option list.
 *
 * Exit status: 0 when every admitted job succeeded, 1 on usage or I/O
 * errors, 2 when some admitted job failed (rejections alone do not
 * fail the batch: they are reported outcomes, not errors), 3 when
 * SIGTERM/SIGINT interrupted the batch -- jobs already running finish,
 * results/telemetry/metrics are still written, and jobs that never
 * started are reported as accepted-but-interrupted failures.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "drivers.h"
#include "serve/jsonl.h"
#include "serve/scheduler.h"

using namespace rasengan;

namespace {

/** SIGTERM/SIGINT trip this; the scheduler polls it between jobs. */
std::atomic<bool> g_stop{false};

extern "C" void
onStopSignal(int)
{
    g_stop.store(true, std::memory_order_relaxed);
}

} // namespace

int
main(int argc, char **argv)
{
    tools::ServeArgs args;
    const tools::CommandLine cli = tools::serveCommandLine(args);
    tools::parseOrExit(cli, argc, argv);
    if (std::string error = tools::batchSourceError(args.batch);
        !error.empty()) {
        tools::printUsageError(cli, error);
        return 1;
    }

    std::vector<serve::JobRequest> requests;
    if (!tools::loadRequests(args.batch, &requests))
        return 1;
    if (args.dumpWorkload) {
        for (const auto &req : requests)
            std::printf("%s\n", serve::writeRequest(req).c_str());
        return 0;
    }

    // Graceful interruption: finish running jobs, skip unstarted ones,
    // and still write every output stream before exiting with code 3.
    serve::ServeOptions &options = args.service;
    options.stopFlag = &g_stop;
    std::signal(SIGTERM, onStopSignal);
    std::signal(SIGINT, onStopSignal);

    if (!tools::applySimdFlag(args.obs.simd))
        return 1;
    tools::obsCliStart(args.obs);

    serve::BatchScheduler scheduler(options);
    for (const auto &req : requests)
        scheduler.submit(req);
    scheduler.runAll();

    // Result stream (deterministic, submission order), then telemetry.
    const std::vector<serve::JobResult> &results = scheduler.results();
    if (!tools::writeBatchLines(
            args.batch, results.size(),
            [&](size_t i) { return serve::writeResult(results[i]); },
            [&](size_t i) { return serve::writeTelemetry(results[i]); }))
        return 1;

    // Batch summary (stderr: keep stdout byte-comparable).
    size_t accepted = 0, rejected = 0, failed = 0;
    for (const auto &result : results) {
        if (!result.accepted)
            ++rejected;
        else if (!result.ok)
            ++failed;
        else
            ++accepted;
    }
    serve::ArtifactCache::Stats cache = scheduler.cache().stats();
    const size_t interrupted = scheduler.interruptedJobs();
    std::fprintf(stderr,
                 "batch: %zu jobs (%zu ok, %zu failed, %zu rejected, "
                 "%zu interrupted)\n",
                 results.size(), accepted, failed, rejected,
                 interrupted);
    std::fprintf(stderr,
                 "cache: %llu hits, %llu misses (%.1f%% hit rate), "
                 "%llu evictions, %llu bytes in %zu entries\n",
                 static_cast<unsigned long long>(cache.hits),
                 static_cast<unsigned long long>(cache.misses),
                 100.0 * cache.hitRate(),
                 static_cast<unsigned long long>(cache.evictions),
                 static_cast<unsigned long long>(cache.bytesInUse),
                 cache.entries);
    std::fprintf(stderr, "admission: %.3g cost units committed\n",
                 scheduler.admission().batchCostUnits());

    if (!tools::obsCliFinish(args.obs))
        return 1;
    if (g_stop.load(std::memory_order_relaxed))
        return 3;
    return failed > 0 ? 2 : 0;
}
