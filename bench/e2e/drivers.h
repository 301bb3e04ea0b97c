/**
 * @file
 * One round of a workload through its real driver binary, the driver's
 * set-up time, and the checks every round's output must pass.
 */

#ifndef RASENGAN_BENCH_E2E_DRIVERS_H
#define RASENGAN_BENCH_E2E_DRIVERS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "proc.h"
#include "workloads.h"

namespace e2e {

/** Where the driver binaries are and where a workload may write. */
struct Paths
{
    std::string bin;  ///< directory holding the four driver binaries
    std::string work; ///< work directory of this workload's run
};

/** Measurements and output of one round. */
struct Round
{
    bool ok = false; ///< the driver ran and answered every request
    std::string error;
    ProcStats proc;
    /** Result lines in request order, newline-terminated: the bytes a
     *  batch driver writes, and what the digest covers. */
    std::string bytes;
    double wallS = 0.0; ///< batch: driver wall; daemon: until last reply
    std::map<std::string, double> latencyMsById; ///< daemon only
    double genLateMsMax = 0.0;                   ///< daemon only
};

/**
 * Run the workload's request file (writeRequests()) once through a batch
 * driver (`rasengan_serve` or `rasengan_clusterd`) with @p args, plus
 * @p extra flags; @p tag names the round's files.
 */
Round batchRound(const Paths &paths, Driver driver,
                 const std::vector<std::string> &args,
                 const std::string &tag,
                 const std::vector<std::string> &extra = {});

/** Start a fresh journaled `rasengan_served` and drive the workload's
 *  open-loop schedule through it. */
Round daemonRound(const Workload &w, const Paths &paths,
                  const std::string &tag);

/**
 * Median over @p launches of the driver's set-up time: a one-job
 * batch from spawn to exit, or daemon spawn until /readyz answers.
 */
double setupSeconds(const Workload &w, const Paths &paths, int launches);

/** Outcome of checking one round's bytes against its requests. */
struct Check
{
    bool ok = false;
    std::string error;
    size_t okJobs = 0;
    size_t failedJobs = 0; ///< rejected or ok:false
};

/**
 * Every request has a result line, in order, and every ok result names
 * a feasible solution whose objective matches the problem's.
 */
Check checkRound(const Workload &w, const std::string &bytes);

/** 16-hex fnv1a64 of @p bytes, the digest committed per workload. */
std::string digest(const std::string &bytes);

/** Write the workload's requests to the JSONL file batch rounds read. */
void writeRequests(const Workload &w, const Paths &paths);

} // namespace e2e

#endif // RASENGAN_BENCH_E2E_DRIVERS_H
