/**
 * @file
 * Deterministic parallelism substrate: one job-level thread pool plus
 * serial blocked reductions.
 *
 * Jobs are the only unit of parallelism.  The pool serves
 * parallelForDynamic, which hands whole independent work items (the
 * batch scheduler's solve jobs) to its lanes; the simulators inside a
 * job run serial loops.
 *
 *  1. Bit-identical results at every thread count.  Each work item
 *     writes only its own data and seeds only from its content, so the
 *     thread count merely reschedules items.  Floating-point sums go
 *     through reduceBlocks/reduceBlocksComplex, which add fixed-size
 *     block partials in index order, so their association depends on
 *     the block size only.
 *  2. No oversubscription: one global pool, lazily created.  A
 *     parallelForDynamic issued from inside a pool task runs serially.
 *
 * Thread count resolution (first use, or setThreadCount):
 *   explicit setThreadCount(n > 0)  >  RASENGAN_THREADS env  >
 *   std::thread::hardware_concurrency().
 */

#ifndef RASENGAN_COMMON_PARALLEL_H
#define RASENGAN_COMMON_PARALLEL_H

#include <complex>
#include <cstdint>
#include <functional>

namespace rasengan::parallel {

/** Fixed reduction block size; determines the summation association. */
constexpr uint64_t kReduceBlock = uint64_t{1} << 14;

/** Configured worker count (including the calling thread), >= 1. */
int threadCount();

/**
 * Reconfigure the pool to @p n threads; @p n <= 0 re-resolves from the
 * RASENGAN_THREADS environment variable / hardware concurrency.  Safe
 * to call repeatedly (tests sweep 1/2/7); must not be called from
 * inside a pool task.
 */
void setThreadCount(int n);

/** True while the calling thread is executing a pool task. */
bool inParallelRegion();

/**
 * Execute @p fn(i) once for every i in [begin, end), distributing the
 * indices dynamically: workers claim the next unprocessed index from a
 * shared atomic counter, so long-running items do not stall the rest of
 * the batch.  Intended for coarse, independent work items (whole solve
 * jobs); each invocation must only write data no other invocation
 * writes.  Which thread runs which index is nondeterministic -- callers
 * needing reproducible output must make each item's result independent
 * of scheduling (the serve layer does this with per-item seeds).  Runs
 * serially when the pool has one thread or the caller is already inside
 * a pool task.
 */
void parallelForDynamic(uint64_t begin, uint64_t end,
                        const std::function<void(uint64_t)> &fn);

/**
 * Blocked sum: partition [begin, end) into fixed @p block -sized
 * blocks, evaluate @p fn(block_begin, block_end) for each, and add the
 * per-block partials in index order.  Runs on the calling thread.
 */
double reduceBlocks(uint64_t begin, uint64_t end, uint64_t block,
                    const std::function<double(uint64_t, uint64_t)> &fn);

/** Complex-valued analogue of reduceBlocks. */
std::complex<double>
reduceBlocksComplex(uint64_t begin, uint64_t end, uint64_t block,
                    const std::function<std::complex<double>(
                        uint64_t, uint64_t)> &fn);

} // namespace rasengan::parallel

#endif // RASENGAN_COMMON_PARALLEL_H
