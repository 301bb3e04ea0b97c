/**
 * @file
 * Seeded workload generators for the end-to-end benchmark.
 *
 * Every workload is a list of request lines in the serve JSONL format,
 * rendered here rather than through the library so that the inputs stay
 * byte-stable whatever the code under test does.  The seed decides the
 * per-job solver seeds, the case index of baseline and daemon jobs, and
 * the FLP instance data.  The job shapes (benchmark, execution,
 * iteration budget), their order and the daemon's arrival times are
 * fixed, so different seeds cost about the same and a metric moves with
 * the code, not with the draw.
 */

#ifndef RASENGAN_BENCH_E2E_WORKLOADS_H
#define RASENGAN_BENCH_E2E_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

enum class Driver { Serve, Cluster, Daemon };

struct Workload
{
    std::string name;
    Driver driver = Driver::Serve;
    /** Driver flags besides the request/output plumbing. */
    std::vector<std::string> driverArgs;
    /** Flags of the equivalent single-process `rasengan_serve` batch,
     *  the reference the cluster and daemon bytes are checked against. */
    std::vector<std::string> serveArgs;
    std::vector<std::string> requests; ///< one JSON object per entry
    /** Daemon only: open-loop send time of each request, ms after the
     *  round starts (Poisson arrivals). */
    std::vector<double> sendAtMs;
};

/** Workload names in the order a full invocation runs them. */
const std::vector<std::string> &workloadNames();

/**
 * Build workload @p name for @p seed; @p smoke keeps about a tenth of
 * the jobs.  Returns false for an unknown name.
 */
bool makeWorkload(const std::string &name, uint64_t seed, bool smoke,
                  Workload &out);

/** splitmix64 stream: the harness's only source of randomness. */
class SplitMix
{
  public:
    explicit SplitMix(uint64_t seed) : state_(seed) {}
    uint64_t next();
    /** Uniform in [0, n); n > 0. */
    uint64_t below(uint64_t n) { return next() % n; }
    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }

    template <typename T>
    void
    shuffle(std::vector<T> &items)
    {
        for (size_t i = items.size(); i > 1; --i)
            std::swap(items[i - 1], items[below(i)]);
    }

  private:
    uint64_t state_;
};

} // namespace e2e

#endif // RASENGAN_BENCH_E2E_WORKLOADS_H
