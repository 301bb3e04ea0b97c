/**
 * @file
 * What one workload run reports: named metrics with units, the job
 * counts, and whether every output check passed.
 */

#ifndef RASENGAN_BENCH_E2E_OUTCOME_H
#define RASENGAN_BENCH_E2E_OUTCOME_H

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace e2e {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Outcome
{
    bool correct = true;
    std::string error; ///< first failed check
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::string digest; ///< of the driver's result bytes
    /** The metrics of the JSON result line. */
    std::vector<Metric> metrics;
    /** Context printed beside the metrics but never scored. */
    std::vector<Metric> notes;

    void
    fail(const std::string &why)
    {
        if (correct)
            error = why;
        correct = false;
    }

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    void
    note(const std::string &name, double value, const std::string &unit)
    {
        notes.push_back({name, value, unit});
    }
};

/** Nearest-rank quantile of @p values (0 when empty), q in [0, 1]. */
inline double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    size_t rank = static_cast<size_t>(q * static_cast<double>(values.size()));
    return values[std::min(rank, values.size() - 1)];
}

inline double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

} // namespace e2e

#endif // RASENGAN_BENCH_E2E_OUTCOME_H
