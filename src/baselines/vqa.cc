#include "baselines/vqa.h"

#include <algorithm>

#include "common/logging.h"
#include "problems/metrics.h"

namespace rasengan::baselines {

void
finalizeMetrics(const problems::Problem &problem, double lambda,
                VqaResult &result)
{
    result.expectedObjective =
        problems::expectedObjective(problem, result.counts, lambda);
    result.inConstraintsRate =
        problems::inConstraintsRate(problem, result.counts);
}

exec::Expected<qsim::Counts>
VqaExecHarness::sample(const std::string &tag, uint64_t nominalShots,
                       int numBits, uint64_t rngSeed, double attemptSeconds,
                       const std::function<qsim::Counts(Rng &, uint64_t)> &fn)
{
    return executor_.runDegrading([&] {
        const uint64_t shots =
            std::max<uint64_t>(1, executor_.degradedShots(nominalShots));
        exec::ShotJob job;
        job.tag = tag;
        job.shots = shots;
        job.numBits = numBits;
        job.rngSeed = rngSeed;
        job.attemptSeconds = attemptSeconds;
        job.sample = [&fn, shots](Rng &rng) { return fn(rng, shots); };
        return executor_.run(job);
    });
}

qsim::Counts
VqaExecHarness::sampleFinal(
    const std::string &tag, uint64_t shots, int numBits, uint64_t rngSeed,
    double attemptSeconds,
    const std::function<qsim::Counts(Rng &, uint64_t)> &fn)
{
    auto sampled =
        sample(tag, shots, numBits, rngSeed, attemptSeconds, fn);
    if (sampled.ok())
        return std::move(sampled.value());
    if (sampled.error().stopped())
        return {};
    warn("{} sampling failed ({}); using the clean simulator", tag,
         sampled.error().toString());
    Rng rng(rngSeed);
    return fn(rng, shots);
}

exec::Expected<double>
VqaExecHarness::expectation(const std::string &tag, double attemptSeconds,
                            const std::function<double()> &fn)
{
    exec::ValueJob job;
    job.tag = tag;
    job.evaluate = fn;
    job.attemptSeconds = attemptSeconds;
    return executor_.runDegrading(
        [&] { return executor_.expectation(job); });
}

void
VqaExecHarness::finalize(VqaResult &result)
{
    result.execStats = executor_.stats();
    result.degradation = executor_.level();
}

} // namespace rasengan::baselines
