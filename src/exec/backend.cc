#include "exec/backend.h"

#include <cmath>

#include "common/logging.h"

namespace rasengan::exec {

Expected<qsim::Counts>
validateCounts(const ShotJob &job, qsim::Counts counts)
{
    if (counts.total() < job.shots) {
        return ExecError{ErrorCode::ShotLoss,
                         detail::format("{}: histogram has {} of {} shots",
                                        job.tag.c_str(), counts.total(),
                                        job.shots)};
    }
    if (job.numBits > 0) {
        BitVec beyond; // bits numBits..127
        for (int b = job.numBits; b < kMaxBits; ++b)
            beyond.set(b);
        for (const auto &[outcome, n] : counts.map()) {
            (void)n;
            if ((outcome & beyond) == BitVec{})
                continue;
            int b = job.numBits;
            while (!outcome.get(b))
                ++b;
            return ExecError{ErrorCode::CorruptedCounts,
                             detail::format("{}: outcome sets bit {} beyond "
                                            "the {}-bit register",
                                            job.tag.c_str(), b,
                                            job.numBits)};
        }
    }
    return counts;
}

Expected<double>
validateValue(const ValueJob &job, double value)
{
    if (!std::isfinite(value)) {
        return ExecError{ErrorCode::NonFiniteValue,
                         detail::format("{}: expectation is {}",
                                        job.tag.c_str(), value)};
    }
    return value;
}

Expected<qsim::Counts>
SimulatorBackend::run(const ShotJob &job)
{
    if (!job.sample || job.shots == 0)
        return ExecError{ErrorCode::InvalidJob,
                         job.tag + ": missing sampler or zero shots"};
    Rng attempt_rng(job.rngSeed);
    return validateCounts(job, job.sample(attempt_rng));
}

Expected<double>
SimulatorBackend::expectation(const ValueJob &job)
{
    if (!job.evaluate)
        return ExecError{ErrorCode::InvalidJob,
                         job.tag + ": missing evaluator"};
    return validateValue(job, job.evaluate());
}

} // namespace rasengan::exec
