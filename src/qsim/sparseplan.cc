#include "qsim/sparseplan.h"

#include <cmath>

#include "common/logging.h"

namespace rasengan::qsim {

std::optional<SparseState>
replaySegmentPlan(const SparseSegmentPlan &plan, const double *times,
                  double prune_threshold)
{
    panic_if(!plan.replayable, "replaying an invalidated segment plan");
    using Complex = SparseState::Complex;

    std::vector<Complex> cur{Complex{1.0, 0.0}};
    std::vector<Complex> next;
    for (size_t step = 0; step < plan.steps.size(); ++step) {
        const SparseStepPlan &sp = plan.steps[step];
        next.resize(sp.scatter.size());
        for (size_t k = 0; k < sp.scatter.size(); ++k) {
            const uint32_t src = sp.scatter[k];
            next[k] = src == kPlanNoSource ? Complex{0.0, 0.0} : cur[src];
        }
        rotatePairs(next, sp.pairs, times[step]);
        cur.swap(next);
        // The direct kernels would prune here; the plan's structure no
        // longer matches these angles, so hand back to them.
        if (prune_threshold > 0.0)
            for (const Complex &a : cur)
                if (std::norm(a) < prune_threshold)
                    return std::nullopt;
    }
    panic_if(cur.size() != plan.finalKeys.size(),
             "segment plan replay produced {} amplitudes for {} keys",
             cur.size(), plan.finalKeys.size());
    return SparseState::fromSorted(plan.numQubits,
                                   plan.finalKeys, std::move(cur));
}

} // namespace rasengan::qsim
