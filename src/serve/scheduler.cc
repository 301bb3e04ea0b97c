#include "serve/scheduler.h"

#include <utility>

#include "common/logging.h"
#include "common/parallel.h"

namespace rasengan::serve {

BatchScheduler::BatchScheduler(ServeOptions options,
                               std::shared_ptr<ArtifactCache> cache)
    : options_(options),
      runner_(RunnerOptions{options.batchSeed, ""},
              cache ? std::move(cache)
                    : std::make_shared<ArtifactCache>(
                          options.cacheBudgetBytes)),
      admission_(options.limits)
{
}

ScreenedJob
screenRequest(const JobRunner &runner, AdmissionController &admission,
              const JobRequest &req)
{
    ScreenedJob out;
    out.rejection.id = req.id;

    PrepareOutcome prepared = runner.prepare(req);
    if (!prepared.ok) {
        out.rejection.accepted = false;
        out.rejection.rejectReason = prepared.error;
        out.rejection.rejectCode = "validation";
        return out;
    }

    AdmissionDecision decision =
        admission.admit(req, prepared.job.problem->numVars());
    out.costUnits = decision.costUnits;
    out.rejection.costUnits = decision.costUnits;
    if (!decision.admitted) {
        out.rejection.accepted = false;
        out.rejection.rejectReason = decision.reason;
        out.rejection.rejectCode = "admission";
        return out;
    }

    out.admitted = true;
    out.prepared = std::move(prepared.job);
    return out;
}

size_t
BatchScheduler::submit(const JobRequest &req)
{
    panic_if(ran_, "BatchScheduler::submit after runAll");
    size_t index = results_.size();
    ScreenedJob screened = screenRequest(runner_, admission_, req);
    if (!screened.admitted) {
        results_.push_back(std::move(screened.rejection));
        return index;
    }

    results_.emplace_back();
    obs::instantEvent("serve", "job-queued", req.id);
    pending_.push_back(
        PendingJob{std::move(screened.prepared), index, obs::nowNanos()});
    return index;
}

void
BatchScheduler::runAll()
{
    panic_if(ran_, "BatchScheduler::runAll called twice");
    ran_ = true;
    if (options_.threads > 0)
        parallel::setThreadCount(options_.threads);
    // Per-job spans run on pool threads, which do not inherit this
    // thread's span stack; the batch span id is passed down explicitly
    // so the job spans still parent under the batch.
    obs::Span batch_span("serve", "batch",
                         "jobs=" + std::to_string(pending_.size()));
    const obs::SpanId batch_id = batch_span.id();
    parallel::parallelForDynamic(0, pending_.size(),
                                 [this, batch_id](uint64_t i) {
                                     runJob(pending_[i], batch_id);
                                 });
}

void
BatchScheduler::runJob(PendingJob &job, obs::SpanId batch_span)
{
    exec::CancelToken cancel;
    if (options_.stopFlag != nullptr &&
        options_.stopFlag->load(std::memory_order_relaxed)) {
        // Graceful stop: a token cancelled before the job starts makes
        // serve() report it interrupted without running it.
        ++interrupted_;
        cancel.cancel();
    }
    JobContext ctx;
    ctx.parent.parent = batch_span;
    ctx.acceptedAt = job.submitTime;
    results_[job.resultIndex] = runner_.serve(job.prepared, ctx, cancel);
    admission_.release();
}

} // namespace rasengan::serve
