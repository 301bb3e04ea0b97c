#include "serve/scheduler.h"

#include <optional>
#include <utility>

#include "common/logging.h"
#include "common/parallel.h"
#include "obs/metrics.h"

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
    JobResult &slot = results_.back();
    slot.id = req.id;
    slot.costUnits = screened.costUnits;
    slot.accepted = true;
    // Every admitted job gets a trace id (forwarded hint wins --
    // cluster workers must stitch under the coordinator's id).
    // Minting is unconditional and deterministic, so telemetry lines
    // stay byte-identical whether tracing is on or off.
    if (screened.prepared.req.traceHint.empty())
        screened.prepared.req.traceHint =
            traceIdForJob(screened.prepared);
    obs::instantEvent("serve", "job-queued", req.id);
    pending_.push_back(PendingJob{std::move(screened.prepared),
                                  screened.costUnits, index,
                                  obs::nowNanos()});
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
    // so the job spans still parent under the batch.  Cluster workers
    // suppress it: the coordinator's span is the batch parent there.
    std::optional<obs::Span> batch_span;
    if (!options_.suppressBatchSpan)
        batch_span.emplace("serve", "batch",
                           "jobs=" + std::to_string(pending_.size()));
    const obs::SpanId batch_id = batch_span ? batch_span->id() : 0;
    parallel::parallelForDynamic(0, pending_.size(),
                                 [this, batch_id](uint64_t i) {
                                     runJob(pending_[i], batch_id);
                                 });
}

void
BatchScheduler::runJob(PendingJob &job, obs::SpanId batch_span)
{
    const JobRequest &req = job.prepared.req;
    // Remote parent (cluster worker) wins over the local batch span;
    // either way the job span carries the job's trace id so shipped
    // forests stitch under it.
    obs::SpanContext ctx;
    ctx.traceId = req.traceHint;
    ctx.remote = options_.traceRemoteParent != 0;
    ctx.parent = ctx.remote ? options_.traceRemoteParent : batch_span;
    obs::Span span("serve", "job", req.id, ctx);
    const obs::TimeNanos start = obs::nowNanos();

    JobResult result;
    if (options_.stopFlag != nullptr &&
        options_.stopFlag->load(std::memory_order_relaxed)) {
        // Graceful stop: admitted but never started.  Cheap and
        // side-effect free, so the batch drains almost immediately
        // while in-flight jobs finish normally.
        ++interrupted_;
        result.ok = false;
        result.error = "interrupted: batch stopped before this job "
                       "started";
        result.id = req.id;
        result.accepted = true;
        result.problemId = job.prepared.problem->id();
        result.numVars = job.prepared.problem->numVars();
        result.childSeed = job.prepared.childSeed;
        result.telemetry.priority = req.priority;
    } else {
        // Per-job wall-clock timeout: armed here (not in the runner)
        // so the token's lifetime spans exactly this execution.
        exec::CancelToken deadline;
        const exec::CancelToken *token = nullptr;
        if (req.timeoutMs > 0.0) {
            deadline.setDeadlineSeconds(req.timeoutMs * 1e-3);
            token = &deadline;
        }
        result = runner_.run(job.prepared, token);
    }

    result.costUnits = job.costUnits;
    result.telemetry.traceId = req.traceHint;
    const obs::TimeNanos end = obs::nowNanos();
    result.telemetry.queueWaitMs =
        static_cast<double>(start - job.submitTime) * 1e-6;
    result.telemetry.wallMs = static_cast<double>(end - start) * 1e-6;

    static obs::Counter &jobs_done = obs::Registry::global().counter(
        "serve_jobs_completed_total", "Jobs finished by the scheduler");
    static obs::Histogram &wall_hist = obs::Registry::global().histogram(
        "serve_job_wall_ms", "Per-job run time in milliseconds");
    static obs::Histogram &wait_hist = obs::Registry::global().histogram(
        "serve_job_queue_wait_ms",
        "Submission-to-start wait in milliseconds");
    jobs_done.inc();
    wall_hist.observe(result.telemetry.wallMs);
    wait_hist.observe(result.telemetry.queueWaitMs);

    results_[job.resultIndex] = std::move(result);
    admission_.release();
    if (options_.onJobComplete)
        options_.onJobComplete(job.resultIndex, results_[job.resultIndex]);
}

} // namespace rasengan::serve
