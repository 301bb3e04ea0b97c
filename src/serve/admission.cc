#include "serve/admission.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/metrics.h"

namespace rasengan::serve {

namespace {

std::string
fmtCost(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3g", v);
    return buf;
}

struct AdmissionCounters
{
    obs::Counter &admitted = obs::Registry::global().counter(
        "serve_admission_admitted_total", "Jobs admitted to the batch");
    obs::Counter &rejected = obs::Registry::global().counter(
        "serve_admission_rejected_total", "Jobs rejected by admission");
    obs::Gauge &queuedJobs = obs::Registry::global().gauge(
        "serve_admission_queued_jobs", "Jobs currently admitted and queued");
    obs::Gauge &batchCost = obs::Registry::global().gauge(
        "serve_admission_batch_cost_units",
        "Cost units committed by the current batch");
};

AdmissionCounters &
admissionCounters()
{
    static AdmissionCounters counters;
    return counters;
}

} // namespace

double
estimateJobCost(const JobRequest &req, int num_vars)
{
    double evals = static_cast<double>(std::max(req.iterations, 1));
    double states = std::pow(2.0, std::min(num_vars, 40));
    double perEval;
    if (req.execution == "exact") {
        // Sparse propagation touches at most the feasible portion of
        // the state space; 2^n is the conservative bound.
        perEval = states;
    } else if (req.execution == "gate") {
        // Full statevector per trajectory per segment evaluation.
        perEval = states * 8.0 + static_cast<double>(req.shots);
    } else { // sampled | noisy
        perEval = static_cast<double>(req.shots) *
                  std::max(req.shotGrowth, 1.0);
    }
    // The baselines simulate the full circuit densely per evaluation.
    if (req.algorithm != "rasengan")
        perEval = std::max(perEval, states) *
                  static_cast<double>(std::max(req.layers, 1));
    return evals * perEval / 1024.0;
}

AdmissionController::AdmissionController(AdmissionLimits limits)
    : limits_(limits)
{
}

AdmissionDecision
AdmissionController::admit(const JobRequest &req, int num_vars)
{
    AdmissionDecision d;
    d.costUnits = estimateJobCost(req, num_vars);
    if (queuedJobs() >= limits_.maxQueuedJobs) {
        d.reason = "queue full (" + std::to_string(limits_.maxQueuedJobs) +
                   " jobs pending)";
        admissionCounters().rejected.inc();
        return d;
    }
    if (num_vars > limits_.maxQubits) {
        d.reason = "instance has " + std::to_string(num_vars) +
                   " variables; limit is " +
                   std::to_string(limits_.maxQubits);
        admissionCounters().rejected.inc();
        return d;
    }
    if (req.shots > limits_.maxShotsPerJob) {
        d.reason = "shots " + std::to_string(req.shots) +
                   " exceed the per-job limit " +
                   std::to_string(limits_.maxShotsPerJob);
        admissionCounters().rejected.inc();
        return d;
    }
    if (req.iterations > limits_.maxIterationsPerJob) {
        d.reason = "iterations " + std::to_string(req.iterations) +
                   " exceed the per-job limit " +
                   std::to_string(limits_.maxIterationsPerJob);
        admissionCounters().rejected.inc();
        return d;
    }
    if (d.costUnits > limits_.maxJobCostUnits) {
        d.reason = "estimated cost " + fmtCost(d.costUnits) +
                   " units exceeds the per-job budget " +
                   fmtCost(limits_.maxJobCostUnits);
        admissionCounters().rejected.inc();
        return d;
    }
    const double committed = batchCostUnits();
    if (committed + d.costUnits > limits_.maxBatchCostUnits) {
        d.reason = "batch cost budget exhausted (" +
                   fmtCost(committed) + " of " +
                   fmtCost(limits_.maxBatchCostUnits) +
                   " units committed)";
        admissionCounters().rejected.inc();
        return d;
    }
    d.admitted = true;
    queuedJobs_.fetch_add(1, std::memory_order_relaxed);
    batchCost_.fetch_add(d.costUnits, std::memory_order_relaxed);
    admissionCounters().admitted.inc();
    admissionCounters().queuedJobs.set(static_cast<double>(queuedJobs()));
    admissionCounters().batchCost.set(batchCostUnits());
    return d;
}

void
AdmissionController::releaseCost(double cost_units)
{
    // Clamp at zero: replayed jobs release cost that was admitted by a
    // previous daemon incarnation.
    double seen = batchCost_.load(std::memory_order_relaxed);
    while (true) {
        double next = seen - cost_units;
        if (next < 0.0)
            next = 0.0;
        if (batchCost_.compare_exchange_weak(seen, next,
                                             std::memory_order_relaxed))
            break;
    }
    admissionCounters().batchCost.set(batchCostUnits());
}

void
AdmissionController::release()
{
    // Pool threads release concurrently as jobs finish; never go below
    // zero even if release() is over-called.
    size_t seen = queuedJobs_.load(std::memory_order_relaxed);
    while (seen > 0 &&
           !queuedJobs_.compare_exchange_weak(seen, seen - 1,
                                              std::memory_order_relaxed)) {
    }
    admissionCounters().queuedJobs.set(static_cast<double>(queuedJobs()));
}

} // namespace rasengan::serve
