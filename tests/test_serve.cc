/**
 * @file
 * Batch solve service tests: cache keys (equality across construction
 * paths, distinctness across config fields), the LRU artifact cache,
 * JSONL parsing, admission control, and the scheduler's determinism
 * guarantees (thread count, submission order, cache temperature).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "obs/trace.h"
#include "problems/io.h"
#include "problems/suite.h"
#include "serve/admission.h"
#include "serve/artifact_cache.h"
#include "serve/cachekey.h"
#include "serve/job.h"
#include "serve/jsonl.h"
#include "serve/runner.h"
#include "serve/scheduler.h"
#include "serve/workload.h"

using namespace rasengan;
using namespace rasengan::serve;

// ---------------------------------------------------------------------
// Cache keys
// ---------------------------------------------------------------------

TEST(CacheKey, DomainSeparatesEqualPayloads)
{
    CacheKey a = makeKey("pipeline", "payload");
    CacheKey b = makeKey("circuit", "payload");
    EXPECT_NE(a, b);
    EXPECT_EQ(a, makeKey("pipeline", "payload"));
    EXPECT_EQ(a.hex().size(), 32u);
    EXPECT_NE(a.hex(), b.hex());
}

TEST(CacheKey, NoBoundarySlipBetweenDomainAndPayload)
{
    // "ab" + "c" must not alias "a" + "bc".
    EXPECT_NE(makeKey("ab", "c"), makeKey("a", "bc"));
}

TEST(CacheKey, SameProblemDifferentConstructionPathsHashEqual)
{
    // The benchmark generator and a parse of its serialization are two
    // construction paths to the same logical problem; the canonical
    // text (and therefore the key) must agree.
    problems::Problem direct = problems::makeBenchmark("F1", 0);
    problems::ProblemParseResult reparsed =
        problems::parseProblem(problems::writeProblem(direct));
    ASSERT_TRUE(reparsed.problem.has_value());
    std::string a = problems::canonicalProblemText(direct);
    std::string b = problems::canonicalProblemText(*reparsed.problem);
    EXPECT_EQ(a, b);
    EXPECT_EQ(makeKey("pipeline", a), makeKey("pipeline", b));
}

TEST(CacheKey, RequestFieldsChangeTheJobKey)
{
    problems::Problem problem = problems::makeBenchmark("F1", 0);
    std::string ptext = problems::canonicalProblemText(problem);
    JobRequest base;
    base.benchmark = "F1";
    std::string baseText = canonicalRequestText(base, ptext);
    CacheKey baseKey = makeKey("job", baseText);

    auto keyOf = [&](const JobRequest &req) {
        return makeKey("job", canonicalRequestText(req, ptext));
    };

    JobRequest shots = base;
    shots.shots = 2048;
    EXPECT_NE(keyOf(shots), baseKey);

    JobRequest noise = base;
    noise.noise = "kyiv";
    EXPECT_NE(keyOf(noise), baseKey);

    JobRequest penalty = base;
    penalty.penaltyLambda = 12.5;
    EXPECT_NE(keyOf(penalty), baseKey);

    JobRequest seed = base;
    seed.seed = 8;
    EXPECT_NE(keyOf(seed), baseKey);

    // The id is correlation metadata, not part of the work.
    JobRequest renamed = base;
    renamed.id = "some-other-name";
    EXPECT_EQ(keyOf(renamed), baseKey);
}

TEST(CacheKey, AllDistinctBenchmarksProduceDistinctKeys)
{
    std::vector<std::string> hexes;
    for (const std::string &id : problems::benchmarkIds()) {
        problems::Problem p = problems::makeBenchmark(id, 0);
        hexes.push_back(
            makeKey("pipeline", problems::canonicalProblemText(p)).hex());
    }
    std::sort(hexes.begin(), hexes.end());
    EXPECT_EQ(std::unique(hexes.begin(), hexes.end()), hexes.end());
}

// ---------------------------------------------------------------------
// Artifact cache
// ---------------------------------------------------------------------

namespace {

std::pair<std::shared_ptr<const int>, uint64_t>
makeInt(int v, uint64_t bytes)
{
    return {std::make_shared<int>(v), bytes};
}

} // namespace

TEST(ArtifactCache, HitMissAndPerJobCounters)
{
    ArtifactCache cache(1 << 20);
    ArtifactCache::LookupCounters job;
    CacheKey k = makeKey("t", "x");
    int computes = 0;
    auto make = [&]() {
        ++computes;
        return makeInt(42, 100);
    };
    auto a = cache.getOrCompute<int>(k, make, &job);
    auto b = cache.getOrCompute<int>(k, make, &job);
    EXPECT_EQ(*a, 42);
    EXPECT_EQ(a.get(), b.get()); // shared, not recomputed
    EXPECT_EQ(computes, 1);
    EXPECT_EQ(job.hits, 1u);
    EXPECT_EQ(job.misses, 1u);
    ArtifactCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.insertions, 1u);
    EXPECT_EQ(stats.bytesInUse, 100u);
    EXPECT_DOUBLE_EQ(stats.hitRate(), 0.5);
}

TEST(ArtifactCache, EvictsLeastRecentlyUsedWithinByteBudget)
{
    ArtifactCache cache(250);
    CacheKey a = makeKey("t", "a"), b = makeKey("t", "b"),
             c = makeKey("t", "c");
    cache.getOrCompute<int>(a, [] { return makeInt(1, 100); });
    cache.getOrCompute<int>(b, [] { return makeInt(2, 100); });
    // Touch `a` so `b` is the LRU victim.
    cache.getOrCompute<int>(a, [] { return makeInt(-1, 100); });
    cache.getOrCompute<int>(c, [] { return makeInt(3, 100); });

    ArtifactCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_LE(stats.bytesInUse, 250u);

    int recomputes = 0;
    auto va = cache.getOrCompute<int>(a, [&] {
        ++recomputes;
        return makeInt(-1, 100);
    });
    EXPECT_EQ(*va, 1); // survived
    auto vb = cache.getOrCompute<int>(b, [&] {
        ++recomputes;
        return makeInt(2, 100);
    });
    EXPECT_EQ(*vb, 2);
    EXPECT_EQ(recomputes, 1); // only b was evicted
}

TEST(ArtifactCache, ZeroBudgetDisablesCaching)
{
    ArtifactCache cache(0);
    CacheKey k = makeKey("t", "x");
    int computes = 0;
    auto make = [&] {
        ++computes;
        return makeInt(7, 0);
    };
    cache.getOrCompute<int>(k, make);
    cache.getOrCompute<int>(k, make);
    EXPECT_EQ(computes, 2);
    ArtifactCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.entries, 0u);
    EXPECT_EQ(stats.uncacheable, 2u);
}

TEST(ArtifactCache, OversizedArtifactIsReturnedButNotInserted)
{
    ArtifactCache cache(100);
    auto v = cache.getOrCompute<int>(makeKey("t", "big"),
                                     [] { return makeInt(9, 1000); });
    EXPECT_EQ(*v, 9);
    ArtifactCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.uncacheable, 1u);
    EXPECT_EQ(stats.bytesInUse, 0u);
}

TEST(ArtifactCache, CrossDomainEvictionsAttributedToVictimDomain)
{
    // The byte budget is shared across domains: pressure from domain
    // "B" can evict "A"'s entries, and the eviction must be charged to
    // the victim's domain, not the inserter's.
    ArtifactCache cache(250);
    cache.getOrCompute<int>(makeKey("A", "a1"),
                            [] { return makeInt(1, 100); }, nullptr, "A");
    cache.getOrCompute<int>(makeKey("A", "a2"),
                            [] { return makeInt(2, 100); }, nullptr, "A");
    cache.getOrCompute<int>(makeKey("B", "b1"),
                            [] { return makeInt(3, 100); }, nullptr, "B");

    ArtifactCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    ASSERT_EQ(stats.domains.count("A"), 1u);
    ASSERT_EQ(stats.domains.count("B"), 1u);
    EXPECT_EQ(stats.domains.at("A").evictions, 1u);
    EXPECT_EQ(stats.domains.at("B").evictions, 0u);
    EXPECT_EQ(stats.domains.at("A").misses, 2u);
    EXPECT_EQ(stats.domains.at("B").misses, 1u);

    // More pressure from B evicts the remaining A entry and then B's
    // own LRU; each eviction lands on its owner.
    cache.getOrCompute<int>(makeKey("B", "b2"),
                            [] { return makeInt(4, 100); }, nullptr, "B");
    cache.getOrCompute<int>(makeKey("B", "b3"),
                            [] { return makeInt(5, 100); }, nullptr, "B");
    stats = cache.stats();
    EXPECT_EQ(stats.domains.at("A").evictions, 2u);
    EXPECT_EQ(stats.domains.at("B").evictions, 1u);
    EXPECT_EQ(stats.evictions, 3u);
}

// ---------------------------------------------------------------------
// Child seeds
// ---------------------------------------------------------------------

TEST(Runner, ChildSeedDerivesFromContentAndBatchSeedOnly)
{
    auto cache = std::make_shared<ArtifactCache>(0);
    JobRunner runner(RunnerOptions{42, ""}, cache);

    std::vector<JobRequest> requests = generateWorkload(1, 9);
    JobRequest renamed = requests[0];
    renamed.id = "a-completely-different-id";

    PrepareOutcome base = runner.prepare(requests[0]);
    PrepareOutcome other = runner.prepare(renamed);
    ASSERT_TRUE(base.ok) << base.error;
    ASSERT_TRUE(other.ok) << other.error;
    // The id is presentation metadata: it must not perturb the seed, or
    // "same job, new label" would stop reproducing.
    EXPECT_EQ(base.job.childSeed, other.job.childSeed);

    // Content changes must perturb it.
    JobRequest changed = requests[0];
    changed.iterations = requests[0].iterations + 1;
    PrepareOutcome prepared = runner.prepare(changed);
    ASSERT_TRUE(prepared.ok) << prepared.error;
    EXPECT_NE(prepared.job.childSeed, base.job.childSeed);

    // And so must the batch seed.
    JobRunner reseeded(RunnerOptions{43, ""}, cache);
    PrepareOutcome shifted = reseeded.prepare(requests[0]);
    ASSERT_TRUE(shifted.ok) << shifted.error;
    EXPECT_NE(shifted.job.childSeed, base.job.childSeed);
}

TEST(Runner, ChildSeedIsStableAcrossRunnerInstances)
{
    // Two runners over different caches with the same batch seed agree:
    // the derivation is pure content, no per-process state -- this is
    // what lets cluster workers re-derive seeds the single-process run
    // would have used.
    std::vector<JobRequest> requests = generateWorkload(5, 3);
    JobRunner first(RunnerOptions{7, ""},
                    std::make_shared<ArtifactCache>(0));
    JobRunner second(RunnerOptions{7, ""},
                     std::make_shared<ArtifactCache>(1 << 20));
    for (const auto &req : requests) {
        PrepareOutcome a = first.prepare(req);
        PrepareOutcome b = second.prepare(req);
        ASSERT_TRUE(a.ok && b.ok);
        EXPECT_EQ(a.job.childSeed, b.job.childSeed);
    }
}

// ---------------------------------------------------------------------
// JSONL
// ---------------------------------------------------------------------

TEST(Jsonl, ParsesStringsNumbersBoolsAndEscapes)
{
    JsonParseResult r = parseFlatJson(
        "{\"s\":\"a\\n\\\"b\\\"\",\"n\":-2.5e3,\"t\":true,\"f\":false,"
        "\"z\":null}");
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.object.at("s").str, "a\n\"b\"");
    EXPECT_DOUBLE_EQ(r.object.at("n").num, -2500.0);
    EXPECT_TRUE(r.object.at("t").flag);
    EXPECT_FALSE(r.object.at("f").flag);
    EXPECT_EQ(r.object.at("z").kind, JsonValue::Kind::Null);
}

TEST(Jsonl, RejectsNestingAndTrailingGarbage)
{
    EXPECT_FALSE(parseFlatJson("{\"a\":{}}").ok);
    EXPECT_FALSE(parseFlatJson("{\"a\":[1]}").ok);
    EXPECT_FALSE(parseFlatJson("{\"a\":1} x").ok);
    EXPECT_FALSE(parseFlatJson("{\"a\":}").ok);
    EXPECT_FALSE(parseFlatJson("not json").ok);
}

TEST(Jsonl, WriterRoundTripsThroughParser)
{
    std::string line = JsonWriter()
                           .field("name", "tab\there")
                           .field("pi", 3.5)
                           .field("count", int64_t{-7})
                           .boolean("flag", true)
                           .str();
    JsonParseResult r = parseFlatJson(line);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.object.at("name").str, "tab\there");
    EXPECT_DOUBLE_EQ(r.object.at("pi").num, 3.5);
    EXPECT_DOUBLE_EQ(r.object.at("count").num, -7.0);
    EXPECT_TRUE(r.object.at("flag").flag);
}

TEST(Jsonl, RequestRoundTrip)
{
    JobRequest req;
    req.id = "r1";
    req.benchmark = "K2";
    req.caseIndex = 3;
    req.algorithm = "pqaoa";
    req.iterations = 17;
    req.shots = 333;
    req.noise = "brisbane";
    req.penaltyLambda = 4.25;
    RequestParseResult parsed = parseRequest(writeRequest(req));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(writeRequest(parsed.request), writeRequest(req));
}

TEST(Jsonl, RequestParserRejectsUnknownKeysAndBadTypes)
{
    EXPECT_FALSE(parseRequest("{\"benchmark\":\"F1\",\"shotz\":12}").ok);
    EXPECT_FALSE(parseRequest("{\"benchmark\":\"F1\",\"shots\":\"many\"}")
                     .ok);
    EXPECT_FALSE(
        parseRequest("{\"benchmark\":\"F1\",\"iterations\":2.5}").ok);
    RequestParseResult tune =
        parseRequest("{\"benchmark\":\"F1\",\"tune\":\"bucket=x\"}");
    EXPECT_FALSE(tune.ok);
    EXPECT_EQ(tune.error, "unknown request key \"tune\"");
}

TEST(Jsonl, ValidateRequestCatchesBadEnumsAndRanges)
{
    JobRequest req;
    req.benchmark = "F1";
    std::string err;
    EXPECT_TRUE(validateRequest(req, &err)) << err;

    JobRequest both = req;
    both.problemText = "problem x";
    EXPECT_FALSE(validateRequest(both, &err));

    JobRequest neither;
    EXPECT_FALSE(validateRequest(neither, &err));

    JobRequest badAlgo = req;
    badAlgo.algorithm = "grover";
    EXPECT_FALSE(validateRequest(badAlgo, &err));
    EXPECT_NE(err.find("grover"), std::string::npos);

    JobRequest badExec = req;
    badExec.execution = "warp";
    EXPECT_FALSE(validateRequest(badExec, &err));

    JobRequest badFault = req;
    badFault.faultRate = 1.5;
    EXPECT_FALSE(validateRequest(badFault, &err));
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

TEST(Admission, RejectsWithSpecificReasons)
{
    AdmissionLimits limits;
    limits.maxQueuedJobs = 2;
    limits.maxQubits = 10;
    limits.maxShotsPerJob = 4096;
    limits.maxIterationsPerJob = 100;
    AdmissionController gate(limits);

    JobRequest req;
    req.benchmark = "F1";
    req.iterations = 10;
    req.execution = "sampled";
    req.shots = 512;

    EXPECT_TRUE(gate.admit(req, 8).admitted);

    AdmissionDecision qubits = gate.admit(req, 12);
    EXPECT_FALSE(qubits.admitted);
    EXPECT_NE(qubits.reason.find("12 variables"), std::string::npos);

    JobRequest bigShots = req;
    bigShots.shots = 8192;
    AdmissionDecision shots = gate.admit(bigShots, 8);
    EXPECT_FALSE(shots.admitted);
    EXPECT_NE(shots.reason.find("shots"), std::string::npos);

    JobRequest manyIters = req;
    manyIters.iterations = 1000;
    AdmissionDecision iters = gate.admit(manyIters, 8);
    EXPECT_FALSE(iters.admitted);
    EXPECT_NE(iters.reason.find("iterations"), std::string::npos);

    // Fill the queue; the next admit bounces with backpressure.
    EXPECT_TRUE(gate.admit(req, 8).admitted);
    AdmissionDecision full = gate.admit(req, 8);
    EXPECT_FALSE(full.admitted);
    EXPECT_NE(full.reason.find("queue full"), std::string::npos);

    // Draining a job frees the slot.
    gate.release();
    EXPECT_TRUE(gate.admit(req, 8).admitted);
}

TEST(Admission, CostBudgetsBoundJobAndBatch)
{
    JobRequest req;
    req.benchmark = "F1";
    req.iterations = 100;
    req.execution = "sampled";
    req.shots = 1024;
    double one = estimateJobCost(req, 8);
    ASSERT_GT(one, 0.0);

    AdmissionLimits limits;
    limits.maxJobCostUnits = one * 0.5;
    AdmissionController perJob(limits);
    AdmissionDecision d = perJob.admit(req, 8);
    EXPECT_FALSE(d.admitted);
    EXPECT_NE(d.reason.find("per-job budget"), std::string::npos);

    limits.maxJobCostUnits = one * 10;
    limits.maxBatchCostUnits = one * 2.5;
    AdmissionController batch(limits);
    EXPECT_TRUE(batch.admit(req, 8).admitted);
    EXPECT_TRUE(batch.admit(req, 8).admitted);
    AdmissionDecision third = batch.admit(req, 8);
    EXPECT_FALSE(third.admitted);
    EXPECT_NE(third.reason.find("batch cost budget"), std::string::npos);
}

TEST(Admission, ExactExecutionCostGrowsWithVariables)
{
    JobRequest req;
    req.benchmark = "F1";
    req.execution = "exact";
    EXPECT_GT(estimateJobCost(req, 20), estimateJobCost(req, 10));
}

// ---------------------------------------------------------------------
// Scheduler
// ---------------------------------------------------------------------

namespace {

/**
 * Tiny mixed workload that still produces repeat work (cache hits) and
 * reaches every simulator: the sparse engine, the dense statevector of
 * the three baselines, and noisy gate-level trajectories.
 */
std::vector<JobRequest>
tinyWorkload()
{
    std::vector<JobRequest> reqs;
    const char *benchmarks[] = {"F1", "K1", "F1", "J1", "F1", "K1"};
    for (int i = 0; i < 6; ++i) {
        JobRequest req;
        req.id = "t" + std::to_string(i);
        req.benchmark = benchmarks[i];
        req.iterations = 8;
        req.execution = (i % 2 == 0) ? "exact" : "sampled";
        req.shots = 256;
        reqs.push_back(req);
    }
    for (const char *algorithm : {"hea", "pqaoa", "chocoq"}) {
        JobRequest req;
        req.id = algorithm;
        req.benchmark = "F1";
        req.algorithm = algorithm;
        req.iterations = 8;
        req.layers = 2;
        req.shots = 256;
        reqs.push_back(req);
    }
    JobRequest gate;
    gate.id = "gate";
    gate.benchmark = "F1";
    gate.iterations = 8;
    gate.execution = "gate";
    gate.noise = "kyiv";
    gate.shots = 256;
    reqs.push_back(gate);
    return reqs;
}

std::vector<std::string>
runBatch(const std::vector<JobRequest> &reqs, int threads,
         std::shared_ptr<ArtifactCache> cache = nullptr)
{
    ServeOptions options;
    options.threads = threads;
    BatchScheduler scheduler(options, std::move(cache));
    for (const JobRequest &req : reqs)
        scheduler.submit(req);
    scheduler.runAll();
    std::vector<std::string> lines;
    for (const JobResult &result : scheduler.results())
        lines.push_back(writeResult(result));
    return lines;
}

} // namespace

TEST(Scheduler, ResultsAreByteIdenticalAcrossThreadCounts)
{
    std::vector<JobRequest> reqs = tinyWorkload();
    std::vector<std::string> t1 = runBatch(reqs, 1);
    std::vector<std::string> t2 = runBatch(reqs, 2);
    std::vector<std::string> t7 = runBatch(reqs, 7);
    EXPECT_EQ(t1, t2);
    EXPECT_EQ(t1, t7);
    // A one-job batch runs its job on the dispatching thread, outside
    // any pool task; it must print the same line as inside the batch.
    for (size_t i = 0; i < reqs.size(); ++i)
        EXPECT_EQ(runBatch({reqs[i]}, 2), std::vector<std::string>{t1[i]})
            << reqs[i].id;
    parallel::setThreadCount(0); // restore env-derived config
}

TEST(Scheduler, ResultsAreIndependentOfSubmissionOrder)
{
    std::vector<JobRequest> reqs = tinyWorkload();
    std::vector<std::string> forward = runBatch(reqs, 2);

    std::vector<JobRequest> reversed(reqs.rbegin(), reqs.rend());
    std::vector<std::string> backward = runBatch(reversed, 2);

    // Same per-id payload either way; only the line order follows the
    // submission order.
    std::sort(forward.begin(), forward.end());
    std::sort(backward.begin(), backward.end());
    EXPECT_EQ(forward, backward);
    parallel::setThreadCount(0);
}

TEST(Scheduler, WarmCacheHitsDoNotChangeResults)
{
    std::vector<JobRequest> reqs = tinyWorkload();
    auto cache = std::make_shared<ArtifactCache>(64ull << 20);
    std::vector<std::string> cold = runBatch(reqs, 2, cache);
    uint64_t missesAfterCold = cache->stats().misses;
    EXPECT_GT(cache->stats().hits, 0u); // repeats inside the batch

    std::vector<std::string> warm = runBatch(reqs, 2, cache);
    EXPECT_EQ(cold, warm);
    // The warm batch recomputed nothing the cold batch already built.
    EXPECT_EQ(cache->stats().misses, missesAfterCold);

    // A zero-budget cache keeps nothing: every artifact is rebuilt per
    // job, and the bytes still match.
    auto none = std::make_shared<ArtifactCache>(0);
    std::vector<std::string> uncached = runBatch(reqs, 2, none);
    EXPECT_EQ(cold, uncached);
    EXPECT_EQ(none->stats().hits, 0u);
    parallel::setThreadCount(0);
}

TEST(Scheduler, RepeatJobWithDifferentIdSharesSeedAndHash)
{
    JobRequest a;
    a.id = "first";
    a.benchmark = "F1";
    a.iterations = 6;
    JobRequest b = a;
    b.id = "second";

    ServeOptions options;
    options.threads = 1;
    BatchScheduler scheduler(options);
    scheduler.submit(a);
    scheduler.submit(b);
    scheduler.runAll();
    const std::vector<JobResult> &results = scheduler.results();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].childSeed, results[1].childSeed);
    EXPECT_EQ(results[0].resultHash, results[1].resultHash);
    EXPECT_EQ(results[0].solution, results[1].solution);
    // The second job's pipeline came from the cache.
    EXPECT_GT(results[1].telemetry.cacheHits +
                  results[0].telemetry.cacheHits,
              0u);
    parallel::setThreadCount(0);
}

TEST(Scheduler, BatchSeedChangesChildSeeds)
{
    JobRequest req;
    req.id = "x";
    req.benchmark = "F1";
    req.iterations = 5;

    uint64_t seeds[2];
    for (int i = 0; i < 2; ++i) {
        ServeOptions options;
        options.threads = 1;
        options.batchSeed = static_cast<uint64_t>(i);
        BatchScheduler scheduler(options);
        scheduler.submit(req);
        scheduler.runAll();
        seeds[i] = scheduler.results()[0].childSeed;
    }
    EXPECT_NE(seeds[0], seeds[1]);
    parallel::setThreadCount(0);
}

TEST(Scheduler, RejectedJobsGetReasonsAndDoNotRun)
{
    ServeOptions options;
    options.threads = 1;
    options.limits.maxQubits = 4; // everything in the suite is larger
    BatchScheduler scheduler(options);

    JobRequest req;
    req.id = "too-big";
    req.benchmark = "F1";
    scheduler.submit(req);

    JobRequest bogus;
    bogus.id = "no-such";
    bogus.benchmark = "Z9";
    scheduler.submit(bogus);

    JobRequest badProblem;
    badProblem.id = "bad-text";
    badProblem.problemText = "this is not a problem file";
    scheduler.submit(badProblem);

    EXPECT_EQ(scheduler.admittedJobs(), 0u);
    scheduler.runAll();
    const std::vector<JobResult> &results = scheduler.results();
    ASSERT_EQ(results.size(), 3u);
    EXPECT_FALSE(results[0].accepted);
    EXPECT_NE(results[0].rejectReason.find("variables"),
              std::string::npos);
    EXPECT_FALSE(results[1].accepted);
    EXPECT_NE(results[1].rejectReason.find("Z9"), std::string::npos);
    EXPECT_FALSE(results[2].accepted);
    EXPECT_NE(results[2].rejectReason.find("parse error"),
              std::string::npos);
}

TEST(Scheduler, BaselineJobsRunAndReportFeasibleSolutions)
{
    JobRequest req;
    req.id = "base";
    req.benchmark = "F1";
    req.algorithm = "chocoq";
    req.iterations = 5;
    req.layers = 2;
    req.shots = 128;

    ServeOptions options;
    options.threads = 1;
    BatchScheduler scheduler(options);
    scheduler.submit(req);
    scheduler.runAll();
    const JobResult &result = scheduler.results()[0];
    ASSERT_TRUE(result.accepted);
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_FALSE(result.solution.empty());

    problems::Problem problem = problems::makeBenchmark("F1", 0);
    EXPECT_TRUE(problem.isFeasible(
        BitVec::fromString(result.solution)));
}

// ---------------------------------------------------------------------
// Workload generator
// ---------------------------------------------------------------------

TEST(Workload, DeterministicAndValid)
{
    std::vector<JobRequest> a = generateWorkload(25, 3);
    std::vector<JobRequest> b = generateWorkload(25, 3);
    ASSERT_EQ(a.size(), 25u);
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(writeRequest(a[i]), writeRequest(b[i]));
        std::string err;
        EXPECT_TRUE(validateRequest(a[i], &err)) << err;
    }
    EXPECT_NE(writeRequest(generateWorkload(25, 4)[0]),
              writeRequest(a[0]));
}

// ---------------------------------------------------------------------
// LineReader hardening
// ---------------------------------------------------------------------

TEST(LineReader, ReadsLinesSkipsEmptiesAndStripsCr)
{
    std::istringstream in("first\r\n\n\nsecond\nthird\n");
    LineReader reader(in);
    LineReader::Line line;
    ASSERT_TRUE(reader.next(line));
    EXPECT_TRUE(line.ok);
    EXPECT_EQ(line.text, "first");
    EXPECT_EQ(line.number, 1u);
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line.text, "second");
    EXPECT_EQ(line.number, 4u); // empty lines count toward numbering
    ASSERT_TRUE(reader.next(line));
    EXPECT_EQ(line.text, "third");
    EXPECT_FALSE(reader.next(line));
    EXPECT_EQ(reader.emptyLines(), 2u);
    EXPECT_EQ(reader.linesRead(), 5u); // physical lines, empties included
}

TEST(LineReader, OversizedLineIsReportedNotBuffered)
{
    std::string big(4096, 'x');
    std::istringstream in(big + "\nok\n");
    LineReader reader(in, 64);
    LineReader::Line line;
    ASSERT_TRUE(reader.next(line));
    EXPECT_FALSE(line.ok);
    EXPECT_TRUE(line.oversized);
    EXPECT_TRUE(line.text.empty()); // contents dropped, not ballooned
    ASSERT_TRUE(reader.next(line)); // stream recovers at the newline
    EXPECT_TRUE(line.ok);
    EXPECT_EQ(line.text, "ok");
    EXPECT_EQ(reader.oversizedLines(), 1u);
}

TEST(LineReader, TornFinalLineIsFlaggedTruncated)
{
    std::istringstream in("complete\n{\"type\":\"done\",\"se");
    LineReader reader(in);
    LineReader::Line line;
    ASSERT_TRUE(reader.next(line));
    EXPECT_TRUE(line.ok);
    ASSERT_TRUE(reader.next(line));
    EXPECT_FALSE(line.ok);
    EXPECT_TRUE(line.truncated);
    EXPECT_FALSE(reader.next(line));
    EXPECT_EQ(reader.truncatedLines(), 1u);
}

// ---------------------------------------------------------------------
// Scheduling metadata and graceful stop
// ---------------------------------------------------------------------

TEST(Jsonl, SchedulingFieldsRoundTripAndStayOffTheWire)
{
    JobRequest req;
    req.id = "sched";
    req.benchmark = "F1";
    // Defaults are omitted from the wire format (byte compatibility
    // with pre-daemon request files).
    EXPECT_EQ(writeRequest(req).find("priority"), std::string::npos);
    EXPECT_EQ(writeRequest(req).find("deadline_ms"), std::string::npos);

    req.priority = "interactive";
    req.deadlineMs = 1500.0;
    req.timeoutMs = 900.0;
    RequestParseResult parsed = parseRequest(writeRequest(req));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.request.priority, "interactive");
    EXPECT_DOUBLE_EQ(parsed.request.deadlineMs, 1500.0);
    EXPECT_DOUBLE_EQ(parsed.request.timeoutMs, 900.0);

    std::string err;
    req.priority = "urgent";
    EXPECT_FALSE(validateRequest(req, &err));
    req.priority = "batch";
    req.deadlineMs = -5.0;
    EXPECT_FALSE(validateRequest(req, &err));
}

TEST(Jsonl, SchedulingFieldsDoNotChangeTheCanonicalText)
{
    JobRequest a;
    a.benchmark = "F1";
    JobRequest b = a;
    b.priority = "interactive";
    b.deadlineMs = 10.0;
    b.timeoutMs = 20.0;
    // Urgency shapes WHEN a job runs, never WHAT it computes: the
    // canonical text (and therefore child seed and results) must agree.
    EXPECT_EQ(canonicalRequestText(a, "p"), canonicalRequestText(b, "p"));
}

TEST(Scheduler, StopFlagInterruptsUnstartedJobsGracefully)
{
    ServeOptions options;
    std::atomic<bool> stop{true}; // tripped before the batch starts
    options.stopFlag = &stop;
    BatchScheduler scheduler(options);
    JobRequest req;
    req.benchmark = "F1";
    req.iterations = 5;
    for (int i = 0; i < 3; ++i) {
        req.id = "job-" + std::to_string(i);
        scheduler.submit(req);
    }
    scheduler.runAll();
    EXPECT_EQ(scheduler.interruptedJobs(), 3u);
    for (const JobResult &r : scheduler.results()) {
        EXPECT_TRUE(r.accepted);
        EXPECT_FALSE(r.ok);
        EXPECT_NE(r.error.find("interrupted"), std::string::npos);
        EXPECT_NE(r.childSeed, 0u); // identity fields still filled
    }
}

// ---------------------------------------------------------------------
// Distributed trace ids
// ---------------------------------------------------------------------

TEST(Jsonl, TraceHintRoundTripsAndStaysOffTheCanonicalText)
{
    JobRequest req;
    req.id = "traced";
    req.benchmark = "F1";
    // No hint -> no "trace" key on the wire (byte compatibility with
    // pre-tracing request files).
    EXPECT_EQ(writeRequest(req).find("\"trace\":"), std::string::npos);

    req.traceHint = "00112233445566778899aabbccddeeff";
    const std::string line = writeRequest(req);
    EXPECT_NE(line.find("\"trace\":\"00112233445566778899aabbccddeeff\""),
              std::string::npos);
    RequestParseResult parsed = parseRequest(line);
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.request.traceHint, req.traceHint);

    // Like priority, the trace id says WHO IS WATCHING a job, not
    // WHAT it computes: the canonical text (and therefore the child
    // seed and every result byte) must not see it.
    JobRequest bare = req;
    bare.traceHint.clear();
    EXPECT_EQ(canonicalRequestText(bare, "p"),
              canonicalRequestText(req, "p"));
}

TEST(Scheduler, TraceIdsMintedDeterministicallyAndMirroredInTelemetry)
{
    auto runOnce = [](const std::string &hint) {
        ServeOptions options;
        options.threads = 1;
        BatchScheduler scheduler(options);
        JobRequest req;
        req.id = "t0";
        req.benchmark = "F1";
        req.iterations = 5;
        req.traceHint = hint;
        scheduler.submit(req);
        scheduler.runAll();
        return scheduler.results()[0];
    };

    // Minted unconditionally (tracing enabled or not) so telemetry
    // bytes never depend on whether anyone was watching.
    JobResult a = runOnce("");
    ASSERT_EQ(a.telemetry.traceId.size(), 32u);
    EXPECT_EQ(a.telemetry.traceId.find_first_not_of("0123456789abcdef"),
              std::string::npos);
    EXPECT_NE(writeTelemetry(a).find("\"trace_id\":\"" +
                                     a.telemetry.traceId + "\""),
              std::string::npos);
    // Result lines carry no trace id at all: WHO IS WATCHING must not
    // reach the bytes consumers diff.
    EXPECT_EQ(writeResult(a).find("trace_id"), std::string::npos);

    // Content-derived: the same request mints the same id across runs.
    JobResult b = runOnce("");
    EXPECT_EQ(a.telemetry.traceId, b.telemetry.traceId);

    // A propagated hint (the cluster coordinator's mint) wins verbatim.
    JobResult c = runOnce("ffeeddccbbaa99887766554433221100");
    EXPECT_EQ(c.telemetry.traceId, "ffeeddccbbaa99887766554433221100");
    // And never perturbs the computation.
    EXPECT_EQ(writeResult(c), writeResult(a));
}

TEST(Scheduler, ResultBytesIdenticalWithTracingOn)
{
    std::vector<JobRequest> reqs = tinyWorkload();
    std::vector<std::string> off = runBatch(reqs, 2);

    obs::clearTrace();
    obs::startTracing();
    std::vector<std::string> on = runBatch(reqs, 2);
    obs::stopTracing();
    EXPECT_GT(obs::traceEventCount(), 0u);
    obs::clearTrace();

    EXPECT_EQ(off, on);
    parallel::setThreadCount(0);
}

TEST(Scheduler, PerJobTimeoutSurfacesDeadlineTelemetry)
{
    ServeOptions options;
    BatchScheduler scheduler(options);
    JobRequest req;
    req.id = "tight";
    req.benchmark = "K1";
    req.iterations = 50;
    req.timeoutMs = 1e-6; // expires before the first checkpoint
    scheduler.submit(req);
    scheduler.runAll();
    const JobResult &r = scheduler.results()[0];
    ASSERT_TRUE(r.accepted);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("deadline"), std::string::npos);
    EXPECT_TRUE(r.telemetry.deadlineHit);
}
