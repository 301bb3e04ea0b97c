#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

namespace e2e {

namespace {

const char *const kSuite[] = {"F1", "F2", "F3", "F4", "K1", "K2", "K3",
                              "K4", "J1", "J2", "J3", "J4", "S1", "S2",
                              "S3", "S4", "G1", "G2", "G3", "G4"};

/**
 * Seeds the job order and the daemon's arrival times, which are part of
 * a workload's definition rather than of its draw: the cluster's static
 * placement balances some orders across its workers far better than
 * others, so a seeded order would make the cluster's wall time a
 * property of the seed.
 */
constexpr uint64_t kOrderSeed = 0x0e2e;

/** Escapes what a problem text can contain: newlines and the JSON
 *  metacharacters. */
std::string
quote(const std::string &raw)
{
    std::string out = "\"";
    for (char ch : raw) {
        if (ch == '\n')
            out += "\\n";
        else if (ch == '"' || ch == '\\')
            out += std::string("\\") + ch;
        else
            out += ch;
    }
    return out + "\"";
}

/** One request line; fields are appended in call order. */
class Request
{
  public:
    explicit Request(const std::string &id) { add("id", quote(id)); }

    Request &
    str(const char *key, const std::string &value)
    {
        return add(key, quote(value));
    }

    Request &
    num(const char *key, double value)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.17g", value);
        return add(key, buf);
    }

    std::string line() const { return "{" + body_ + "}"; }

  private:
    Request &
    add(const char *key, const std::string &value)
    {
        if (!body_.empty())
            body_ += ",";
        body_ += quote(key) + ":" + value;
        return *this;
    }

    std::string body_;
};

/** Per-job solver seed: any positive value below 2^31. */
double
jobSeed(SplitMix &rng)
{
    return static_cast<double>(1 + rng.below(0x7fffffff));
}

/**
 * Facility location instance text (problems/io format) with @p m
 * facilities and @p d demands, in the same variable layout and cost
 * ranges as the library's scalability FLP family: m open bits, d*m
 * assignment bits, d*m slack bits; each demand served once, and
 * assign + slack - open = 0 links an assignment to its facility.
 */
std::string
flpText(int m, int d, SplitMix &rng)
{
    const int n = m + 2 * d * m;
    auto assign = [m](int i, int j) { return m + i * m + j; };
    auto slack = [m, d](int i, int j) { return m + d * m + i * m + j; };
    std::ostringstream text;
    text << "problem FLP" << n << " FLP\nvars " << n << "\n";
    for (int j = 0; j < m; ++j)
        text << "objective linear " << j << " " << 2 + rng.below(9) << "\n";
    for (int i = 0; i < d; ++i)
        for (int j = 0; j < m; ++j)
            text << "objective linear " << assign(i, j) << " "
                 << 1 + rng.below(8) << "\n";
    for (int i = 0; i < d; ++i) {
        text << "constraint 1";
        for (int j = 0; j < m; ++j)
            text << " " << assign(i, j) << ":1";
        text << "\n";
    }
    for (int i = 0; i < d; ++i)
        for (int j = 0; j < m; ++j)
            text << "constraint 0 " << j << ":-1 " << assign(i, j) << ":1 "
                 << slack(i, j) << ":1\n";
    // Facility 0 open and serving every demand.
    std::string feasible(n, '0');
    feasible[0] = '1';
    for (int i = 0; i < d; ++i)
        feasible[assign(i, 0)] = '1';
    text << "feasible " << feasible << "\n";
    return text.str();
}

/**
 * suite-batch / suite-cluster: every suite benchmark x case 0-3 x
 * {exact, sampled} x six iteration budgets (960 jobs).  About 80
 * distinct pipelines each repeat 12 times, so the artifact cache
 * serves ~96% of lookups: the read-heavy path.  Every tenth job
 * carries fault injection, exercising retries.
 */
std::vector<std::string>
suiteJobs(uint64_t seed, bool smoke)
{
    static const int kIterations[] = {20, 40, 60, 100, 200, 300};
    struct Shape
    {
        const char *benchmark;
        int caseIndex;
        const char *execution;
        int iterations;
    };
    std::vector<Shape> shapes;
    for (const char *b : kSuite)
        for (int c = 0; c < 4; ++c)
            for (const char *e : {"exact", "sampled"})
                for (int it : kIterations)
                    shapes.push_back({b, c, e, it});
    SplitMix(kOrderSeed).shuffle(shapes);
    if (smoke)
        shapes.resize(shapes.size() / 10);

    SplitMix rng(seed ^ 0x5b1ull);
    std::vector<std::string> lines;
    for (size_t i = 0; i < shapes.size(); ++i) {
        Request r("sb-" + std::to_string(i));
        r.str("benchmark", shapes[i].benchmark)
            .num("case", shapes[i].caseIndex)
            .num("iterations", shapes[i].iterations)
            .num("seed", jobSeed(rng))
            .str("execution", shapes[i].execution)
            .num("shots", 512);
        if (i % 10 == 0)
            r.num("fault_rate", 0.05);
        lines.push_back(r.line());
    }
    return lines;
}

/**
 * flp-cold: unique scalability-FLP instances, largest first, inline as
 * problem text, so every pipeline lookup misses: the write-heavy,
 * cache-busting path.  Exact execution stops at 27 vars (the 2^n cost
 * estimate exhausts the admission budget at 33).
 */
std::vector<std::string>
flpJobs(uint64_t seed, bool smoke)
{
    struct Shape
    {
        int facilities, demands;
        const char *execution;
        int iterations;
    };
    // 1x60, 4x52 and 4x44 vars sampled, 3x27 vars exact.
    std::vector<Shape> shapes = {
        {4, 7, "sampled", 10}, {4, 6, "sampled", 8}, {4, 6, "sampled", 9},
        {4, 6, "sampled", 11}, {4, 6, "sampled", 12}, {4, 5, "sampled", 8},
        {4, 5, "sampled", 9},  {4, 5, "sampled", 11}, {4, 5, "sampled", 12},
        {3, 4, "exact", 10},   {3, 4, "exact", 10},   {3, 4, "exact", 10}};
    if (smoke)
        shapes = {{4, 5, "sampled", 10}, {3, 4, "exact", 10}};

    SplitMix rng(seed ^ 0xf1bull);
    std::vector<std::string> lines;
    for (size_t i = 0; i < shapes.size(); ++i) {
        Request r("fc-" + std::to_string(i));
        r.str("problem",
              flpText(shapes[i].facilities, shapes[i].demands, rng))
            .num("iterations", shapes[i].iterations)
            .num("seed", jobSeed(rng))
            .str("execution", shapes[i].execution)
            .num("shots", 512);
        lines.push_back(r.line());
    }
    return lines;
}

/**
 * dense-baselines: HEA, P-QAOA and Choco-Q on the 12-15 qubit suite
 * instances.  No core/sparse code runs, so this is the control that a
 * change to those layers must leave flat.  Jobs are ordered largest
 * first, which keeps the two-thread schedule's tail short.
 */
std::vector<std::string>
denseJobs(uint64_t seed, bool smoke)
{
    struct Shape
    {
        const char *benchmark;
        int qubits;
        const char *algorithm;
        int rank; ///< algorithm cost order: hea > pqaoa > chocoq
        int iterations;
    };
    static const std::pair<const char *, int> kInstances[] = {
        {"F4", 15}, {"G3", 15}, {"F3", 14}, {"G2", 12},
        {"J4", 12}, {"K3", 12}, {"K4", 12}, {"S4", 12}};
    static const char *const kAlgorithms[] = {"hea", "pqaoa", "chocoq"};
    std::vector<Shape> shapes;
    for (const auto &[b, q] : kInstances)
        for (int a = 0; a < 3; ++a)
            for (int it = 10; it <= 30; it += 5)
                shapes.push_back({b, q, kAlgorithms[a], a, it});
    if (smoke) {
        std::vector<Shape> kept;
        for (size_t i = 0; i < shapes.size(); i += 10)
            kept.push_back(shapes[i]);
        shapes = kept;
    }
    std::stable_sort(shapes.begin(), shapes.end(),
                     [](const Shape &a, const Shape &b) {
                         if (a.qubits != b.qubits)
                             return a.qubits > b.qubits;
                         if (a.rank != b.rank)
                             return a.rank < b.rank;
                         return a.iterations > b.iterations;
                     });

    SplitMix rng(seed ^ 0xdb5ull);
    std::vector<std::string> lines;
    for (size_t i = 0; i < shapes.size(); ++i) {
        Request r("db-" + std::to_string(i));
        r.str("benchmark", shapes[i].benchmark)
            .num("case", static_cast<double>(rng.below(4)))
            .str("algorithm", shapes[i].algorithm)
            .num("iterations", shapes[i].iterations)
            .num("seed", jobSeed(rng))
            .num("shots", 256)
            .num("layers", 2);
        lines.push_back(r.line());
    }
    return lines;
}

/**
 * daemon-open: lighter suite jobs (20-60 iterations, a quarter of them
 * interactive) arriving open-loop as a Poisson process at 100 jobs/s,
 * about a third of the daemon's measured capacity.
 */
void
daemonJobs(uint64_t seed, bool smoke, Workload &w)
{
    static const int kIterations[] = {20, 30, 40, 50, 60};
    struct Shape
    {
        const char *benchmark;
        const char *execution;
        int iterations;
    };
    std::vector<Shape> shapes;
    for (int copy = 0; copy < 10; ++copy)
        for (const char *b : kSuite)
            for (const char *e : {"exact", "sampled"})
                shapes.push_back({b, e, kIterations[copy % 5]});
    SplitMix order(kOrderSeed);
    order.shuffle(shapes);
    if (smoke)
        shapes.resize(shapes.size() / 10);

    constexpr double kRatePerMs = 100.0 / 1000.0;
    SplitMix rng(seed ^ 0xd0eull);
    double at = 0.0;
    for (size_t i = 0; i < shapes.size(); ++i) {
        Request r("do-" + std::to_string(i));
        r.str("benchmark", shapes[i].benchmark)
            .num("case", static_cast<double>(rng.below(4)))
            .num("iterations", shapes[i].iterations)
            .num("seed", jobSeed(rng))
            .str("execution", shapes[i].execution)
            .num("shots", 512);
        if (i % 4 == 0)
            r.str("priority", "interactive");
        w.requests.push_back(r.line());
        at += -std::log(1.0 - order.unit()) / kRatePerMs;
        w.sendAtMs.push_back(at);
    }
}

} // namespace

uint64_t
SplitMix::next()
{
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "suite-batch", "suite-cluster", "flp-cold", "dense-baselines",
        "daemon-open"};
    return names;
}

bool
makeWorkload(const std::string &name, uint64_t seed, bool smoke,
             Workload &out)
{
    out = Workload{};
    out.name = name;
    out.serveArgs = {"--threads", "2"};
    if (name == "suite-batch") {
        out.driverArgs = out.serveArgs;
        out.requests = suiteJobs(seed, smoke);
    } else if (name == "suite-cluster") {
        // Same jobs as suite-batch: the only workload that pays framing,
        // placement and the ordered merge, with per-worker caches.
        out.driver = Driver::Cluster;
        out.driverArgs = {"--workers", "2", "--threads", "1"};
        out.requests = suiteJobs(seed, smoke);
    } else if (name == "flp-cold") {
        out.serveArgs = {"--threads", "2", "--max-qubits", "64"};
        out.driverArgs = out.serveArgs;
        out.requests = flpJobs(seed, smoke);
    } else if (name == "dense-baselines") {
        out.driverArgs = out.serveArgs;
        out.requests = denseJobs(seed, smoke);
    } else if (name == "daemon-open") {
        out.driver = Driver::Daemon;
        out.driverArgs = {"--threads", "2"};
        daemonJobs(seed, smoke, out);
    } else {
        return false;
    }
    return true;
}

} // namespace e2e
