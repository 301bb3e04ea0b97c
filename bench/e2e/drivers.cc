#include "drivers.h"

#include <signal.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "problems/io.h"
#include "problems/suite.h"
#include "serve/cachekey.h"
#include "serve/job.h"
#include "serve/jsonl.h"

namespace e2e {

namespace {

using rasengan::BitVec;
using rasengan::problems::Problem;

std::string
driverBinary(const Paths &paths, Driver driver)
{
    switch (driver) {
    case Driver::Cluster:
        return paths.bin + "/rasengan_clusterd";
    case Driver::Daemon:
        return paths.bin + "/rasengan_served";
    case Driver::Serve:
        break;
    }
    return paths.bin + "/rasengan_serve";
}

/** Daemon socket path: relative to the working directory, because a
 *  Unix socket path is capped at ~107 bytes and checkouts nest deep. */
std::string
socketPath(const Paths &paths, const std::string &tag)
{
    return paths.work + "/" + tag + ".sock";
}

/** Command line of a daemon with a fresh journal (any old one named by
 *  @p tag is removed). */
std::vector<std::string>
daemonArgv(const Workload &w, const Paths &paths, const std::string &tag)
{
    std::vector<std::string> argv = {driverBinary(paths, Driver::Daemon),
                                     "--listen",
                                     "unix:" + socketPath(paths, tag),
                                     "--journal",
                                     paths.work + "/" + tag + ".journal"};
    argv.insert(argv.end(), w.driverArgs.begin(), w.driverArgs.end());
    std::remove((paths.work + "/" + tag + ".journal").c_str());
    return argv;
}

/** Problems named by the requests, built once per distinct source. */
class ProblemBook
{
  public:
    const Problem *
    get(const rasengan::serve::JobRequest &req)
    {
        const std::string key = req.benchmark.empty()
                                    ? req.problemText
                                    : req.benchmark + "#" +
                                          std::to_string(req.caseIndex);
        auto it = book_.find(key);
        if (it != book_.end())
            return it->second.get();
        std::unique_ptr<Problem> p;
        if (!req.benchmark.empty()) {
            if (rasengan::problems::isBenchmarkId(req.benchmark))
                p = std::make_unique<Problem>(
                    rasengan::problems::makeBenchmark(req.benchmark,
                                                      req.caseIndex));
        } else {
            auto parsed = rasengan::problems::parseProblem(req.problemText);
            if (parsed.problem)
                p = std::make_unique<Problem>(std::move(*parsed.problem));
        }
        return (book_[key] = std::move(p)).get();
    }

  private:
    std::map<std::string, std::unique_ptr<Problem>> book_;
};

} // namespace

void
writeRequests(const Workload &w, const Paths &paths)
{
    std::string text;
    for (const auto &line : w.requests)
        text += line + "\n";
    writeFile(paths.work + "/requests.jsonl", text);
}

Round
batchRound(const Paths &paths, Driver driver,
           const std::vector<std::string> &args, const std::string &tag,
           const std::vector<std::string> &extra)
{
    Round round;
    const std::string out = paths.work + "/" + tag + ".out";
    std::vector<std::string> argv = {driverBinary(paths, driver)};
    argv.insert(argv.end(), args.begin(), args.end());
    argv.insert(argv.end(),
                {"--requests", paths.work + "/requests.jsonl", "--out", out});
    argv.insert(argv.end(), extra.begin(), extra.end());
    round.proc = runToExit(argv, "/dev/null", paths.work + "/" + tag + ".err");
    round.wallS = round.proc.wallS;
    // Exit 2 means some job failed; checkRound counts those.
    if (!round.proc.exited ||
        (round.proc.exitCode != 0 && round.proc.exitCode != 2)) {
        round.error = argv[0] + " failed (exit " +
                      std::to_string(round.proc.exitCode) + "), see " +
                      paths.work + "/" + tag + ".err";
        return round;
    }
    if (!readFile(out, round.bytes)) {
        round.error = "no output file " + out;
        return round;
    }
    std::remove(out.c_str());
    round.ok = true;
    return round;
}

Round
daemonRound(const Workload &w, const Paths &paths, const std::string &tag)
{
    Round round;
    Child daemon;
    std::string error;
    if (!daemon.spawn(daemonArgv(w, paths, tag), "/dev/null",
                      paths.work + "/" + tag + ".err", &error)) {
        round.error = error;
        return round;
    }
    if (!waitReady(socketPath(paths, tag), 10000.0)) {
        round.error = "daemon never became ready";
        return round;
    }
    OpenLoopResult client = runOpenLoop(socketPath(paths, tag), w.requests,
                                        w.sendAtMs, 60000.0);
    daemon.signal(SIGTERM);
    round.proc = daemon.wait();
    if (!client.complete) {
        round.error = "daemon client: " + client.error;
        return round;
    }
    if (!round.proc.exited || round.proc.exitCode != 0) {
        round.error = "daemon did not drain cleanly";
        return round;
    }
    for (const auto &line : w.requests)
        round.bytes += client.lineById[lineId(line)] + "\n";
    round.wallS = client.lastResponseMs * 1e-3;
    round.latencyMsById = std::move(client.latencyMsById);
    round.genLateMsMax = client.genLateMsMax;
    round.ok = true;
    return round;
}

double
setupSeconds(const Workload &w, const Paths &paths, int launches)
{
    std::vector<double> samples;
    if (w.driver == Driver::Daemon) {
        for (int i = 0; i < launches; ++i) {
            const std::string tag = "setup" + std::to_string(i);
            Child daemon;
            if (!daemon.spawn(daemonArgv(w, paths, tag), "/dev/null",
                              paths.work + "/setup.err", nullptr))
                return 0.0;
            if (!waitReady(socketPath(paths, tag), 10000.0))
                return 0.0;
            samples.push_back((nowMs() - daemon.startMs()) * 1e-3);
            daemon.signal(SIGTERM);
            daemon.wait();
        }
    } else {
        const std::string requests = paths.work + "/setup.jsonl";
        writeFile(requests,
                  "{\"id\":\"setup\",\"benchmark\":\"F1\","
                  "\"iterations\":20}\n");
        std::vector<std::string> argv = {driverBinary(paths, w.driver)};
        argv.insert(argv.end(), w.driverArgs.begin(), w.driverArgs.end());
        argv.insert(argv.end(), {"--requests", requests, "--out",
                                 paths.work + "/setup.out"});
        for (int i = 0; i < launches; ++i) {
            ProcStats p =
                runToExit(argv, "/dev/null", paths.work + "/setup.err");
            if (!p.exited || p.exitCode != 0)
                return 0.0;
            samples.push_back(p.wallS);
        }
    }
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

Check
checkRound(const Workload &w, const std::string &bytes)
{
    namespace serve = rasengan::serve;
    Check check;
    ProblemBook problems;
    size_t pos = 0;
    for (size_t i = 0; i < w.requests.size(); ++i) {
        const size_t nl = bytes.find('\n', pos);
        if (nl == std::string::npos) {
            check.error = "missing result line " + std::to_string(i);
            return check;
        }
        const std::string line = bytes.substr(pos, nl - pos);
        pos = nl + 1;

        serve::RequestParseResult req = serve::parseRequest(w.requests[i]);
        serve::JsonParseResult res = serve::parseFlatJson(line);
        if (!req.ok || !res.ok || res.object["id"].str != req.request.id) {
            check.error = "result line " + std::to_string(i) +
                          " does not answer request " + req.request.id;
            return check;
        }
        if (!res.object["accepted"].flag || !res.object["ok"].flag) {
            ++check.failedJobs;
            continue;
        }
        const Problem *problem = problems.get(req.request);
        const std::string &bits = res.object["solution"].str;
        if (bits.empty() && req.request.algorithm != "rasengan") {
            // A baseline may sample no feasible state at all; that is a
            // poor answer, not a wrong one.
            ++check.okJobs;
            continue;
        }
        if (problem == nullptr ||
            static_cast<int>(bits.size()) != problem->numVars() ||
            bits.find_first_not_of("01") != std::string::npos) {
            check.error = "malformed solution in " + line;
            return check;
        }
        const BitVec x = BitVec::fromString(bits);
        const double reported = res.object["objective"].num;
        const double actual = problem->objective(x);
        if (!problem->isFeasible(x) ||
            std::abs(reported - actual) >
                1e-9 * std::max(1.0, std::abs(actual))) {
            check.error = "infeasible solution or wrong objective in " + line;
            return check;
        }
        ++check.okJobs;
    }
    if (pos != bytes.size()) {
        check.error = "more result lines than requests";
        return check;
    }
    check.ok = true;
    return check;
}

std::string
digest(const std::string &bytes)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(
                      rasengan::serve::fnv1a64(bytes)));
    return buf;
}

} // namespace e2e
