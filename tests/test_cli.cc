/**
 * @file
 * The drivers' option tables: strict value parsing, switches, environment
 * fallbacks, and usage text generated from the same tables.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <initializer_list>
#include <set>
#include <string>
#include <vector>

#include "drivers.h"

using namespace rasengan;
using namespace rasengan::tools;

namespace {

/** parseOptions over {"prog", args...}. */
std::string
parse(const CommandLine &cli, std::initializer_list<const char *> args)
{
    std::vector<const char *> argv = {"prog"};
    argv.insert(argv.end(), args.begin(), args.end());
    return parseOptions(cli.options, static_cast<int>(argv.size()),
                        argv.data());
}

/** Sets an environment variable for one scope. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        ::setenv(name, value, 1);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

  private:
    const char *name_;
};

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.compare(0, prefix.size(), prefix) == 0;
}

} // namespace

TEST(OptionTable, UnknownFlagAndMissingValueNameTheFlag)
{
    ServeArgs args;
    CommandLine cli = serveCommandLine(args);
    EXPECT_EQ(parse(cli, {"--bogus"}), "--bogus: unknown flag");
    EXPECT_EQ(parse(cli, {"--help"}), "--help: unknown flag");
    EXPECT_EQ(parse(cli, {"--workload", "3", "--out"}),
              "--out: missing value (FILE)");
    EXPECT_EQ(args.batch.workload, 3);
    EXPECT_EQ(parse(cli, {"--requests", "r.jsonl", "--out", "o.jsonl"}), "");
    EXPECT_EQ(args.batch.requests, "r.jsonl");
    EXPECT_EQ(args.batch.out, "o.jsonl");
}

TEST(OptionTable, RejectsTrailingGarbageAndNonNumbers)
{
    ServeArgs args;
    CommandLine cli = serveCommandLine(args);
    const int qubits = args.service.limits.maxQubits;
    EXPECT_TRUE(startsWith(parse(cli, {"--max-qubits", "1x"}),
                           "--max-qubits: '1x' is not an integer"));
    EXPECT_EQ(args.service.limits.maxQubits, qubits);
    for (const char *bad : {"abc", "", " 3", "+3", "3.0", "0x10", "--1"})
        EXPECT_TRUE(startsWith(parse(cli, {"--workload", bad}),
                               "--workload: "))
            << "'" << bad << "'";
    EXPECT_EQ(args.batch.workload, -1);
    EXPECT_TRUE(startsWith(parse(cli, {"--threads", "two"}),
                           "--threads: 'two' is not an integer"));
    EXPECT_TRUE(startsWith(parse(cli, {"--max-cost", "1e3x"}),
                           "--max-cost: '1e3x' is not a finite number"));
    EXPECT_TRUE(startsWith(parse(cli, {"--max-cost", "inf"}),
                           "--max-cost: 'inf' is not a finite number"));

    SolveArgs solve;
    EXPECT_TRUE(startsWith(parse(solveCommandLine(solve),
                                 {"--iterations", "abc"}),
                           "--iterations: 'abc' is not an integer"));
    EXPECT_EQ(solve.iterations, 200);
}

TEST(OptionTable, EnforcesEachDriversRanges)
{
    // A single solve has no threads to set; the service drivers size
    // their job pool with --threads, 0 = keep.
    SolveArgs solve;
    CommandLine solveCli = solveCommandLine(solve);
    EXPECT_EQ(parse(solveCli, {"--threads", "1"}), "--threads: unknown flag");
    EXPECT_NE(parse(solveCli, {"--faults", "1.5"}), "");
    EXPECT_NE(parse(solveCli, {"--faults", "-0.1"}), "");
    EXPECT_EQ(parse(solveCli, {"--faults", "1"}), "");
    EXPECT_EQ(solve.faults, 1.0);
    EXPECT_NE(parse(solveCli, {"--retries", "0"}), "");
    EXPECT_EQ(parse(solveCli, {"--seed", "18446744073709551615"}), "");
    EXPECT_EQ(solve.seed, UINT64_MAX);
    EXPECT_NE(parse(solveCli, {"--seed", "18446744073709551616"}), "");
    EXPECT_NE(parse(solveCli, {"--seed", "-1"}), "");

    ServeArgs serve;
    CommandLine serveCli = serveCommandLine(serve);
    EXPECT_EQ(parse(serveCli, {"--threads", "0"}), "");
    EXPECT_NE(parse(serveCli, {"--threads", "99999999999"}), "");
    EXPECT_EQ(parse(serveCli, {"--cache-mb", "-1"}),
              "--cache-mb: '-1' is out of range: --cache-mb must be >= 0");
    EXPECT_EQ(parse(serveCli, {"--cache-mb", "0", "--max-queue", "7",
                               "--max-shots", "0", "--max-cost", "2.5"}),
              "");
    EXPECT_EQ(serve.service.cacheBudgetBytes, 0u);
    EXPECT_EQ(serve.service.limits.maxQueuedJobs, 7u);
    EXPECT_EQ(serve.service.limits.maxShotsPerJob, 0u);
    EXPECT_EQ(serve.service.limits.maxJobCostUnits, 2.5);
    EXPECT_EQ(parse(serveCli, {"--cache-mb", "3"}), "");
    EXPECT_EQ(serve.service.cacheBudgetBytes, 3ull << 20);
    EXPECT_NE(parse(serveCli, {"--max-cost", "-1"}), "");

    // Negative admission limits no longer wrap to "unbounded".
    ServedArgs served;
    CommandLine servedCli = servedCommandLine(served);
    EXPECT_EQ(parse(servedCli, {"--max-queue", "-1"}),
              "--max-queue: '-1' is out of range: --max-queue must be >= 0");
    EXPECT_NE(parse(servedCli, {"--shed-margin", "2"}), "");

    // The TCP port no longer truncates through uint16_t.
    ClusterdArgs cluster;
    CommandLine clusterCli = clusterdCommandLine(cluster);
    EXPECT_EQ(parse(clusterCli, {"--listen", "70000"}),
              "--listen: '70000' is out of range: --listen must be in "
              "[0, 65535]");
    EXPECT_NE(parse(clusterCli, {"--listen", "-1"}), "");
    EXPECT_EQ(parse(clusterCli, {"--listen", "65535"}), "");
    EXPECT_EQ(cluster.listenPort, 65535);
    EXPECT_NE(parse(clusterCli, {"--max-placements", "0"}), "");
    EXPECT_NE(parse(clusterCli, {"--expect-workers", "0"}), "");
}

TEST(OptionTable, SwitchesAndChoices)
{
    SolveArgs solve;
    CommandLine cli = solveCommandLine(solve);
    // A switch takes no value: the next token is parsed as a flag.
    EXPECT_EQ(parse(cli, {"--draw", "--qasm", "--benchmark", "F1"}), "");
    EXPECT_TRUE(solve.draw);
    EXPECT_TRUE(solve.qasm);
    EXPECT_EQ(solve.benchmark, "F1");
    EXPECT_EQ(parse(cli, {"--draw", "1"}), "1: unknown flag");

    EXPECT_EQ(parse(cli, {"--algorithm", "hea", "--optimizer", "spsa",
                          "--noise", "kyiv", "--simd", "scalar"}),
              "");
    EXPECT_EQ(solve.algorithm, "hea");
    EXPECT_EQ(solve.optimizer, "spsa");
    EXPECT_EQ(solve.noise, "kyiv");
    EXPECT_EQ(solve.obs.simd, "scalar");
    EXPECT_EQ(parse(cli, {"--algorithm", "qaoa"}),
              "--algorithm: 'qaoa' is not one of rasengan|chocoq|pqaoa|hea");
    EXPECT_EQ(solve.algorithm, "hea");
    EXPECT_NE(parse(cli, {"--simd", "avx512"}), "");

    ServeArgs serve;
    EXPECT_EQ(parse(serveCommandLine(serve), {"--dump-workload"}), "");
    EXPECT_TRUE(serve.dumpWorkload);
    ClusterdArgs cluster;
    EXPECT_EQ(parse(clusterdCommandLine(cluster), {"--worker"}), "");
    EXPECT_TRUE(cluster.workerMode);
}

TEST(OptionTable, EnvFallbackAndFlagBeatsEnv)
{
    {
        ScopedEnv workers("RASENGAN_CLUSTER_WORKERS", "3");
        ScopedEnv fault("RASENGAN_CLUSTER_FAULT", "kill-after:2");
        ClusterdArgs fromEnv;
        EXPECT_EQ(parse(clusterdCommandLine(fromEnv), {}), "");
        EXPECT_EQ(fromEnv.workers, 3);
        EXPECT_EQ(fromEnv.coordinator.faultSpec, "kill-after:2");

        ClusterdArgs flags;
        EXPECT_EQ(parse(clusterdCommandLine(flags),
                        {"--workers", "2", "--fault", "disconnect-after:1"}),
                  "");
        EXPECT_EQ(flags.workers, 2);
        EXPECT_EQ(flags.coordinator.faultSpec, "disconnect-after:1");
    }
    {
        // A bad env value is an error only when the flag is absent.
        ScopedEnv workers("RASENGAN_CLUSTER_WORKERS", "two");
        ClusterdArgs fromEnv;
        EXPECT_TRUE(startsWith(parse(clusterdCommandLine(fromEnv), {}),
                               "RASENGAN_CLUSTER_WORKERS (for --workers): "
                               "'two' is not an integer"));
        ClusterdArgs flag;
        EXPECT_EQ(parse(clusterdCommandLine(flag), {"--workers", "1"}), "");
        EXPECT_EQ(flag.workers, 1);
    }
    {
        ScopedEnv fault("RASENGAN_CLUSTER_FAULT", "explode");
        ClusterdArgs args;
        EXPECT_TRUE(startsWith(parse(clusterdCommandLine(args), {}),
                               "RASENGAN_CLUSTER_FAULT (for --fault): "));
        EXPECT_TRUE(startsWith(
            parse(clusterdCommandLine(args), {"--fault", "explode"}),
            "--fault: "));
    }
    ClusterdArgs unset;
    EXPECT_EQ(parse(clusterdCommandLine(unset), {}), "");
    EXPECT_EQ(unset.workers, -1);
    EXPECT_EQ(unset.coordinator.faultSpec, "");
}

TEST(OptionTable, DefaultsMatchTheLibraryStructs)
{
    ServeArgs serve;
    EXPECT_EQ(parse(serveCommandLine(serve), {"--workload", "1"}), "");
    const serve::ServiceOptions defaults;
    EXPECT_EQ(serve.service.threads, defaults.threads);
    EXPECT_EQ(serve.service.batchSeed, defaults.batchSeed);
    EXPECT_EQ(serve.service.cacheBudgetBytes, 64ull << 20);
    EXPECT_EQ(serve.service.limits.maxQueuedJobs,
              defaults.limits.maxQueuedJobs);
    EXPECT_EQ(serve.service.limits.maxQubits, defaults.limits.maxQubits);
    EXPECT_EQ(serve.service.limits.maxShotsPerJob,
              defaults.limits.maxShotsPerJob);
    EXPECT_EQ(serve.service.limits.maxJobCostUnits,
              defaults.limits.maxJobCostUnits);

    ServedArgs served;
    EXPECT_EQ(served.daemon.listen, "");
    ClusterdArgs cluster;
    EXPECT_EQ(cluster.coordinator.retry.maxAttempts, 3);
    EXPECT_EQ(cluster.coordinator.faultWorker, 0);
}

TEST(OptionTable, UsageListsEveryEntryOfEachDriver)
{
    SolveArgs solve;
    ServeArgs serve;
    ServedArgs served;
    ClusterdArgs cluster;
    const std::vector<CommandLine> clis = {
        solveCommandLine(solve), serveCommandLine(serve),
        servedCommandLine(served), clusterdCommandLine(cluster)};
    for (const CommandLine &cli : clis) {
        SCOPED_TRACE(cli.name);
        const std::string usage = usageText(cli);
        EXPECT_TRUE(startsWith(usage, "usage: " + cli.name + " "));
        std::set<std::string> flags;
        for (const Option &option : cli.options) {
            EXPECT_TRUE(flags.insert(option.flag).second)
                << option.flag << " declared twice";
            std::string head = "  " + option.flag;
            if (!option.metavar.empty())
                head += " " + option.metavar;
            EXPECT_NE(usage.find(head), std::string::npos) << option.flag;
            EXPECT_NE(usage.find(option.help), std::string::npos)
                << option.flag;
            if (!option.env.empty()) {
                EXPECT_NE(usage.find("(env " + option.env + ")"),
                          std::string::npos);
            }
        }
    }
    // The shared groups are declared once and reach every driver that
    // takes them: the service flags all but solve, --simd/--flight all.
    auto lists = [](const CommandLine &cli, const std::string &flag) {
        return usageText(cli).find("  " + flag + " ") != std::string::npos;
    };
    for (const CommandLine &cli : clis) {
        EXPECT_TRUE(lists(cli, "--simd")) << cli.name;
        EXPECT_TRUE(lists(cli, "--flight")) << cli.name;
        for (const char *flag : {"--batch-seed", "--cache-mb", "--max-queue",
                                 "--max-qubits", "--max-shots", "--max-cost"})
            EXPECT_EQ(lists(cli, flag), cli.name != "rasengan_solve")
                << cli.name << " " << flag;
    }
    EXPECT_FALSE(lists(clis[2], "--trace"));
    EXPECT_FALSE(lists(clis[2], "--metrics"));
}
