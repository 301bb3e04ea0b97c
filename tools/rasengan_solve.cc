/**
 * @file
 * Command-line solver.
 *
 * Usage:
 *   rasengan_solve --benchmark F1 [options]
 *   rasengan_solve --file instance.txt [options]
 *   rasengan_solve --dump F1              # print an instance file
 *
 * Options:
 *   --algorithm rasengan|chocoq|pqaoa|hea   (default rasengan)
 *   --iterations N                          (default 200)
 *   --seed S                                (default 7)
 *   --noise none|kyiv|brisbane              (default none)
 *   --optimizer cobyla|nelder-mead|spsa|adam-spsa
 *   --draw                                  ASCII-draw the first segment
 *   --qasm                                  dump the first segment QASM
 *   --faults RATE    inject transient faults at RATE (0..1) per execution
 *   --retries N      retry budget per execution (default 5)
 *   --checkpoint P   checkpoint/resume the solve through file P
 *   --threads N      simulation threads (default: RASENGAN_THREADS env,
 *                    then hardware concurrency); results are
 *                    bit-identical at every setting
 *   --simd ISA       amplitude kernel ISA: auto|avx2|neon|scalar
 *                    (default: RASENGAN_SIMD env, then auto); results
 *                    are bit-identical for every choice
 *   --trace PATH     write a Chrome trace-event JSON of the solve
 *                    (load in Perfetto or chrome://tracing)
 *   --metrics PATH   write the metrics registry; Prometheus text, or
 *                    flat JSON when PATH ends in .json
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "baselines/chocoq.h"
#include "common/parallel.h"
#include "baselines/hea.h"
#include "baselines/pqaoa.h"
#include "circuit/draw.h"
#include "core/rasengan.h"
#include "device/device.h"
#include "problems/io.h"
#include "problems/metrics.h"
#include "problems/suite.h"
#include "obs_cli.h"

using namespace rasengan;

namespace {

struct Args
{
    std::string benchmark;
    std::string file;
    std::string dump;
    std::string algorithm = "rasengan";
    std::string noise = "none";
    std::string optimizer = "cobyla";
    int iterations = 200;
    uint64_t seed = 7;
    bool draw = false;
    bool qasm = false;
    double faults = 0.0;
    int retries = 5;
    std::string checkpoint;
    int threads = 0;
    std::string simd;
    tools::ObsCliOptions obs;
};

void
usage()
{
    std::fprintf(stderr,
                 "usage: rasengan_solve (--benchmark ID | --file PATH | "
                 "--dump ID)\n"
                 "  [--algorithm rasengan|chocoq|pqaoa|hea] "
                 "[--iterations N] [--seed S]\n"
                 "  [--noise none|kyiv|brisbane] "
                 "[--optimizer cobyla|nelder-mead|spsa|adam-spsa]\n"
                 "  [--draw] [--qasm]\n"
                 "  [--faults RATE] [--retries N] [--checkpoint PATH]\n"
                 "  [--threads N] [--simd auto|avx2|neon|scalar]\n"
                 "  [--trace PATH] [--metrics PATH] "
                 "[--flight on|off|N|PATH]\n");
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (flag == "--benchmark") {
            const char *v = next();
            if (!v)
                return false;
            args.benchmark = v;
        } else if (flag == "--file") {
            const char *v = next();
            if (!v)
                return false;
            args.file = v;
        } else if (flag == "--dump") {
            const char *v = next();
            if (!v)
                return false;
            args.dump = v;
        } else if (flag == "--algorithm") {
            const char *v = next();
            if (!v)
                return false;
            args.algorithm = v;
        } else if (flag == "--noise") {
            const char *v = next();
            if (!v)
                return false;
            args.noise = v;
        } else if (flag == "--optimizer") {
            const char *v = next();
            if (!v)
                return false;
            args.optimizer = v;
        } else if (flag == "--iterations") {
            const char *v = next();
            if (!v)
                return false;
            args.iterations = std::atoi(v);
        } else if (flag == "--seed") {
            const char *v = next();
            if (!v)
                return false;
            args.seed = std::strtoull(v, nullptr, 10);
        } else if (flag == "--faults") {
            const char *v = next();
            if (!v)
                return false;
            char *end = nullptr;
            args.faults = std::strtod(v, &end);
            if (end == v || *end != '\0' || args.faults < 0.0 ||
                args.faults > 1.0) {
                std::fprintf(stderr, "--faults needs a rate in [0, 1]\n");
                return false;
            }
        } else if (flag == "--retries") {
            const char *v = next();
            if (!v)
                return false;
            args.retries = std::atoi(v);
            if (args.retries < 1) {
                std::fprintf(stderr, "--retries needs a count >= 1\n");
                return false;
            }
        } else if (flag == "--checkpoint") {
            const char *v = next();
            if (!v)
                return false;
            args.checkpoint = v;
        } else if (flag == "--threads") {
            const char *v = next();
            if (!v)
                return false;
            args.threads = std::atoi(v);
            if (args.threads < 1) {
                std::fprintf(stderr, "--threads needs a count >= 1\n");
                return false;
            }
        } else if (flag == "--simd") {
            const char *v = next();
            if (!v)
                return false;
            args.simd = v;
        } else if (flag == "--trace") {
            const char *v = next();
            if (!v)
                return false;
            args.obs.tracePath = v;
        } else if (flag == "--metrics") {
            const char *v = next();
            if (!v)
                return false;
            args.obs.metricsPath = v;
        } else if (flag == "--flight") {
            const char *v = next();
            if (!v)
                return false;
            args.obs.flightSpec = v;
        } else if (flag == "--draw") {
            args.draw = true;
        } else if (flag == "--qasm") {
            args.qasm = true;
        } else {
            std::fprintf(stderr, "unknown flag '%s'\n", flag.c_str());
            return false;
        }
    }
    return true;
}

std::optional<opt::Method>
parseOptimizer(const std::string &name)
{
    if (name == "cobyla")
        return opt::Method::Cobyla;
    if (name == "nelder-mead")
        return opt::Method::NelderMead;
    if (name == "spsa")
        return opt::Method::Spsa;
    if (name == "adam-spsa")
        return opt::Method::AdamSpsa;
    return std::nullopt;
}

exec::ResilienceOptions
makeResilience(const Args &args)
{
    exec::ResilienceOptions r;
    r.faults.rate = args.faults;
    r.faults.seed = args.seed ^ 0xFA17;
    r.retry.maxAttempts = args.retries;
    r.threads = args.threads;
    return r;
}

std::optional<qsim::NoiseModel>
parseNoise(const std::string &name)
{
    if (name == "none")
        return qsim::NoiseModel{};
    if (name == "kyiv")
        return device::DeviceModel::ibmKyiv().toNoiseModel();
    if (name == "brisbane")
        return device::DeviceModel::ibmBrisbane().toNoiseModel();
    return std::nullopt;
}

int
runRasengan(const problems::Problem &problem, const Args &args,
            opt::Method method, const qsim::NoiseModel &noise)
{
    core::RasenganOptions options;
    options.maxIterations = args.iterations;
    options.seed = args.seed;
    options.optimizer = method;
    if (noise.enabled()) {
        options.execution =
            core::RasenganOptions::Execution::NoisyGateLevel;
        options.noise = noise;
        options.shotsPerSegment = 256;
        options.trajectories = 4;
    }
    options.resilience = makeResilience(args);
    options.checkpointPath = args.checkpoint;
    if (args.faults > 0.0 &&
        options.execution == core::RasenganOptions::Execution::ExactSparse) {
        // Faults act on shot-based executions; the exact path never
        // leaves the process.
        options.execution = core::RasenganOptions::Execution::SampledSparse;
    }

    core::RasenganSolver solver(problem, options);

    std::printf("pipeline: %zu transitions, chain %zu (of %zu unpruned), "
                "%zu segments\n",
                solver.transitions().size(), solver.chain().steps.size(),
                solver.chain().unprunedSteps.size(),
                solver.segments().size());

    if (args.draw || args.qasm) {
        std::vector<double> nominal(solver.numParams(), 0.6);
        circuit::Circuit segment = solver.segmentCircuit(
            0, problem.trivialFeasible(), nominal);
        if (args.draw) {
            std::printf("\nfirst segment (native gates):\n%s\n",
                        circuit::drawCircuit(segment, 24).c_str());
        }
        if (args.qasm)
            std::printf("\n%s\n", segment.toQasm().c_str());
    }

    core::RasenganResult res = solver.run();
    if (res.failed) {
        std::printf("run FAILED: purification removed every outcome "
                    "(noise too strong for the segment depth)\n");
        return 2;
    }
    std::printf("\nsolution  %s\n",
                res.solution.toString(problem.numVars()).c_str());
    std::printf("objective %.4f", res.objectiveValue);
    if (problem.enumerationEnabled())
        std::printf("   (optimum %.4f, ARG %.4f)", problem.optimalValue(),
                    problem.arg(res.expectedObjective));
    std::printf("\nin-constraints %.1f%%   segment depth %d   params %d\n",
                100.0 * res.inConstraintsRate, res.maxSegmentDepth,
                res.numParams);
    std::printf("latency: %.3fs classical + %.3fs quantum (model)\n",
                res.classicalSeconds, res.quantumSeconds);
    if (res.resumed)
        std::printf("resumed from checkpoint '%s'\n",
                    args.checkpoint.c_str());
    if (args.faults > 0.0) {
        const exec::ExecStats &st = res.execStats;
        std::printf("resilience: %llu executions, %llu retries, "
                    "%llu breaker trips, %d demotions, level %s\n",
                    static_cast<unsigned long long>(st.executions),
                    static_cast<unsigned long long>(st.retries),
                    static_cast<unsigned long long>(st.breakerTrips),
                    st.demotions,
                    exec::degradationLevelName(res.degradation));
    }
    return 0;
}

int
runBaseline(const problems::Problem &problem, const Args &args,
            opt::Method method, const qsim::NoiseModel &noise)
{
    baselines::VqaResult res;
    if (args.algorithm == "chocoq") {
        baselines::ChocoqOptions o;
        o.maxIterations = args.iterations;
        o.seed = args.seed;
        o.noise = noise;
        o.optimizer = method;
        o.resilience = makeResilience(args);
        res = baselines::Chocoq(problem, o).run();
    } else if (args.algorithm == "pqaoa") {
        baselines::PqaoaOptions o;
        o.maxIterations = args.iterations;
        o.seed = args.seed;
        o.noise = noise;
        o.optimizer = method;
        o.smartInit = true;
        o.resilience = makeResilience(args);
        res = baselines::Pqaoa(problem, o).run();
    } else {
        baselines::HeaOptions o;
        o.maxIterations = args.iterations;
        o.seed = args.seed;
        o.noise = noise;
        o.optimizer = method;
        o.resilience = makeResilience(args);
        res = baselines::Hea(problem, o).run();
    }
    std::printf("expected objective %.4f", res.expectedObjective);
    if (problem.enumerationEnabled())
        std::printf("   (optimum %.4f, ARG %.4f)", problem.optimalValue(),
                    problem.arg(res.expectedObjective));
    std::printf("\nin-constraints %.1f%%   depth %d   params %d\n",
                100.0 * res.inConstraintsRate, res.circuitDepth,
                res.numParams);
    std::printf("best feasible in output: %.4f\n",
                problems::bestFeasibleObjective(problem, res.counts));
    if (args.faults > 0.0) {
        const exec::ExecStats &st = res.execStats;
        std::printf("resilience: %llu executions, %llu retries, "
                    "%llu breaker trips, %d demotions, level %s\n",
                    static_cast<unsigned long long>(st.executions),
                    static_cast<unsigned long long>(st.retries),
                    static_cast<unsigned long long>(st.breakerTrips),
                    st.demotions,
                    exec::degradationLevelName(res.degradation));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        usage();
        return 1;
    }
    if (args.threads > 0)
        parallel::setThreadCount(args.threads);
    if (!tools::applySimdFlag(args.simd))
        return 1;
    tools::obsCliStart(args.obs);

    if (!args.dump.empty()) {
        if (!problems::isBenchmarkId(args.dump)) {
            std::fprintf(stderr, "unknown benchmark '%s'\n",
                         args.dump.c_str());
            return 1;
        }
        std::printf("%s",
                    problems::writeProblem(
                        problems::makeBenchmark(args.dump))
                        .c_str());
        return 0;
    }

    std::optional<problems::Problem> problem;
    if (!args.benchmark.empty()) {
        if (!problems::isBenchmarkId(args.benchmark)) {
            std::fprintf(stderr, "unknown benchmark '%s'\n",
                         args.benchmark.c_str());
            return 1;
        }
        problem = problems::makeBenchmark(args.benchmark);
    } else if (!args.file.empty()) {
        std::ifstream in(args.file);
        if (!in) {
            std::fprintf(stderr, "cannot open '%s'\n", args.file.c_str());
            return 1;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        problems::ProblemParseResult parsed =
            problems::parseProblem(buf.str());
        if (!parsed.problem) {
            std::fprintf(stderr, "%s:%d: %s\n", args.file.c_str(),
                         parsed.errorLine, parsed.error.c_str());
            return 1;
        }
        problem = std::move(parsed.problem);
    } else {
        usage();
        return 1;
    }

    auto method = parseOptimizer(args.optimizer);
    auto noise = parseNoise(args.noise);
    if (!method || !noise) {
        usage();
        return 1;
    }

    std::printf("instance %s (%s): %d vars, %d constraints",
                problem->id().c_str(), problem->family().c_str(),
                problem->numVars(), problem->numConstraints());
    if (problem->enumerationEnabled())
        std::printf(", %zu feasible", problem->feasibleCount());
    std::printf("\nalgorithm %s, optimizer %s, noise %s, simd %s, "
                "%d iterations\n\n",
                args.algorithm.c_str(), args.optimizer.c_str(),
                args.noise.c_str(),
                qsim::simdIsaName(qsim::simdActiveIsa()),
                args.iterations);

    int rc = -1;
    if (args.algorithm == "rasengan") {
        rc = runRasengan(*problem, args, *method, *noise);
    } else if (args.algorithm == "chocoq" || args.algorithm == "pqaoa" ||
               args.algorithm == "hea") {
        rc = runBaseline(*problem, args, *method, *noise);
    }
    if (rc >= 0) {
        if (!tools::obsCliFinish(args.obs) && rc == 0)
            rc = 1;
        return rc;
    }
    std::fprintf(stderr, "unknown algorithm '%s'\n",
                 args.algorithm.c_str());
    return 1;
}
