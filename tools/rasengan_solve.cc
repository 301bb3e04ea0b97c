/**
 * @file
 * Command-line solver.
 *
 *   rasengan_solve --benchmark F1 [options]
 *   rasengan_solve --file instance.txt [options]
 *   rasengan_solve --dump F1              # print an instance file
 *
 * Results are bit-identical at every --simd setting.
 * Run it with no arguments for the option list.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "baselines/chocoq.h"
#include "baselines/hea.h"
#include "baselines/pqaoa.h"
#include "circuit/draw.h"
#include "core/rasengan.h"
#include "device/device.h"
#include "drivers.h"
#include "problems/io.h"
#include "problems/metrics.h"
#include "problems/suite.h"

using namespace rasengan;

namespace {

using tools::SolveArgs;

/** The option table admits only the four --optimizer names. */
opt::Method
optimizerMethod(const std::string &name)
{
    if (name == "nelder-mead")
        return opt::Method::NelderMead;
    if (name == "spsa")
        return opt::Method::Spsa;
    if (name == "adam-spsa")
        return opt::Method::AdamSpsa;
    return opt::Method::Cobyla;
}

exec::ResilienceOptions
makeResilience(const SolveArgs &args)
{
    exec::ResilienceOptions r;
    r.faults.rate = args.faults;
    r.faults.seed = args.seed ^ 0xFA17;
    r.retry.maxAttempts = args.retries;
    return r;
}

void
printResilience(const exec::ExecStats &st, exec::DegradationLevel level)
{
    std::printf("resilience: %llu executions, %llu retries, "
                "%llu breaker trips, %d demotions, level %s\n",
                static_cast<unsigned long long>(st.executions),
                static_cast<unsigned long long>(st.retries),
                static_cast<unsigned long long>(st.breakerTrips),
                st.demotions, exec::degradationLevelName(level));
}

/** The option table admits only none, kyiv and brisbane. */
qsim::NoiseModel
noiseModel(const std::string &name)
{
    if (name == "kyiv")
        return device::DeviceModel::ibmKyiv().toNoiseModel();
    if (name == "brisbane")
        return device::DeviceModel::ibmBrisbane().toNoiseModel();
    return qsim::NoiseModel{};
}

int
runRasengan(const problems::Problem &problem, const SolveArgs &args,
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
    if (args.faults > 0.0)
        printResilience(res.execStats, res.degradation);
    return 0;
}

int
runBaseline(const problems::Problem &problem, const SolveArgs &args,
            opt::Method method, const qsim::NoiseModel &noise)
{
    baselines::VqaOptions common;
    common.maxIterations = args.iterations;
    common.seed = args.seed;
    common.noise = noise;
    common.optimizer = method;
    common.resilience = makeResilience(args);
    baselines::VqaResult res;
    if (args.algorithm == "chocoq") {
        res = baselines::Chocoq(problem, {common}).run();
    } else if (args.algorithm == "pqaoa") {
        baselines::PqaoaOptions o{common};
        o.smartInit = true;
        res = baselines::Pqaoa(problem, o).run();
    } else {
        res = baselines::Hea(problem, {common}).run();
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
    if (args.faults > 0.0)
        printResilience(res.execStats, res.degradation);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    SolveArgs args;
    const tools::CommandLine cli = tools::solveCommandLine(args);
    tools::parseOrExit(cli, argc, argv);
    if (!tools::applySimdFlag(args.obs.simd))
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
        tools::printUsageError(cli, "one of --benchmark, --file and --dump "
                                    "is required");
        return 1;
    }

    const opt::Method method = optimizerMethod(args.optimizer);
    const qsim::NoiseModel noise = noiseModel(args.noise);

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

    int rc = args.algorithm == "rasengan"
                 ? runRasengan(*problem, args, method, noise)
                 : runBaseline(*problem, args, method, noise);
    if (!tools::obsCliFinish(args.obs) && rc == 0)
        rc = 1;
    return rc;
}
