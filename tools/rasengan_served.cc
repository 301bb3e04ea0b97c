/**
 * @file
 * Always-on serve daemon driver.
 *
 * Listens on a Unix or TCP socket for newline-delimited JSONL solve
 * requests (the batch rasengan_serve format plus `priority`,
 * `deadline_ms`, and `timeout_ms`) and streams one deterministic
 * result line back per job as it finishes.  A line starting with
 * "GET " is answered as an HTTP/1.0 probe: /healthz, /readyz,
 * /metrics (Prometheus text), /metrics.json, /debug/flight (the live
 * flight-recorder ring as JSON).
 *
 * With --journal the daemon is crash-safe: every accepted request is
 * journaled before acknowledgment, and a restarted daemon re-runs
 * exactly the unfinished jobs, producing byte-identical result lines
 * (child seeds derive from request content, not timing).
 *
 * Signals: SIGTERM/SIGINT drain gracefully -- stop accepting, finish
 * or checkpoint the in-flight job, flush the journal, exit 0.  SIGHUP
 * compacts the journal in place and, with --policy, re-reads the
 * admission/SLO policy file.
 *
 * The daemon always keeps a flight-recorder ring (--flight, default
 * RASENGAN_FLIGHT then on): SIGQUIT dumps it and keeps serving, and
 * GET /debug/flight returns it live.  The active SIMD ISA is logged at
 * startup and exported as the simd_isa_info gauge.  Run it with no
 * arguments for the option list.
 *
 * Exit status: 0 after a clean drain, 1 on startup failure.
 */

#include <csignal>
#include <cstdio>
#include <string>

#include "drivers.h"
#include "obs/flight.h"
#include "qsim/simd.h"
#include "serve/daemon.h"

using namespace rasengan;

namespace {

serve::Daemon *g_daemon = nullptr;

extern "C" void
onSignal(int sig)
{
    if (g_daemon != nullptr)
        g_daemon->notifySignal(sig); // one async-signal-safe write(2)
}

} // namespace

int
main(int argc, char **argv)
{
    tools::ServedArgs args;
    const tools::CommandLine cli = tools::servedCommandLine(args);
    tools::parseOrExit(cli, argc, argv);
    const serve::DaemonOptions &options = args.daemon;
    if (options.listen.empty()) {
        tools::printUsageError(cli, "--listen is required");
        return 1;
    }

    // Pin the amplitude kernel tier before the daemon starts serving:
    // this also registers the simd_isa_info gauge, so the very first
    // /metrics.json probe already reports the active ISA.
    if (!tools::applySimdFlag(args.obs.simd))
        return 1;
    const char *simdIsa = qsim::simdIsaName(qsim::simdActiveIsa());

    // An explicit --flight decision sticks: Daemon::start() applies the
    // env/default-ON convention only when nothing was decided here.
    if (!args.obs.flightSpec.empty())
        obs::flight::configureFromSpec(args.obs.flightSpec,
                                       /*defaultOn=*/true);

    serve::Daemon daemon(options);
    std::string error;
    if (!daemon.start(&error)) {
        std::fprintf(stderr, "rasengan_served: %s\n", error.c_str());
        return 1;
    }

    g_daemon = &daemon;
    std::signal(SIGTERM, onSignal);
    std::signal(SIGINT, onSignal);
    std::signal(SIGHUP, onSignal);
    std::signal(SIGPIPE, SIG_IGN); // client hangups are routine

    std::fprintf(stderr, "rasengan_served: listening on %s%s (simd %s)\n",
                 options.listen.c_str(),
                 options.journalPath.empty() ? ""
                                             : " (journaled)",
                 simdIsa);
    daemon.wait();
    g_daemon = nullptr;

    serve::DaemonStats stats = daemon.stats();
    std::fprintf(stderr,
                 "rasengan_served: drained (%llu accepted, %llu "
                 "completed, %llu shed, %llu replayed, %llu "
                 "checkpointed)\n",
                 static_cast<unsigned long long>(stats.accepted),
                 static_cast<unsigned long long>(stats.completed),
                 static_cast<unsigned long long>(stats.shed),
                 static_cast<unsigned long long>(stats.replayed),
                 static_cast<unsigned long long>(stats.drainCancelled));
    return 0;
}
