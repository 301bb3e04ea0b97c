/**
 * @file
 * Process control and the daemon's socket client, measured from
 * outside the program: wall time around spawn..reap, CPU and peak RSS
 * from wait4() (which folds in every descendant the child reaped, so a
 * cluster coordinator's numbers cover its forked workers).
 */

#ifndef RASENGAN_BENCH_E2E_PROC_H
#define RASENGAN_BENCH_E2E_PROC_H

#include <sys/types.h>

#include <map>
#include <string>
#include <vector>

namespace e2e {

/** Milliseconds on the steady clock (arbitrary epoch). */
double nowMs();

/** Process CPU time (user + system, all threads) in seconds. */
double selfCpuSeconds();

struct ProcStats
{
    bool exited = false; ///< false: killed by a signal or never started
    int exitCode = -1;
    double wallS = 0.0;  ///< spawn until reaped
    double cpuS = 0.0;   ///< user + system of the process tree
    double maxRssMb = 0.0;
};

/** One spawned child; the destructor kills and reaps it if needed. */
class Child
{
  public:
    Child() = default;
    ~Child();
    Child(const Child &) = delete;
    Child &operator=(const Child &) = delete;

    /** Start @p argv with stdout/stderr redirected to the given files
     *  (truncated).  Returns false with @p error when spawning fails. */
    bool spawn(const std::vector<std::string> &argv,
               const std::string &stdoutPath,
               const std::string &stderrPath, std::string *error);

    void signal(int sig);

    /** Block until the child exits and return its measurements. */
    ProcStats wait();

    bool running() const { return pid_ > 0; }
    double startMs() const { return startMs_; }

  private:
    pid_t pid_ = -1;
    double startMs_ = 0.0;
};

/** Spawn @p argv, wait for it, and measure it. */
ProcStats runToExit(const std::vector<std::string> &argv,
                    const std::string &stdoutPath,
                    const std::string &stderrPath);

bool readFile(const std::string &path, std::string &out);
bool writeFile(const std::string &path, const std::string &bytes);

/** Poll GET /readyz on a Unix socket until it answers 200 or
 *  @p timeoutMs passes. */
bool waitReady(const std::string &socketPath, double timeoutMs);

/** Outcome of one open-loop client run against the daemon. */
struct OpenLoopResult
{
    bool complete = false; ///< every request got a response line
    std::string error;
    std::map<std::string, std::string> lineById;
    std::map<std::string, double> latencyMsById; ///< from scheduled send
    double genLateMsMax = 0.0; ///< worst actual-minus-scheduled send
    double lastResponseMs = 0.0; ///< ms after the run started
};

/**
 * Send @p requests over one connection at @p sendAtMs (ms after the
 * run starts) regardless of responses, and collect every response
 * line by id.  Gives up @p drainTimeoutMs after the last send.
 */
OpenLoopResult runOpenLoop(const std::string &socketPath,
                           const std::vector<std::string> &requests,
                           const std::vector<double> &sendAtMs,
                           double drainTimeoutMs);

/** The "id" string of a request or result line ("" when absent). */
std::string lineId(const std::string &line);

} // namespace e2e

#endif // RASENGAN_BENCH_E2E_PROC_H
