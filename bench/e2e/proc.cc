#include "proc.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

extern char **environ;

namespace e2e {

namespace {

double
seconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
}

/** A connected Unix stream socket, closed on destruction. */
class UnixSocket
{
  public:
    UnixSocket() = default;
    ~UnixSocket()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }
    UnixSocket(const UnixSocket &) = delete;
    UnixSocket &operator=(const UnixSocket &) = delete;

    bool
    connect(const std::string &path)
    {
        sockaddr_un addr{};
        if (path.size() >= sizeof(addr.sun_path))
            return false;
        fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if (fd_ < 0)
            return false;
        addr.sun_family = AF_UNIX;
        std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
        return ::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                         sizeof(addr)) == 0;
    }

    bool
    sendAll(const std::string &bytes)
    {
        size_t done = 0;
        while (done < bytes.size()) {
            ssize_t n = ::send(fd_, bytes.data() + done,
                               bytes.size() - done, MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            done += static_cast<size_t>(n);
        }
        return true;
    }

    int fd() const { return fd_; }

  private:
    int fd_ = -1;
};

} // namespace

double
nowMs()
{
    using namespace std::chrono;
    return duration<double, std::milli>(
               steady_clock::now().time_since_epoch())
        .count();
}

double
selfCpuSeconds()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

Child::~Child()
{
    if (pid_ > 0) {
        ::kill(pid_, SIGKILL);
        wait();
    }
}

bool
Child::spawn(const std::vector<std::string> &argv,
             const std::string &stdoutPath, const std::string &stderrPath,
             std::string *error)
{
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDIN_FILENO, "/dev/null",
                                     O_RDONLY, 0);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                     stdoutPath.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                     stderrPath.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    std::vector<char *> args;
    for (const auto &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);

    startMs_ = nowMs();
    const int rc = ::posix_spawn(&pid_, args[0], &actions, nullptr,
                                 args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
        pid_ = -1;
        if (error != nullptr)
            *error = "cannot spawn " + argv[0] + ": " + std::strerror(rc);
        return false;
    }
    return true;
}

void
Child::signal(int sig)
{
    if (pid_ > 0)
        ::kill(pid_, sig);
}

ProcStats
Child::wait()
{
    ProcStats stats;
    if (pid_ <= 0)
        return stats;
    int status = 0;
    rusage ru{};
    while (::wait4(pid_, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    stats.wallS = (nowMs() - startMs_) * 1e-3;
    pid_ = -1;
    stats.exited = WIFEXITED(status);
    stats.exitCode = stats.exited ? WEXITSTATUS(status) : -1;
    stats.cpuS = seconds(ru.ru_utime) + seconds(ru.ru_stime);
    stats.maxRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return stats;
}

ProcStats
runToExit(const std::vector<std::string> &argv,
          const std::string &stdoutPath, const std::string &stderrPath)
{
    Child child;
    if (!child.spawn(argv, stdoutPath, stderrPath, nullptr))
        return ProcStats{};
    return child.wait();
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

bool
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
    return static_cast<bool>(out);
}

bool
waitReady(const std::string &socketPath, double timeoutMs)
{
    const double deadline = nowMs() + timeoutMs;
    while (nowMs() < deadline) {
        UnixSocket sock;
        if (sock.connect(socketPath) && sock.sendAll("GET /readyz\n")) {
            std::string reply;
            char buf[512];
            ssize_t n = 0;
            while ((n = ::read(sock.fd(), buf, sizeof(buf))) > 0)
                reply.append(buf, static_cast<size_t>(n));
            if (reply.find(" 200 ") != std::string::npos)
                return true;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return false;
}

std::string
lineId(const std::string &line)
{
    static const std::string kKey = "\"id\":\"";
    const size_t at = line.find(kKey);
    if (at == std::string::npos)
        return "";
    const size_t begin = at + kKey.size();
    const size_t end = line.find('"', begin);
    return end == std::string::npos ? "" : line.substr(begin, end - begin);
}

OpenLoopResult
runOpenLoop(const std::string &socketPath,
            const std::vector<std::string> &requests,
            const std::vector<double> &sendAtMs, double drainTimeoutMs)
{
    OpenLoopResult out;
    UnixSocket sock;
    if (!sock.connect(socketPath)) {
        out.error = "cannot connect to " + socketPath;
        return out;
    }
    std::map<std::string, double> dueById;
    for (size_t i = 0; i < requests.size(); ++i)
        dueById[lineId(requests[i])] = sendAtMs[i];

    const double t0 = nowMs();
    size_t next = 0;
    std::string pending;
    double giveUpAt = 0.0;
    while (out.lineById.size() < requests.size()) {
        double now = nowMs() - t0;
        // Send everything that is due, whatever the responses.
        while (next < requests.size() && now >= sendAtMs[next]) {
            out.genLateMsMax =
                std::max(out.genLateMsMax, now - sendAtMs[next]);
            if (!sock.sendAll(requests[next] + "\n")) {
                out.error = "send failed";
                return out;
            }
            ++next;
            now = nowMs() - t0;
        }
        if (next == requests.size() && giveUpAt == 0.0)
            giveUpAt = now + drainTimeoutMs;
        if (giveUpAt != 0.0 && now > giveUpAt) {
            out.error = "timed out waiting for responses";
            return out;
        }

        const double waitMs =
            next < requests.size() ? sendAtMs[next] - now : 50.0;
        timespec ts{};
        ts.tv_sec = static_cast<time_t>(waitMs / 1000.0);
        ts.tv_nsec = static_cast<long>(
            std::fmod(std::max(waitMs, 0.0), 1000.0) * 1e6);
        pollfd pfd{sock.fd(), POLLIN, 0};
        const int ready = ::ppoll(&pfd, 1, &ts, nullptr);
        if (ready < 0 && errno != EINTR) {
            out.error = "poll failed";
            return out;
        }
        if (ready <= 0)
            continue;
        char buf[65536];
        const ssize_t n = ::read(sock.fd(), buf, sizeof(buf));
        if (n <= 0) {
            out.error = "daemon closed the connection";
            return out;
        }
        const double at = nowMs() - t0;
        pending.append(buf, static_cast<size_t>(n));
        size_t start = 0;
        for (size_t nl; (nl = pending.find('\n', start)) !=
                        std::string::npos;
             start = nl + 1) {
            std::string line = pending.substr(start, nl - start);
            const std::string id = lineId(line);
            auto due = dueById.find(id);
            if (due == dueById.end()) {
                out.error = "response for unknown id: " + line;
                return out;
            }
            out.latencyMsById[id] = at - due->second;
            out.lineById[id] = std::move(line);
            out.lastResponseMs = at;
        }
        pending.erase(0, start);
    }
    out.complete = true;
    return out;
}

} // namespace e2e
