#include "dist/supervisor.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "chaos/chaos.hpp"

namespace bingo
{
namespace dist
{

namespace
{

/** Directory holding the currently running executable ("" if unknown). */
std::string
selfExeDir()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return {};
    buf[n] = '\0';
    return std::filesystem::path(buf).parent_path().string();
}

bool
setNonBlocking(int fd)
{
    const int flags = ::fcntl(fd, F_GETFL, 0);
    return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/** Post-spawn bookkeeping once the worker's pipes are connected. */
void
armWorker(WorkerProc &out, pid_t pid, bool own_group, unsigned slot,
          int read_fd, int write_fd)
{
    out.pid = pid;
    out.own_group = own_group;
    out.slot = slot;
    ++out.spawn_count;
    out.said_hello = false;
    out.busy_hint = false;
    out.link = std::make_unique<FramedLink>(read_fd, write_fd);
    // The coordinator's send side participates in transport chaos too;
    // spawn_count as the epoch keeps a respawned slot's schedule fresh.
    out.link->enableFaults(chaos::transportChaosFromEnv(),
                           LinkRole::Coordinator, slot,
                           out.spawn_count);
    out.last_heard = std::chrono::steady_clock::now();
    out.job_start = out.last_heard;
    out.in_flight = WorkerProc::kIdle;
}

} // namespace

std::string
workerBinaryPath()
{
    if (const char *env = std::getenv("BINGO_WORKER_BIN");
        env != nullptr && *env != '\0') {
        std::error_code ec;
        if (std::filesystem::exists(env, ec))
            return env;
        return {};
    }
    const std::string dir = selfExeDir();
    if (dir.empty())
        return {};
    // Benches and examples live next to bingo_worker in build/src;
    // tests live in build/tests, one level over.
    for (const char *candidate :
         {"/bingo_worker", "/../src/bingo_worker", "/../bingo_worker"}) {
        const std::string path = dir + candidate;
        std::error_code ec;
        if (std::filesystem::exists(path, ec))
            return path;
    }
    return {};
}

std::vector<std::string>
sweepDistHosts()
{
    std::vector<std::string> hosts;
    const char *env = std::getenv("BINGO_DIST_HOSTS");
    if (env == nullptr || *env == '\0')
        return hosts;
    std::string entry;
    for (const char *p = env;; ++p) {
        if (*p == ';' || *p == '\0') {
            // Trim surrounding whitespace; drop empty entries.
            std::size_t begin = 0, end = entry.size();
            while (begin < end && std::isspace(
                                      static_cast<unsigned char>(
                                          entry[begin])))
                ++begin;
            while (end > begin && std::isspace(
                                      static_cast<unsigned char>(
                                          entry[end - 1])))
                --end;
            if (end > begin)
                hosts.push_back(entry.substr(begin, end - begin));
            entry.clear();
            if (*p == '\0')
                break;
        } else {
            entry.push_back(*p);
        }
    }
    return hosts;
}

bool
spawnWorker(const std::string &binary, const std::string *host,
            unsigned slot, WorkerProc &out)
{
    // Epoch for the *worker's* fault stream: it must change across
    // respawns (argv, since a fresh exec re-reads it) or a
    // deterministic first-frame fault would repeat forever. Every
    // string the child needs is built before fork.
    const std::string slot_str = std::to_string(slot);
    const std::string epoch_str = std::to_string(out.spawn_count + 1);
    const std::string command =
        host == nullptr ? std::string()
                        : *host + " --stdio --slot " + slot_str +
                              " --fault-epoch " + epoch_str;
    const char *direct_argv[] = {binary.c_str(),   "--stdio",
                                 "--slot",         slot_str.c_str(),
                                 "--fault-epoch",  epoch_str.c_str(),
                                 nullptr};
    const char *shell_argv[] = {"sh", "-c", command.c_str(), nullptr};
    const char *path = host == nullptr ? binary.c_str() : "/bin/sh";
    const char *const *argv =
        host == nullptr ? direct_argv : shell_argv;

    // Close-on-exec, so no later worker inherits these ends: a
    // sibling's copy of the write end would keep this stdin from EOF.
    int to_worker[2];   // Coordinator writes → worker stdin.
    int from_worker[2]; // Worker stdout → coordinator reads.
    if (::pipe2(to_worker, O_CLOEXEC) != 0)
        return false;
    if (::pipe2(from_worker, O_CLOEXEC) != 0) {
        ::close(to_worker[0]);
        ::close(to_worker[1]);
        return false;
    }

    const pid_t pid = ::fork();
    if (pid < 0) {
        for (int fd : {to_worker[0], to_worker[1], from_worker[0],
                       from_worker[1]})
            ::close(fd);
        return false;
    }
    // A template's shell may fork the worker rather than exec it, so a
    // template worker leads its own process group, and stopWorker
    // kills the group. (Set on both sides of the fork, so the group
    // exists whichever runs first.) A direct worker stays in ours.
    const bool own_group = host != nullptr;
    if (pid == 0) {
        if (own_group)
            ::setpgid(0, 0);
        ::close(to_worker[1]);
        ::close(from_worker[0]);
        if (::dup2(to_worker[0], 0) != 0 ||
            ::dup2(from_worker[1], 1) != 1)
            ::_exit(127);
        ::close(to_worker[0]);
        ::close(from_worker[1]);
        ::execv(path, const_cast<char *const *>(argv));
        ::_exit(127);
    }

    if (own_group)
        ::setpgid(pid, pid);
    ::close(to_worker[0]);
    ::close(from_worker[1]);
    if (!setNonBlocking(from_worker[0])) {
        ::close(to_worker[1]);
        ::close(from_worker[0]);
        ::kill(own_group ? -pid : pid, SIGKILL);
        int status = 0;
        ::waitpid(pid, &status, 0);
        return false;
    }
    armWorker(out, pid, own_group, slot, from_worker[0], to_worker[1]);
    return true;
}

bool
stopWorker(WorkerProc &worker, std::chrono::milliseconds grace)
{
    worker.link.reset();
    if (worker.pid <= 0)
        return false;
    const pid_t pid = std::exchange(worker.pid, -1);
    // A crashed worker's pipes close a moment before it becomes
    // reapable, so poll for the exit instead of sampling it once.
    const auto give_up = std::chrono::steady_clock::now() + grace;
    int status = 0;
    pid_t reaped = 0;
    while ((reaped = ::waitpid(pid, &status, WNOHANG)) == 0 &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    if (reaped != pid) {
        ::kill(worker.own_group ? -pid : pid, SIGKILL);
        while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
        }
        return false;
    }
    return WIFSIGNALED(status) || WEXITSTATUS(status) != 0;
}

} // namespace dist
} // namespace bingo
