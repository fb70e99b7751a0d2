#include "dist/worker.hpp"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include "chaos/chaos.hpp"
#include "dist/protocol.hpp"
#include "dist/transport.hpp"
#include "sim/experiment.hpp"
#include "sim/journal.hpp"

namespace bingo
{
namespace dist
{

namespace
{

/**
 * Claim the `:once` marker `tag.<index>.fired` in BINGO_DIST_TEST_DIR,
 * the directory every worker of the sweep shares so the knob fires in
 * exactly one process, and write this worker's pid into it; false =
 * already claimed by another worker, or BINGO_DIST_TEST_DIR is unset.
 */
bool
claimOnce(const char *tag, std::uint64_t index)
{
    const char *env = std::getenv("BINGO_DIST_TEST_DIR");
    if (env == nullptr || *env == '\0')
        return false;
    const std::string dir = env;
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string marker = dir + "/" + tag + "." +
                               std::to_string(index) + ".fired";
    const int fd =
        ::open(marker.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
    if (fd < 0)
        return false;
    const std::string pid = std::to_string(::getpid()) + "\n";
    const ssize_t written = ::write(fd, pid.data(), pid.size());
    (void)written;
    ::close(fd);
    return true;
}

/**
 * Whether the `env_name` fault knob targets sweep job `index`. With
 * the `:once` suffix, an O_CREAT|O_EXCL marker file makes only the
 * first worker (and first dispatch) to draw the job fire; respawned
 * workers simulate it normally, modelling a transient crash instead of
 * a poison job.
 */
bool
knobFires(const char *env_name, std::uint64_t index, const char *tag)
{
    const char *value = std::getenv(env_name);
    if (value == nullptr || *value == '\0')
        return false;
    char *end = nullptr;
    const unsigned long long target = std::strtoull(value, &end, 10);
    if (end == value || target != index)
        return false;
    if (*end == '\0')
        return true;
    if (std::strcmp(end, ":once") != 0)
        return false;
    return claimOnce(tag, index);
}

/**
 * BINGO_DIST_TEST_STALL_JOB=<index>:<ms>[:once]: how long to sit on
 * job `index` while heartbeating idle. 0 = knob does not fire.
 */
std::uint64_t
stallKnobMs(std::uint64_t index)
{
    const char *value = std::getenv("BINGO_DIST_TEST_STALL_JOB");
    if (value == nullptr || *value == '\0')
        return 0;
    char *end = nullptr;
    const unsigned long long target = std::strtoull(value, &end, 10);
    if (end == value || target != index || *end != ':')
        return 0;
    const char *ms_text = end + 1;
    const unsigned long long ms = std::strtoull(ms_text, &end, 10);
    if (end == ms_text || ms == 0)
        return 0;
    if (*end == '\0')
        return ms;
    if (std::strcmp(end, ":once") != 0)
        return 0;
    return claimOnce("stall", index) ? ms : 0;
}

} // namespace

int
workerMain(int read_fd, int write_fd, unsigned slot,
           std::uint64_t fault_epoch)
{
    // A foreground Ctrl-C signals the whole process group, workers
    // included. The coordinator owns drain policy — workers ignore
    // terminal signals so in-flight jobs finish and report, and exit
    // on link EOF (the coordinator closes the link to drain, and
    // SIGKILLs stragglers). A worker can never outlive its
    // coordinator: EOF on the transport is unfakeable. SIGPIPE is
    // ignored so a coordinator death during a frame write surfaces as
    // a structured broken-pipe transport error, not sudden worker
    // death.
    std::signal(SIGINT, SIG_IGN);
    std::signal(SIGTERM, SIG_IGN);
    std::signal(SIGPIPE, SIG_IGN);

    FramedLink link(read_fd, write_fd);
    link.enableFaults(chaos::transportChaosFromEnv(), LinkRole::Worker,
                      slot, fault_epoch);

    // The heartbeat thread and the job loop share the link; frames
    // must not interleave.
    std::mutex send_mutex;
    const auto send = [&](MsgType type, const std::string &payload) {
        std::lock_guard<std::mutex> lock(send_mutex);
        return link.send(type, payload);
    };

    if (!send(MsgType::Hello, std::string(kHelloPayload)))
        return 1;

    std::atomic<bool> stop{false};
    std::atomic<bool> mute{false};  // Hang knob: simulate a wedged
                                    // worker by silencing heartbeats.
    std::atomic<bool> busy{false};
    std::thread heartbeat([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            if (!mute.load(std::memory_order_relaxed)) {
                WireHeartbeat beat;
                beat.busy = busy.load(std::memory_order_relaxed);
                // No result of this worker can land any more. Exit 0
                // now: a launcher shell then exits too, and the
                // coordinator sees EOF, not a heartbeat timeout.
                if (!send(MsgType::Heartbeat, encodeHeartbeat(beat)))
                    ::_exit(0);
            }
            std::this_thread::sleep_for(
                std::chrono::milliseconds(200));
        }
    });

    int exit_code = 0;
    Frame frame;
    for (;;) {
        if (!link.readBlocking(frame))
            break;  // Drained, or the coordinator is gone.
        if (frame.type != MsgType::Job)
            continue;

        WireJob wire;
        if (!decodeJob(frame.payload, wire)) {
            std::fprintf(stderr,
                         "bingo_worker[%u]: undecodable job frame\n",
                         slot);
            exit_code = 2;
            break;
        }

        // Stall knob: sit on the job while heartbeats still say idle,
        // as if the Job frame were stuck in a transit queue. The
        // coordinator revokes the lease and re-dispatches; this worker
        // then runs the job anyway and its late result must be dropped
        // as stale — the at-most-once-commit test.
        if (const std::uint64_t stall_ms =
                stallKnobMs(wire.index);
            stall_ms > 0) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(stall_ms));
        }

        busy.store(true, std::memory_order_relaxed);

        WireResult result;
        result.index = wire.index;
        result.lease = wire.lease;

        // Build-skew guard: the fingerprint and the wire format share
        // one field list (visitConfigFields), so a mismatch here means
        // a coordinator and a worker from different builds — fail the
        // job loudly instead of silently simulating the wrong machine.
        const std::string derived = jobFingerprint(wire.job);
        if (derived != wire.fingerprint) {
            result.status = JobStatus::Failed;
            result.error =
                "job fingerprint drift: coordinator sent " +
                wire.fingerprint + ", worker derived " + derived +
                " — coordinator and worker builds differ";
            const bool sent =
                send(MsgType::Result, encodeResult(result));
            busy.store(false, std::memory_order_relaxed);
            if (!sent)
                break;
            continue;
        }

        if (knobFires("BINGO_DIST_TEST_CRASH_JOB", wire.index, "crash")) {
            ::raise(SIGKILL);  // Indistinguishable from kill -9.
        }
        if (knobFires("BINGO_DIST_TEST_HANG_JOB", wire.index, "hang")) {
            mute.store(true, std::memory_order_relaxed);
            for (;;)
                ::pause();  // Until the coordinator loses patience.
        }

        const std::uint64_t runs_before = completedRuns();
        const std::uint64_t cycles_before = simulatedCycles();
        RunResult run;
        const JobOutcome outcome =
            runSingleJob(wire.job, wire.index, run);
        result.status = outcome.status;
        result.attempts = outcome.attempts;
        result.wall_seconds = outcome.wall_seconds;
        result.error = outcome.error;
        result.runs = completedRuns() - runs_before;
        result.cycles = simulatedCycles() - cycles_before;
        if (outcome.ok())
            result.record = journalEncode(wire.fingerprint, run);
        const bool sent = send(MsgType::Result, encodeResult(result));
        busy.store(false, std::memory_order_relaxed);
        if (!sent)
            break;
    }

    stop.store(true, std::memory_order_relaxed);
    heartbeat.join();
    return exit_code;
}

} // namespace dist
} // namespace bingo
