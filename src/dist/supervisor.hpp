/**
 * @file
 * Worker-process mechanics for the distributed sweep runner: locating
 * the bingo_worker binary, spawning it — directly or through an
 * ssh-style command template — with its stdin/stdout piped to the
 * coordinator, and the per-worker supervision state the coordinator
 * tracks (liveness, heartbeats, the in-flight job, respawn counts).
 *
 * Policy — who to kill when, what counts as poison, how often to
 * respawn — lives in coordinator.cpp; this file is the mechanism.
 */

#ifndef BINGO_DIST_SUPERVISOR_HPP
#define BINGO_DIST_SUPERVISOR_HPP

#include <chrono>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include <sys/types.h>

#include "dist/protocol.hpp"
#include "dist/transport.hpp"

namespace bingo
{
namespace dist
{

/**
 * Path of the bingo_worker binary: $BINGO_WORKER_BIN if set, else a
 * few locations relative to the running executable (same directory,
 * sibling src/ directory — covering the build-tree layouts of the
 * benches, tests and examples). Empty string when none exists, which
 * makes the coordinator decline distribution and the sweep fall back
 * to the in-process runner (unless BINGO_DIST_HOSTS provides remote
 * workers, which need no local binary).
 */
std::string workerBinaryPath();

/**
 * Worker-launch command templates from BINGO_DIST_HOSTS: a
 * ';'-separated list of shell commands, each launching one
 * `bingo_worker --stdio` (typically through ssh). The coordinator
 * appends ` --stdio --slot <n> --fault-epoch <e>` and runs the result
 * via `/bin/sh -c` with the worker's stdin/stdout as the transport.
 * Empty entries are dropped; unset/empty env yields an empty list.
 */
std::vector<std::string> sweepDistHosts();

/** Supervision state of one worker process. */
struct WorkerProc
{
    pid_t pid = -1;
    /// Leads its own process group (BINGO_DIST_HOSTS workers): a kill
    /// reaches the whole group, so a worker forked by its template's
    /// shell dies with the shell.
    bool own_group = false;
    unsigned slot = 0;             ///< Stable worker slot (w<slot>).
    unsigned spawn_count = 0;      ///< Spawns consumed for this slot.
    bool said_hello = false;
    /// Worker's last self-reported state (heartbeat), plus an
    /// optimistic set on dispatch. A worker that claims idle while the
    /// coordinator believes it busy is how a Job frame delayed past
    /// the grace is detected (lease revocation).
    bool busy_hint = false;
    std::unique_ptr<FramedLink> link;

    /// Last frame (heartbeat or otherwise) received, for liveness.
    std::chrono::steady_clock::time_point last_heard{};
    /// When the in-flight job was dispatched (deadline base).
    std::chrono::steady_clock::time_point job_start{};
    /// Index into the sweep's item list, or npos when idle.
    std::size_t in_flight = static_cast<std::size_t>(-1);

    static constexpr std::size_t kIdle = static_cast<std::size_t>(-1);

    bool alive() const { return pid > 0; }
    bool idle() const { return in_flight == kIdle; }
};

/**
 * Fork/exec one `bingo_worker --stdio` for `slot` with its stdin and
 * stdout piped to the coordinator. With `host` null the worker binary
 * is exec'd directly as `<binary> --stdio --slot <n> --fault-epoch
 * <e>`, in the caller's process group; with a BINGO_DIST_HOSTS
 * template it runs as `/bin/sh -c "<host> --stdio --slot <n>
 * --fault-epoch <e>"` in a process group of its own, since the shell
 * may fork the command instead of exec'ing it. The epoch is the slot's
 * spawn number, so a respawn's transport-fault stream differs
 * from its predecessor's. On success fills pid and the FramedLink
 * (coordinator read end non-blocking; the worker reroutes its own
 * stdout chatter to stderr) and resets the liveness clocks. Returns
 * false when the pipes or fork fail.
 */
bool spawnWorker(const std::string &binary, const std::string *host,
                 unsigned slot, WorkerProc &out);

/**
 * Tear `worker` down — the single teardown path — and say whether its
 * process crashed. Drops the link first (EOF is a worker's order to
 * exit, and it exits 0), gives the process up to `grace` to exit by
 * itself, then SIGKILLs it (its whole process group, for a template
 * worker) and reaps it; leaves pid at -1, safe on a dead worker. True
 * when it died by a signal or exited nonzero before the SIGKILL.
 * Worker death is *detected* by the coordinator through link EOF
 * (which flushes any buffered final frames first) or a
 * heartbeat/deadline expiry, never by dropping the link early — a dead
 * worker's pipe may still hold its last `result`.
 */
bool stopWorker(WorkerProc &worker, std::chrono::milliseconds grace);

} // namespace dist
} // namespace bingo

#endif // BINGO_DIST_SUPERVISOR_HPP
