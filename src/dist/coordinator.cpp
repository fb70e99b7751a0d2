#include "dist/coordinator.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "dist/protocol.hpp"
#include "dist/supervisor.hpp"
#include "sim/journal.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"

namespace bingo
{
namespace dist
{

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * Ignore SIGPIPE for the coordinator's lifetime in this function
 * (restoring the previous disposition on exit): a worker that dies
 * while the coordinator writes to it must surface as a structured
 * broken-pipe transport error from the FramedLink, never kill the
 * coordinator — the coordinator outliving its workers is the whole
 * point of supervision. (Plain pipes have no MSG_NOSIGNAL.)
 */
class ScopedSigpipeIgnore
{
  public:
    ScopedSigpipeIgnore() { prev_ = std::signal(SIGPIPE, SIG_IGN); }
    ~ScopedSigpipeIgnore()
    {
        if (prev_ != SIG_ERR)
            std::signal(SIGPIPE, prev_);
    }

  private:
    using Handler = void (*)(int);
    Handler prev_ = SIG_ERR;
};

/** One sweep job's dispatch state. */
struct Item
{
    enum class State
    {
        Pending,   ///< Waiting for a worker (possibly in backoff).
        InFlight,  ///< Dispatched, result outstanding.
        Done,      ///< Result received, or terminally resolved.
    };

    std::size_t job = 0;  ///< Into `jobs`; also its wire index.
    std::string fingerprint;

    State state = State::Pending;
    Clock::time_point not_before{};  ///< Re-dispatch backoff gate.
    unsigned kills = 0;       ///< Consecutive workers this item killed.
    /// Requeues that were not the job's doing — lease revocations and
    /// links that failed under a live worker (backoff ladder).
    unsigned requeues = 0;
    /// At-most-once-commit guard: bumped at every dispatch, echoed by
    /// the worker, checked on receipt. A stalled worker that resurfaces
    /// after its job was re-dispatched holds an old lease and its
    /// result is dropped as stale.
    std::uint64_t lease = 0;
    bool have_result = false;
    bool poisoned = false;
    bool interrupted = false;
    WireResult result;
    /// The simulated result, decoded from `result.record` on receipt
    /// (or run in-process by the fallback); valid when `have_run`.
    RunResult run;
    bool have_run = false;
};

/** One worker slot: the process (when alive) plus respawn state. */
struct Slot
{
    WorkerProc proc;
    Clock::time_point respawn_at{};
    bool exhausted = false;  ///< Respawn budget spent.
};

constexpr std::size_t kNoItem = static_cast<std::size_t>(-1);

/** Why the coordinator gives up on a worker. */
enum class Loss
{
    LinkEnded,  ///< EOF, broken pipe, bad header: crash or link failure.
    Hung,       ///< Heartbeat timeout or job deadline.
};

/** How long a worker whose link is gone may take to exit by itself:
 *  one heartbeat period (its heartbeat thread joins) plus margin. */
constexpr std::chrono::milliseconds kExitGrace{500};

/** transport_health.json body for `report`. */
std::string
transportHealthJson(const DistReport &report)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"workers_spawned\": " << report.workers_spawned << ",\n"
        << "  \"workers_lost\": " << report.workers_lost << ",\n"
        << "  \"reconnects\": " << report.reconnects << ",\n"
        << "  \"redispatched\": " << report.redispatched << ",\n"
        << "  \"poisoned\": " << report.poisoned << ",\n"
        << "  \"fallback_jobs\": " << report.fallback_jobs << ",\n"
        << "  \"injected_faults\": " << report.injected_faults << ",\n"
        << "  \"leases_revoked\": " << report.leases_revoked << ",\n"
        << "  \"stale_results_dropped\": "
        << report.stale_results_dropped << "\n"
        << "}\n";
    return out.str();
}

} // namespace

bool
runSweepDistributed(const std::vector<SweepJob> &jobs,
                    const std::vector<std::size_t> &pending,
                    std::vector<JobOutcome> &outcomes,
                    unsigned num_workers, DistReport *report)
{
    const std::vector<std::string> hosts = sweepDistHosts();
    const std::string binary = workerBinaryPath();
    if (hosts.empty() && binary.empty()) {
        std::fprintf(
            stderr,
            "bingo: distributed sweep requested but no bingo_worker "
            "binary found (set BINGO_WORKER_BIN or build the "
            "bingo_worker target) and BINGO_DIST_HOSTS is empty; "
            "running in-process instead\n");
        return false;
    }
    if (pending.empty())
        return true;

    if (num_workers == 0)
        num_workers = sweepDistWorkers();
    if (num_workers == 0 && !hosts.empty())
        num_workers = static_cast<unsigned>(
            std::min<std::size_t>(hosts.size(), 256));
    num_workers = std::max(1u, num_workers);

    const std::string journal_dir = sweepJournalDir();
    // Slots cycle over the host templates; with no hosts every slot
    // execs the local worker binary.
    const auto hostFor = [&](unsigned slot) -> const std::string * {
        if (hosts.empty())
            return nullptr;
        return &hosts[slot % hosts.size()];
    };

    const double heartbeat_timeout =
        envSeconds("BINGO_DIST_HEARTBEAT_S", 5.0);
    const double job_deadline =
        envSeconds("BINGO_DIST_JOB_TIMEOUT_S", 0.0);
    const double redispatch_grace =
        envSeconds("BINGO_DIST_REDISPATCH_S", 2.0);
    const unsigned poison_kills = static_cast<unsigned>(std::max<
        std::uint64_t>(1, envU64("BINGO_DIST_POISON_KILLS", 2)));
    const unsigned max_respawns = static_cast<unsigned>(
        std::min<std::uint64_t>(envU64("BINGO_DIST_MAX_RESPAWNS", 5),
                                1000));

    DistReport stats;

    // Results name jobs by wire index, the job index; in_flight alone
    // cannot identify a late (stale-lease) result's item.
    std::vector<Item> items(pending.size());
    std::map<std::uint64_t, std::size_t> item_by_wire;
    for (std::size_t k = 0; k < pending.size(); ++k) {
        items[k].job = pending[k];
        items[k].fingerprint = jobFingerprint(jobs[pending[k]]);
        item_by_wire.emplace(pending[k], k);
    }

    std::printf("Distributed sweep: %llu job(s) across %u worker "
                "process(es)%s\n",
                static_cast<unsigned long long>(pending.size()),
                num_workers,
                hosts.empty() ? "" : " via BINGO_DIST_HOSTS");

    ScopedSweepSignals signal_guard;
    ScopedSigpipeIgnore sigpipe_guard;

    const auto spawnSlot = [&](Slot &slot) {
        const unsigned s = slot.proc.slot;
        return spawnWorker(binary, hostFor(s), s, slot.proc);
    };

    std::vector<Slot> slots(num_workers);
    for (unsigned s = 0; s < num_workers; ++s) {
        slots[s].proc.slot = s;
        if (spawnSlot(slots[s]))
            ++stats.workers_spawned;
        else
            slots[s].respawn_at = Clock::now();
    }

    std::uint64_t total_runs = 0;
    std::uint64_t total_cycles = 0;

    // Fold a link's fault count into the sweep report. Called exactly
    // once per link instance: right before every stopWorker (which
    // resets the link); on a link-less slot it is a no-op.
    const auto absorbLinkFaults = [&](Slot &slot) {
        if (slot.proc.link)
            stats.injected_faults += slot.proc.link->injectedFaults();
    };

    const auto finalizePoison = [&](Item &item, const char *reason) {
        item.state = Item::State::Done;
        item.poisoned = true;
        ++stats.poisoned;
        std::fprintf(stderr,
                     "bingo: job %llu (%s) quarantined as POISON after "
                     "killing %u consecutive worker(s) (last: %s); "
                     "sweep continues without it\n",
                     static_cast<unsigned long long>(item.job),
                     jobs[item.job].workload.c_str(), item.kills, reason);
    };

    // Only a crash or a hang is the in-flight job's doing and counts
    // toward its quarantine. A link that failed while its worker lived
    // (a severed pipe, or a clean exit after a failed send) costs the
    // job a retry, never a poison strike.
    const auto workerDied = [&](Slot &slot, const char *reason,
                                Loss loss) {
        if (!slot.proc.alive() && !slot.proc.link)
            return;
        const unsigned s = slot.proc.slot;
        absorbLinkFaults(slot);
        const bool hung = loss == Loss::Hung;
        const bool crashed =
            stopWorker(slot.proc,
                       hung ? std::chrono::milliseconds{} : kExitGrace) ||
            hung;
        ++stats.workers_lost;
        if (slot.proc.in_flight != WorkerProc::kIdle) {
            Item &item = items[slot.proc.in_flight];
            slot.proc.in_flight = WorkerProc::kIdle;
            if (item.state == Item::State::InFlight) {
                if (crashed)
                    ++item.kills;
                if (item.kills >= poison_kills) {
                    finalizePoison(item, reason);
                } else {
                    item.state = Item::State::Pending;
                    item.not_before =
                        Clock::now() +
                        std::chrono::milliseconds(retryBackoffMs(
                            item.job,
                            crashed ? item.kills : ++item.requeues));
                    ++stats.redispatched;
                    std::fprintf(
                        stderr,
                        "bingo: worker w%u lost (%s); re-dispatching "
                        "job %llu\n",
                        s, reason,
                        static_cast<unsigned long long>(
                            item.job));
                }
            }
        } else {
            std::fprintf(stderr, "bingo: worker w%u lost (%s)\n", s,
                         reason);
        }
        if (slot.proc.spawn_count >= 1 + max_respawns) {
            slot.exhausted = true;
        } else {
            slot.respawn_at =
                Clock::now() +
                std::chrono::milliseconds(
                    retryBackoffMs(s, slot.proc.spawn_count));
        }
    };

    const auto handleFrame = [&](Slot &slot, const Frame &frame) {
        slot.proc.last_heard = Clock::now();
        switch (frame.type) {
        case MsgType::Hello:
            slot.proc.said_hello = frame.payload == kHelloPayload;
            break;
        case MsgType::Heartbeat: {
            WireHeartbeat beat;
            if (!decodeHeartbeat(frame.payload, beat))
                break;
            slot.proc.busy_hint = beat.busy;
            // Reconciliation: the worker says idle but the coordinator
            // believes it busy — the Job frame is stalled in a slow hop
            // past the grace. Revoke the lease and requeue; if the
            // worker later resurfaces with the old lease, its result
            // is stale.
            if (!beat.busy &&
                slot.proc.in_flight != WorkerProc::kIdle) {
                const double waited =
                    std::chrono::duration<double>(
                        Clock::now() - slot.proc.job_start)
                        .count();
                if (waited <= redispatch_grace)
                    break;
                Item &item = items[slot.proc.in_flight];
                slot.proc.in_flight = WorkerProc::kIdle;
                if (item.state != Item::State::InFlight)
                    break;
                item.state = Item::State::Pending;
                item.not_before =
                    Clock::now() +
                    std::chrono::milliseconds(retryBackoffMs(
                        item.job, ++item.requeues));
                ++stats.leases_revoked;
                ++stats.redispatched;
                std::fprintf(
                    stderr,
                    "bingo: worker w%u reports idle while job %llu "
                    "was believed in flight; revoking lease %llu and "
                    "re-dispatching\n",
                    slot.proc.slot,
                    static_cast<unsigned long long>(item.job),
                    static_cast<unsigned long long>(item.lease));
            }
            break;
        }
        case MsgType::Result: {
            WireResult result;
            if (!decodeResult(frame.payload, result))
                break;
            const auto found = item_by_wire.find(result.index);
            if (found == item_by_wire.end())
                break;
            Item &item = items[found->second];
            // The worker really did simulate, whatever we decide about
            // the commit — keep the throughput accounting honest.
            total_runs += result.runs;
            total_cycles += result.cycles;
            if (item.state != Item::State::InFlight ||
                result.lease != item.lease) {
                // Do NOT free the slot here: a stale result means the
                // worker is draining a backlog of superseded Job
                // frames, and its *current* lease (possibly on this
                // very item) is still outstanding. Freeing it would
                // orphan that dispatch — an item stuck InFlight with
                // no slot owning it — if the worker then dies before
                // the live result arrives. The slot frees on the
                // accepted result, or via idle-heartbeat revocation.
                ++stats.stale_results_dropped;
                std::fprintf(
                    stderr,
                    "bingo: dropping stale result for job %llu "
                    "(lease %llu, current %llu) — already "
                    "re-dispatched\n",
                    static_cast<unsigned long long>(result.index),
                    static_cast<unsigned long long>(result.lease),
                    static_cast<unsigned long long>(item.lease));
                break;
            }
            // Accepted: only the slot holding the current lease can
            // have delivered it (leases are echoed from Job frames).
            if (slot.proc.in_flight == found->second) {
                slot.proc.in_flight = WorkerProc::kIdle;
                slot.proc.busy_hint = false;
            }
            item.result = std::move(result);
            item.have_result = true;
            item.state = Item::State::Done;
            item.kills = 0;
            if (item.result.record.empty())
                break;  // The job failed on the worker: nothing to commit.
            // Decode once: journalEncode(journalDecode(record)) is the
            // record byte for byte, so the commit matches the worker's
            // encoding and a single-process journal.
            if (!journalDecode(item.result.record, item.fingerprint,
                               item.run)) {
                item.result.status = JobStatus::Failed;
                item.result.error = "distributed sweep: undecodable "
                                    "result record from worker";
                break;
            }
            item.have_run = true;
            journalCommit(journal_dir, item.fingerprint, item.run);
            break;
        }
        default:
            break;
        }
    };

    // --- Supervision loop: poll, reap, requeue, dispatch.
    for (;;) {
        bool progress = false;

        for (Slot &slot : slots) {
            if (!slot.proc.alive() || !slot.proc.link)
                continue;
            std::vector<Frame> frames;
            const bool still_open = slot.proc.link->poll(frames);
            progress |= !frames.empty();
            for (const Frame &frame : frames)
                handleFrame(slot, frame);
            if (!still_open) {
                // Copy: workerDied tears the link (and its error
                // string) down before printing the reason.
                const std::string why =
                    slot.proc.link->error().empty()
                        ? "process exited"
                        : slot.proc.link->error();
                workerDied(slot, why.c_str(), Loss::LinkEnded);
            }
        }

        const auto now = Clock::now();
        for (Slot &slot : slots) {
            if (!slot.proc.alive())
                continue;
            const double silent =
                std::chrono::duration<double>(now -
                                              slot.proc.last_heard)
                    .count();
            if (silent > heartbeat_timeout) {
                workerDied(slot, "heartbeat timeout", Loss::Hung);
                continue;
            }
            if (job_deadline > 0.0 && !slot.proc.idle()) {
                const double running =
                    std::chrono::duration<double>(now -
                                                  slot.proc.job_start)
                        .count();
                if (running > job_deadline)
                    workerDied(slot, "job deadline exceeded",
                               Loss::Hung);
            }
        }

        // A signal stops dispatch: everything not yet in flight is
        // resolved as interrupted; in-flight jobs drain below.
        if (sweepInterrupted()) {
            for (Item &item : items) {
                if (item.state == Item::State::Pending) {
                    item.state = Item::State::Done;
                    item.interrupted = true;
                }
            }
        }

        std::size_t open_items = 0;
        bool any_in_flight = false;
        for (const Item &item : items) {
            if (item.state == Item::State::Pending)
                ++open_items;
            else if (item.state == Item::State::InFlight)
                any_in_flight = true;
        }
        if (open_items == 0 && !any_in_flight)
            break;

        // Respawn lost slots while there is still work to hand them.
        if (open_items > 0 && !sweepInterrupted()) {
            for (Slot &slot : slots) {
                if (slot.proc.alive() || slot.exhausted ||
                    now < slot.respawn_at)
                    continue;
                const bool respawn = slot.proc.spawn_count > 0;
                if (spawnSlot(slot)) {
                    ++stats.workers_spawned;
                    if (respawn)
                        ++stats.reconnects;
                    progress = true;
                } else {
                    // fork/pipe failure is systemic, not a flaky
                    // worker — don't spin on it.
                    slot.exhausted = true;
                }
            }
        }

        // Dispatch pending items to idle workers.
        for (Slot &slot : slots) {
            if (!slot.proc.alive() || !slot.proc.said_hello ||
                !slot.proc.idle() || slot.proc.busy_hint ||
                sweepInterrupted())
                continue;
            Item *next = nullptr;
            std::size_t next_id = kNoItem;
            for (std::size_t k = 0; k < items.size(); ++k) {
                Item &item = items[k];
                if (item.state == Item::State::Pending &&
                    now >= item.not_before) {
                    next = &item;
                    next_id = k;
                    break;
                }
            }
            if (next == nullptr)
                continue;
            WireJob wire;
            wire.index = next->job;
            wire.lease = ++next->lease;
            wire.fingerprint = next->fingerprint;
            wire.job = jobs[next->job];
            if (!slot.proc.link ||
                !slot.proc.link->send(MsgType::Job, encodeJob(wire))) {
                workerDied(slot, "send failed", Loss::LinkEnded);
                continue;
            }
            next->state = Item::State::InFlight;
            slot.proc.in_flight = next_id;
            slot.proc.job_start = Clock::now();
            slot.proc.busy_hint = true;  // Optimistic until the next
                                         // heartbeat confirms.
            progress = true;
        }

        // Every slot dead and unrespawnable with work left: run the
        // remainder in-process. The sweep survives its whole fleet.
        const bool any_usable = std::any_of(
            slots.begin(), slots.end(), [](const Slot &slot) {
                return slot.proc.alive() || !slot.exhausted;
            });
        if (!any_usable && open_items > 0) {
            std::fprintf(stderr,
                         "bingo: all %u worker slot(s) exhausted; "
                         "running %llu remaining job(s) in-process\n",
                         num_workers,
                         static_cast<unsigned long long>(open_items));
            for (Item &item : items) {
                if (item.state != Item::State::Pending)
                    continue;
                if (sweepInterrupted()) {
                    item.state = Item::State::Done;
                    item.interrupted = true;
                    continue;
                }
                const JobOutcome outcome =
                    runSingleJob(jobs[item.job], item.job, item.run);
                item.state = Item::State::Done;
                item.have_result = true;
                item.result.index = item.job;
                item.result.status = outcome.status;
                item.result.attempts = outcome.attempts;
                item.result.wall_seconds = outcome.wall_seconds;
                item.result.error = outcome.error;
                if (outcome.ok()) {
                    item.have_run = true;
                    journalCommit(journal_dir, item.fingerprint, item.run);
                }
                ++stats.fallback_jobs;
            }
            continue;  // Loop once more to settle bookkeeping.
        }

        if (!progress)
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
    }

    // --- Drain: EOF is a worker's order to exit. Close every link
    // first so the fleet exits in parallel, then reap it, SIGKILLing
    // stragglers.
    for (Slot &slot : slots) {
        absorbLinkFaults(slot);
        if (slot.proc.link)
            slot.proc.link->close();
    }
    for (Slot &slot : slots)
        stopWorker(slot.proc, kExitGrace);

    addExternalRunStats(total_runs, total_cycles);

    // --- Materialize outcomes.
    for (Item &item : items) {
        JobOutcome &outcome = outcomes[item.job];
        if (item.poisoned) {
            outcome.status = JobStatus::Failed;
            outcome.attempts = item.kills;
            outcome.error =
                "poison job: crashed or hung " +
                std::to_string(item.kills) +
                " consecutive worker process(es); quarantined "
                "(BINGO_DIST_POISON_KILLS)";
            continue;
        }
        if (item.interrupted) {
            outcome.status = JobStatus::Failed;
            outcome.attempts = 0;
            outcome.error =
                "sweep interrupted by signal before this job started "
                "(journaled jobs are kept; re-run to resume)";
            continue;
        }
        if (!item.have_result) {
            outcome.status = JobStatus::Failed;
            outcome.error = "distributed sweep: no result received";
            continue;
        }
        outcome.status = item.result.status;
        outcome.attempts = item.result.attempts;
        outcome.wall_seconds = item.result.wall_seconds;
        outcome.error = item.result.error;
        if (item.have_run)
            outcome.result = std::move(item.run);
    }

    if (stats.workers_lost > 0 || stats.poisoned > 0 ||
        stats.fallback_jobs > 0 || stats.leases_revoked > 0 ||
        stats.stale_results_dropped > 0) {
        std::printf(
            "Distributed sweep supervision: %u worker(s) lost, %llu "
            "job(s) re-dispatched, %llu lease(s) revoked, %llu stale "
            "result(s) dropped, %llu poison job(s), %llu job(s) "
            "completed in-process\n",
            stats.workers_lost,
            static_cast<unsigned long long>(stats.redispatched),
            static_cast<unsigned long long>(stats.leases_revoked),
            static_cast<unsigned long long>(
                stats.stale_results_dropped),
            static_cast<unsigned long long>(stats.poisoned),
            static_cast<unsigned long long>(stats.fallback_jobs));
    }

    // Transport health goes next to the telemetry exports, and only
    // where they go — never into the journal, whose contents must stay
    // a pure function of the job list so the byte-identity oracle holds
    // with and without transport chaos.
    if (const std::string dir = telemetry::outputDir(); !dir.empty()) {
        const std::filesystem::path health_path =
            std::filesystem::path(dir) / "transport_health.json";
        try {
            telemetry::atomicWrite(health_path,
                                   transportHealthJson(stats));
        } catch (const std::exception &e) {
            std::fprintf(stderr,
                         "bingo: cannot write %s: %s (continuing)\n",
                         health_path.string().c_str(), e.what());
        }
    }

    if (report != nullptr)
        *report = stats;
    return true;
}

} // namespace dist
} // namespace bingo
