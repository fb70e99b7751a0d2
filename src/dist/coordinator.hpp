/**
 * @file
 * Distributed sweep coordinator: spreads a sweep's pending jobs across
 * supervised bingo_worker OS processes (src/dist/worker.hpp) and
 * collects structured JobOutcomes, with the same journal semantics —
 * byte-identical — as the in-process runner.
 *
 * Entered transparently from runSweepOutcomes when BINGO_DIST_WORKERS
 * is nonzero or BINGO_DIST_HOSTS is set (experiment.cpp gates out
 * callers that pin a thread count or install a fault hook). The
 * coordinator:
 *  - fork/execs N workers, each speaking the protocol over its
 *    stdin/stdout pipes: local slots exec the bingo_worker binary
 *    directly, and with BINGO_DIST_HOSTS slots cycle over its command
 *    templates (typically ssh), run through `/bin/sh -c`;
 *  - streams jobs over the FramedLink protocol (dist/transport.hpp:
 *    typed, length-prefixed frames, and the `transport` chaos site's
 *    deterministic severs) and supervises with heartbeats
 *    (BINGO_DIST_HEARTBEAT_S, default 5 s of silence = dead) and a
 *    hard per-job deadline (BINGO_DIST_JOB_TIMEOUT_S = SIGKILL
 *    backstop; the inherited BINGO_JOB_TIMEOUT_S in-worker watchdog
 *    should fire first and fail the job gracefully);
 *  - guards every dispatch with a lease token: each (re-)dispatch of
 *    an item bumps its lease, the worker echoes the lease in its
 *    result, and a result whose lease is not the item's current one is
 *    dropped as stale. This makes job commits at-most-once even when a
 *    stalled worker resurfaces after its job was re-dispatched;
 *  - detects *delayed* Job frames (not just dead workers) by
 *    reconciling heartbeats: a worker that reports idle while the
 *    coordinator believes it busy for longer than
 *    BINGO_DIST_REDISPATCH_S (default 2 s) has its lease revoked and
 *    the job requeued with the deterministic retryBackoffMs delay;
 *  - re-dispatches a dead/hung worker's in-flight job to survivors and
 *    respawns the lost slot (up to BINGO_DIST_MAX_RESPAWNS times,
 *    backed off likewise; each respawn re-seeds the slot's transport
 *    fault stream so a deterministic first-frame fault cannot repeat
 *    forever);
 *  - quarantines a job that kills BINGO_DIST_POISON_KILLS consecutive
 *    workers (default 2; by a crash or hang, not a link lost under a
 *    live worker) as a poison job: reported Failed, the sweep goes on;
 *  - is the sweep's only journal writer: it decodes each accepted
 *    result's record once and commits it with journalStore on
 *    receipt, exactly as the in-process runner does, so the journal
 *    is byte-identical to a single-process run of the same jobs
 *    (journalEncode is the only record serializer, it round-trips
 *    through journalDecode, and simulations are deterministic). A
 *    coordinator kill -9 loses at most the one in-flight job per
 *    worker, which re-simulates when the original driver is rerun on
 *    the same BINGO_JOURNAL_DIR;
 *  - drains gracefully on SIGINT/SIGTERM (and ignores SIGPIPE for the
 *    duration, so a worker dying mid-write surfaces as a structured
 *    transport error): no new dispatches, in-flight jobs finish and
 *    commit, undispatched jobs report "sweep interrupted" so the
 *    sweep resumes from the journal;
 *  - falls back to in-process execution of whatever remains if every
 *    worker slot is exhausted — a sweep never dies just because its
 *    workers did; and
 *  - writes the transport-health counters (reconnects, injected
 *    faults, leases revoked, stale results dropped) to
 *    `transport_health.json` in BINGO_TELEMETRY_DIR when that is set —
 *    never into the journal, whose contents must stay a pure function
 *    of the job list.
 */

#ifndef BINGO_DIST_COORDINATOR_HPP
#define BINGO_DIST_COORDINATOR_HPP

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/experiment.hpp"

namespace bingo
{
namespace dist
{

/** What supervision had to do during a distributed sweep (for tests,
 *  the end-of-sweep summary line, and transport_health.json). */
struct DistReport
{
    unsigned workers_spawned = 0;   ///< fork/execs, including respawns.
    unsigned workers_lost = 0;      ///< Deaths observed (crash, hang
                                    ///< kill, deadline kill).
    std::size_t redispatched = 0;   ///< Jobs requeued (worker death or
                                    ///< lease revocation).
    std::size_t poisoned = 0;       ///< Jobs quarantined as poison.
    std::size_t fallback_jobs = 0;  ///< Jobs run in-process after all
                                    ///< worker slots were exhausted.

    // Transport health (aggregated from every worker link plus the
    // coordinator's own bookkeeping).
    std::uint64_t reconnects = 0;   ///< Respawns of a previously-live
                                    ///< slot (link re-established).
    std::uint64_t injected_faults = 0;  ///< Chaos draws that fired.
    std::uint64_t leases_revoked = 0;   ///< Idle-heartbeat revocations.
    std::uint64_t stale_results_dropped = 0;  ///< Results with an
                                    ///< outdated lease (not committed).
};

/**
 * Run jobs[pending...] across worker processes, in `pending` order,
 * filling outcomes[i] for each pending i (other entries are untouched
 * — the caller already resolved them from the journal). A job's index
 * is its wire index. Every job is an ordinary job here: the baselines
 * a sweep requests arrive as jobs appended by runSweepOutcomes.
 * `num_workers` 0 means sweepDistWorkers(), or the BINGO_DIST_HOSTS
 * host count when that is the only configuration given.
 *
 * Returns false — with outcomes untouched — when no workers can be
 * launched (no BINGO_DIST_HOSTS and the bingo_worker binary cannot be
 * located via $BINGO_WORKER_BIN or next to the current executable);
 * the caller then runs in-process as if distribution were never
 * requested.
 */
bool runSweepDistributed(const std::vector<SweepJob> &jobs,
                         const std::vector<std::size_t> &pending,
                         std::vector<JobOutcome> &outcomes,
                         unsigned num_workers = 0,
                         DistReport *report = nullptr);

} // namespace dist
} // namespace bingo

#endif // BINGO_DIST_COORDINATOR_HPP
