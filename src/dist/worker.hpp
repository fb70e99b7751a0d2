/**
 * @file
 * bingo_worker process body: receive serialized SweepJobs from the
 * coordinator over a FramedLink on the worker's stdin/stdout, simulate
 * them with the same runSingleJob() kernel the in-process runner uses,
 * and stream the outcomes (including the exact journal-record bytes and
 * the job's lease token) back. Workers never touch disk: the
 * coordinator journals each accepted result, so a worker may run on a
 * machine that shares no filesystem with it.
 *
 * Liveness: a dedicated heartbeat thread sends a frame every ~200 ms
 * even while a simulation runs — carrying the worker's busy/idle state
 * — so the coordinator can tell "slow job" from "hung worker" from
 * "job frame stalled in transit".
 * EOF on the link means the coordinator died; the worker exits instead
 * of simulating orphaned. A failed send means the coordinator can no
 * longer hear it; the worker exits 0 then too, which the coordinator
 * tells from a crash (a signal or a nonzero status) when it decides
 * whether the in-flight job counts toward poison quarantine.
 *
 * Test knobs (used by the crash-tolerance tests and the CI smoke job
 * to produce real worker deaths, equivalent to an external kill -9):
 *  - BINGO_DIST_TEST_CRASH_JOB=<index>[:once] — SIGKILL self when
 *    dispatched sweep job <index>.
 *  - BINGO_DIST_TEST_HANG_JOB=<index>[:once] — stop heartbeating and
 *    sleep forever when dispatched sweep job <index>.
 *  - BINGO_DIST_TEST_STALL_JOB=<index>:<ms>[:once] — sit on the job
 *    for <ms> milliseconds while heartbeating *idle* (modelling a Job
 *    frame delayed by a slow remote hop), then run it normally. The
 *    coordinator revokes the lease and re-dispatches; the stalled
 *    worker's late result must be dropped as stale — the lease-guard
 *    test.
 * With `:once` the knob fires only in the first worker process to draw
 * the job (an O_EXCL marker file in BINGO_DIST_TEST_DIR makes
 * respawned workers and re-dispatches proceed normally), turning
 * "poison job" into "transient crash". Without BINGO_DIST_TEST_DIR a
 * `:once` knob never fires.
 */

#ifndef BINGO_DIST_WORKER_HPP
#define BINGO_DIST_WORKER_HPP

#include <cstdint>

namespace bingo
{
namespace dist
{

/**
 * Run the worker protocol loop (blocking) as worker `slot`, reading
 * frames from `read_fd` and writing them to `write_fd` (both owned
 * from here on). `fault_epoch` seeds this process's transport-chaos
 * stream so respawns do not replay their predecessor's faults. Returns
 * the process exit code: 0 once the link closes or a send fails,
 * nonzero on protocol errors.
 */
int workerMain(int read_fd, int write_fd, unsigned slot,
               std::uint64_t fault_epoch);

} // namespace dist
} // namespace bingo

#endif // BINGO_DIST_WORKER_HPP
