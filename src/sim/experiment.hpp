/**
 * @file
 * Experiment runner shared by the benches: builds a System for a
 * (workload, config) pair, runs warmup + measurement, and memoizes
 * no-prefetcher baselines so each bench pays for them once. A sweep
 * runs the baselines its jobs request (compare_baseline) as ordinary
 * jobs of its own, and baselineFor() then reads them from the memo.
 *
 * Sweeps (the figure benches' workload x prefetcher x config grids)
 * run through runSweep(), which fans the independent simulations
 * across a thread pool. Every run is deterministic and isolated in its
 * own System, so results are bit-identical at any thread count; they
 * are returned in job order regardless of completion order.
 *
 * Instruction counts default to values that complete a full figure
 * sweep in minutes; override with the environment variables
 * BINGO_WARMUP_INSTRS and BINGO_MEASURE_INSTRS for higher fidelity.
 * BINGO_JOBS sets the sweep thread count (default: all hardware
 * threads; 1 restores fully serial execution).
 *
 * Fault tolerance: the *Outcomes entry points isolate per-job
 * failures — one simulation throwing no longer aborts the sweep.
 * Failing jobs are retried up to BINGO_RETRIES times with bounded
 * backoff; a terminally failed job is reported as a structured
 * JobOutcome and the bench renders a partial table with the failure
 * marked. BINGO_JOB_TIMEOUT_S arms a per-job watchdog that converts a
 * hung simulation into a reported failure instead of wedging its
 * worker. BINGO_JOURNAL_DIR enables the crash-safe result journal:
 * completed jobs persist as they finish and a re-run resumes from the
 * journal, bit-identically (see sim/journal.hpp).
 */

#ifndef BINGO_SIM_EXPERIMENT_HPP
#define BINGO_SIM_EXPERIMENT_HPP

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "sim/metrics.hpp"

namespace bingo
{

/** Per-run simulation lengths. */
struct ExperimentOptions
{
    std::uint64_t warmup_instructions = 5000 * 1000;
    std::uint64_t measure_instructions = 2000 * 1000;
    std::uint64_t seed = 42;
};

/** Default options, honouring the BINGO_* environment overrides. */
ExperimentOptions defaultOptions();

/** Run `workload` under `config` and collect the result. */
RunResult runWorkload(const std::string &workload,
                      const SystemConfig &config,
                      const ExperimentOptions &options);

/**
 * Memoized no-prefetcher baseline for `workload` under `config` with
 * its prefetcher reset to the default, keyed by that job's
 * jobFingerprint — so by every substrate field (cores, caches, DRAM)
 * and the options. Safe to call from concurrent threads: a missing
 * entry is computed once, through the journal and runSingleJob like
 * any sweep job, while other callers block until it is ready. Throws
 * the job's last failure when it cannot be computed.
 */
const RunResult &baselineFor(const std::string &workload,
                             SystemConfig config,
                             const ExperimentOptions &options);

/**
 * baselineFor for fault-tolerant benches: nullptr instead of a throw
 * when the baseline cannot be computed, so the rows that depend on it
 * render as failures while the rest of the table survives.
 */
const RunResult *tryBaselineFor(const std::string &workload,
                                const SystemConfig &config,
                                const ExperimentOptions &options);

/** One independent simulation of a sweep. */
struct SweepJob
{
    std::string workload;
    SystemConfig config;
    ExperimentOptions options;

    /**
     * Have runSweepOutcomes also run baselineFor(workload,
     * SystemConfig{}, options) as a job of the sweep, so a bench
     * comparing against baselines computes them in parallel too,
     * instead of serially on first use. Not part of the job's
     * identity: it changes what else the sweep runs.
     */
    bool compare_baseline = false;
};

/**
 * Sweep thread count: BINGO_JOBS if it is a positive integer,
 * otherwise std::thread::hardware_concurrency(). A sweep never starts
 * more threads than it has jobs and baselines to run.
 */
unsigned sweepJobCount();

/**
 * Distributed worker-process count: BINGO_DIST_WORKERS (0 = off).
 * When nonzero, runSweepOutcomes dispatches jobs to bingo_worker
 * processes through the src/dist coordinator instead of in-process
 * threads (see dist/coordinator.hpp for the full contract).
 */
unsigned sweepDistWorkers();

/** Extra attempts per failing job: BINGO_RETRIES (default 1). */
unsigned sweepRetries();

/**
 * Backoff before retry `attempt` (numbered from 1) of job `job_index`:
 * a bounded exponential base of 10 ms doubling per attempt, capped at
 * 500 ms, jittered into [base/2, base] by a splitmix64 draw seeded
 * from (job_index, attempt). The jitter de-synchronizes workers that
 * fail simultaneously (thundering-herd avoidance) while staying fully
 * deterministic: the same job and attempt always wait the same time.
 * Pure function, exposed for direct unit testing; the sweep runner and
 * the distributed supervisor both sleep exactly this value.
 */
unsigned retryBackoffMs(std::size_t job_index, unsigned attempt);

/**
 * Per-job watchdog deadline in seconds: BINGO_JOB_TIMEOUT_S, a finite
 * decimal ≥ 0 (default and 0 = disabled; anything else reads as the
 * default). Covers warmup + measurement of one job.
 */
double sweepJobTimeoutSeconds();

/** Journal directory: BINGO_JOURNAL_DIR ("" = journaling off). */
std::string sweepJournalDir();

/** How a sweep job ended. */
enum class JobStatus
{
    Ok,       ///< Simulated successfully (possibly after retries).
    Skipped,  ///< Result restored from the journal; not re-simulated.
    /// Completed with its prefetcher quarantined mid-run: the result
    /// is valid (the run finished prefetcher-off from the quarantine
    /// cycle onward), but the cell must be marked DEGRADED rather
    /// than reported as a clean measurement.
    Degraded,
    Failed,   ///< Every attempt threw; see error/exception.
};

/** Structured outcome of one sweep job. */
struct JobOutcome
{
    JobStatus status = JobStatus::Failed;
    RunResult result;        ///< Valid when ok() on the runSweep path.
    /// what() of the last failing attempt; for Degraded jobs, the
    /// quarantine report.
    std::string error;
    unsigned attempts = 0;   ///< Attempts consumed (0 when Skipped).
    double wall_seconds = 0.0;  ///< Wall time across all attempts.
    std::exception_ptr exception;  ///< Last failure, for rethrowing.

    bool ok() const { return status != JobStatus::Failed; }
};

/**
 * Test seam: called before every attempt with (job index, attempt
 * number starting at 1). A throwing hook counts as that attempt
 * failing, exactly like the simulation itself throwing.
 */
using SweepFaultHook =
    std::function<void(std::size_t job_index, unsigned attempt)>;

/**
 * Fault-tolerant sweep: run every job across `num_threads` workers and
 * return a JobOutcome per job, in job order. A job that throws is
 * retried per BINGO_RETRIES and, if it keeps failing, reported in its
 * outcome while every other job still completes. With
 * BINGO_JOURNAL_DIR set, already-journaled jobs are skipped and
 * completed jobs are journaled as they finish. `num_threads` 0 means
 * sweepJobCount(); 1 runs serially on the calling thread. Jobs are
 * dispatched grouped by trace stream (workload, run lengths, seed),
 * and the trace cache keeps only the streams the sweep replays more
 * than once (see workload/trace_cache.hpp).
 *
 * Each distinct baseline that jobs with compare_baseline request, and
 * that this process has not memoized yet, runs as one more job: first
 * in its stream's group, resumed, journaled, retried, watchdogged and
 * dispatched like the others (also to workers). Its fault-hook index
 * follows the caller's jobs. A baseline that succeeds is memoized for
 * baselineFor(); the returned outcomes are the caller's jobs' only.
 */
std::vector<JobOutcome>
runSweepOutcomes(const std::vector<SweepJob> &jobs,
                 unsigned num_threads = 0,
                 const SweepFaultHook &fault_hook = {});

/**
 * Like runSweepOutcomes, but hands each finished System to
 * `collect(index, system)` instead of snapshotting a RunResult — for
 * benches that read observer state off the live System (Figs. 2 and
 * 4). `collect` is invoked from worker threads, concurrently for
 * distinct indices; it must only touch per-index state. Outcomes carry
 * status/error/attempts only (their `result` stays empty), and the
 * journal does not apply — observer state cannot be persisted. Runs
 * no baselines: compare_baseline is ignored here.
 */
std::vector<JobOutcome> runSweepSystemsOutcomes(
    const std::vector<SweepJob> &jobs,
    const std::function<void(std::size_t, System &)> &collect,
    unsigned num_threads = 0, const SweepFaultHook &fault_hook = {});

/**
 * Strict wrapper over runSweepOutcomes: returns the results in job
 * order, rethrowing the first failure (after its retries) like the
 * pre-fault-tolerance runner did.
 */
std::vector<RunResult> runSweep(const std::vector<SweepJob> &jobs,
                                unsigned num_threads = 0);

/** Strict wrapper over runSweepSystemsOutcomes; rethrows likewise. */
void runSweepSystems(
    const std::vector<SweepJob> &jobs,
    const std::function<void(std::size_t, System &)> &collect,
    unsigned num_threads = 0);

/**
 * Run one sweep job on the calling thread with the full retry/
 * timeout/chaos/telemetry treatment of a sweep worker, snapshotting
 * the RunResult into `result` on success (Ok or Degraded). Never
 * throws. This is the execution kernel shared by the in-process runner,
 * baselineFor() and the bingo_worker processes of the distributed
 * runner; it touches no journal — persistence is the caller's job.
 */
JobOutcome runSingleJob(const SweepJob &job, std::size_t index,
                        RunResult &result);

/**
 * Internal (distributed runner): fold simulations completed by worker
 * processes into this process's completedRuns()/simulatedCycles()
 * counters, so SweepTimer throughput lines and BENCH_*.json stay
 * meaningful under distributed dispatch.
 */
void addExternalRunStats(std::uint64_t runs, std::uint64_t cycles);

/**
 * True once the current sweep has received SIGINT or SIGTERM under a
 * ScopedSweepSignals guard. The runner then drains gracefully: no new
 * jobs are dispatched, in-flight jobs finish (or hit their watchdog
 * deadline) and journal as usual, and every undispatched job is
 * reported as Failed with a "sweep interrupted" error — so the partial
 * sweep is always resumable from BINGO_JOURNAL_DIR.
 */
bool sweepInterrupted();

/**
 * RAII SIGINT/SIGTERM handler installation for a graceful sweep drain.
 * The first signal sets the sweepInterrupted() flag; a second signal
 * restores the default disposition and re-raises, so an impatient
 * second Ctrl-C still kills the process immediately. Nests: only the
 * outermost guard installs/restores, which lets the distributed
 * coordinator and the in-process runner share one flag. Installed
 * automatically by runSweepOutcomes/runSweepSystemsOutcomes and the
 * coordinator; only standalone drivers need to construct one.
 */
class ScopedSweepSignals
{
  public:
    ScopedSweepSignals();
    ~ScopedSweepSignals();
    ScopedSweepSignals(const ScopedSweepSignals &) = delete;
    ScopedSweepSignals &operator=(const ScopedSweepSignals &) = delete;
};

/**
 * Print a table of the failed jobs of a sweep (workload, prefetcher,
 * attempts, error), a table of degraded jobs (quarantined prefetcher,
 * including journal-resumed results recorded as degraded), plus a
 * journal-resume summary when jobs were skipped. Prints nothing when
 * every job ran fresh and succeeded, so a clean sweep's output is
 * unchanged. Returns the failure count (degraded jobs are not
 * failures).
 */
std::size_t reportFailures(const std::vector<SweepJob> &jobs,
                           const std::vector<JobOutcome> &outcomes);

/**
 * Wall-clock + throughput reporter for a bench's sweeps. Construct at
 * bench start; report() prints one line with elapsed seconds, the
 * number of simulations finished process-wide since construction,
 * simulated-cycle throughput, and the thread count, e.g.
 *   "Sweep wall-clock: 12.3 s, 70 runs (5.7 runs/s,
 *    2.1e+09 simulated cycles/s, BINGO_JOBS=8)".
 * Passing a bench name additionally writes the same numbers as
 * machine-readable JSON to BENCH_<name>.json in the working directory
 * (atomic temp + rename, like every other artifact writer), so perf
 * regressions are diffable without scraping stdout.
 */
class SweepTimer
{
  public:
    SweepTimer();
    void report(const char *bench_json_name = nullptr) const;

  private:
    std::chrono::steady_clock::time_point start_;
    std::uint64_t runs_at_start_;
    std::uint64_t cycles_at_start_;
};

/**
 * Write BENCH_<bench>.json with a bench's wall-clock and throughput
 * figures (wall seconds, runs and runs/sec, simulated cycles and
 * cycles/sec, BINGO_JOBS). Used by SweepTimer::report and the main-loop
 * microbench; I/O failures are reported to stderr, never thrown.
 */
void writeBenchSummary(const std::string &bench, double wall_seconds,
                       std::uint64_t runs, std::uint64_t cycles);

/** Simulations finished so far in this process (all threads). */
std::uint64_t completedRuns();

/** Simulated cycles finished so far in this process (all threads). */
std::uint64_t simulatedCycles();

/** Print the Table I configuration header every bench starts with. */
void printConfigHeader(const SystemConfig &config);

} // namespace bingo

#endif // BINGO_SIM_EXPERIMENT_HPP
