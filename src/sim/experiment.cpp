#include "sim/experiment.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>

#include <unistd.h>

#include "chaos/chaos.hpp"
#include "common/env.hpp"
#include "common/hash.hpp"
#include "dist/coordinator.hpp"
#include "dist/supervisor.hpp"
#include "sim/journal.hpp"
#include "sim/report.hpp"
#include "sim/thread_pool.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/trace_cache.hpp"

namespace bingo
{

namespace
{

std::atomic<std::uint64_t> g_completed_runs{0};
std::atomic<std::uint64_t> g_simulated_cycles{0};

/**
 * The config a run's System is built from: the run's seed, plus the
 * BINGO_CHAOS spec unless the config sets chaos itself.
 */
SystemConfig
runConfig(SystemConfig config, const ExperimentOptions &options)
{
    config.seed = options.seed;
    chaos::applyEnvChaos(config);
    return config;
}

/** The no-prefetcher baseline job of `workload` on `config`'s
 *  substrate (everything but the prefetcher). */
SweepJob
baselineJob(const std::string &workload, SystemConfig config,
            const ExperimentOptions &options)
{
    config.prefetcher = PrefetcherConfig{};
    return {workload, std::move(config), options};
}

/** Jobs that replay the same trace streams: workload, run lengths and
 *  seed. A job's baseline shares its key. */
using StreamKey =
    std::tuple<std::string, std::uint64_t, std::uint64_t, std::uint64_t>;

StreamKey
streamOf(const SweepJob &job)
{
    return {job.workload, job.options.warmup_instructions,
            job.options.measure_instructions, job.options.seed};
}

struct BaselineSlot
{
    bool ready = false;
    RunResult result;
};

// Memoized baselines, keyed by the jobFingerprint of their job.
std::mutex g_baseline_mutex;
std::condition_variable g_baseline_cv;
std::map<std::string, BaselineSlot> g_baseline_cache;

bool
baselineMemoized(const std::string &fingerprint)
{
    std::lock_guard<std::mutex> lock(g_baseline_mutex);
    const auto it = g_baseline_cache.find(fingerprint);
    return it != g_baseline_cache.end() && it->second.ready;
}

/** Publish a baseline's result; an entry already ready is kept, since
 *  callers may hold references to it. */
const RunResult &
memoizeBaseline(const std::string &fingerprint, RunResult result)
{
    std::lock_guard<std::mutex> lock(g_baseline_mutex);
    BaselineSlot &slot = g_baseline_cache[fingerprint];
    if (!slot.ready) {
        slot.result = std::move(result);
        slot.ready = true;
        g_baseline_cv.notify_all();
    }
    return slot.result;
}

// --- Graceful SIGINT/SIGTERM drain -------------------------------------

std::atomic<int> g_sweep_signal{0};
std::mutex g_signal_mutex;
int g_signal_depth = 0;
struct sigaction g_old_sigint;
struct sigaction g_old_sigterm;

/**
 * First signal: flag the drain (async-signal-safe: one atomic store
 * and a write(2)). Second signal: restore the default disposition and
 * re-raise, so an impatient second Ctrl-C still kills immediately.
 */
void
sweepSignalHandler(int sig)
{
    if (g_sweep_signal.exchange(sig) != 0) {
        std::signal(sig, SIG_DFL);
        std::raise(sig);
        return;
    }
    static const char msg[] =
        "\nbingo: signal received — draining sweep (in-flight jobs "
        "finish and journal; signal again to abort immediately)\n";
    const ssize_t rc = ::write(2, msg, sizeof(msg) - 1);
    (void)rc;
}

/**
 * Export a finished job's telemetry when BINGO_TELEMETRY_DIR is set.
 * The file stem carries workload, prefetcher, and the job fingerprint,
 * so concurrent workers and repeated configs never collide. Export
 * failures are reported but never fail the job: the RunResult is
 * already safe. Called for failed attempts too (`failure_reason`
 * non-empty), so even a run that died mid-simulation leaves a
 * well-formed run.json explaining why.
 */
void
maybeExportTelemetry(const SweepJob &job, System &system,
                     const std::string &failure_reason)
{
    if (system.telemetry() == nullptr)
        return;
    const std::string dir = telemetry::outputDir();
    if (dir.empty())
        return;
    telemetry::RunMeta meta;
    meta.workload = job.workload;
    meta.prefetcher = prefetcherName(job.config.prefetcher.kind);
    meta.seed = job.options.seed;
    meta.frequency_ghz = job.config.frequency_ghz;
    meta.degraded = system.anyQuarantined();
    if (meta.degraded)
        meta.degraded_reason = system.quarantineReport();
    meta.failed = !failure_reason.empty();
    meta.failure_reason = failure_reason;
    meta.base_name =
        telemetry::sanitizeFileStem(meta.workload + "_" +
                                    meta.prefetcher) +
        "_" + jobFingerprint(job).substr(0, 12);
    try {
        telemetry::writeRunTelemetry(dir, meta, *system.telemetry(),
                                     system.metrics());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
    }
}

/**
 * Write the process-wide trace cache's counters to trace_cache.json in
 * BINGO_TELEMETRY_DIR, once per sweep (as the distributed runner
 * writes transport_health.json). They describe which jobs shared the
 * sweep's process and in what order, not any one job, so no run.json
 * carries them. A write failure is reported and never fails the sweep.
 */
void
maybeExportTraceCacheStats()
{
    const std::string dir = telemetry::outputDir();
    if (dir.empty())
        return;
    const TraceCacheStats stats = TraceCache::instance().stats();
    std::string json = "{";
    const char *separator = "\n";
    visitCounters(stats, [&](const char *name, std::uint64_t value) {
        json += separator;
        json += "  \"" + std::string(name) + "\": " + std::to_string(value);
        separator = ",\n";
    });
    json += "\n}\n";
    const std::filesystem::path path =
        std::filesystem::path(dir) / "trace_cache.json";
    try {
        std::filesystem::create_directories(dir);
        telemetry::atomicWrite(path, json);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bingo: cannot write %s: %s (continuing)\n",
                     path.string().c_str(), e.what());
    }
}

/**
 * The watchdog deadline `timeout_s` seconds from now, saturated at the
 * end of steady_clock's range: a timeout too long to represent (say
 * 1e10 s) means "never", not an overflowed deadline in the past.
 */
std::chrono::steady_clock::time_point
watchdogDeadline(double timeout_s)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point now = Clock::now();
    const std::chrono::duration<double> wanted(timeout_s);
    if (wanted >= Clock::time_point::max() - now)
        return Clock::time_point::max();
    return now + std::chrono::duration_cast<Clock::duration>(wanted);
}

/**
 * One job, attempted up to 1 + BINGO_RETRIES times. Never throws:
 * every failure is folded into the returned outcome. `collect` runs
 * on the finished System of a successful attempt only.
 */
JobOutcome
runJobWithRetries(const SweepJob &job, std::size_t index,
                  const std::function<void(std::size_t, System &)>
                      &collect,
                  const SweepFaultHook &fault_hook)
{
    JobOutcome outcome;
    const auto start = std::chrono::steady_clock::now();
    const unsigned max_attempts = 1 + sweepRetries();
    const double timeout_s = sweepJobTimeoutSeconds();

    for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
        outcome.attempts = attempt;
        try {
            if (fault_hook)
                fault_hook(index, attempt);
            const SystemConfig cfg = runConfig(job.config, job.options);
            cfg.validate();
            System system(cfg, job.workload);
            if (telemetry::requested())
                system.enableTelemetry(telemetry::optionsFromEnv());
            if (timeout_s > 0.0)
                system.setDeadline(watchdogDeadline(timeout_s));
            try {
                system.run(job.options.warmup_instructions,
                           job.options.measure_instructions);
            } catch (const std::exception &e) {
                // The run died, but the System still holds partial
                // telemetry — flush it with the failure reason so the
                // run.json is complete, then fail the attempt.
                maybeExportTelemetry(job, system, e.what());
                throw;
            } catch (...) {
                maybeExportTelemetry(job, system, "unknown exception");
                throw;
            }
            g_completed_runs.fetch_add(1, std::memory_order_relaxed);
            g_simulated_cycles.fetch_add(system.now(),
                                         std::memory_order_relaxed);
            collect(index, system);
            maybeExportTelemetry(job, system, std::string());
            // Quarantine is graceful degradation, not failure: the
            // result is valid and retrying would reproduce the same
            // deterministic fault, so report Degraded and stop.
            if (system.anyQuarantined()) {
                outcome.status = JobStatus::Degraded;
                outcome.error = system.quarantineReport();
            } else {
                outcome.status = JobStatus::Ok;
                outcome.error.clear();
            }
            outcome.exception = nullptr;
            break;
        } catch (const std::exception &e) {
            outcome.status = JobStatus::Failed;
            outcome.error = e.what();
            outcome.exception = std::current_exception();
        } catch (...) {
            outcome.status = JobStatus::Failed;
            outcome.error = "unknown exception";
            outcome.exception = std::current_exception();
        }
        // A drain request cancels the remaining retries: the last
        // failure is already recorded, and the journal keeps every
        // completed job for the resume.
        if (sweepInterrupted())
            break;
        if (attempt < max_attempts) {
            std::this_thread::sleep_for(std::chrono::milliseconds(
                retryBackoffMs(index, attempt)));
        }
    }

    outcome.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    return outcome;
}

/**
 * Shared sweep engine: run the jobs selected by `indices` (indices
 * into `jobs`, preserving the caller's numbering for collect/hook/
 * outcomes), grouped by trace stream, under a trace-cache plan of
 * every System it builds.
 */
void
runIndexed(const std::vector<SweepJob> &jobs,
           const std::vector<std::size_t> &indices,
           const std::function<void(std::size_t, System &)> &collect,
           std::vector<JobOutcome> &outcomes, unsigned num_threads,
           const SweepFaultHook &fault_hook)
{
    // Stop dispatching on SIGINT/SIGTERM: jobs that have not started
    // when the signal lands are reported instead of run, in-flight
    // jobs finish (or hit their watchdog deadline) and journal as
    // usual, so the interrupted sweep resumes from BINGO_JOURNAL_DIR.
    ScopedSweepSignals signal_guard;
    const auto runOne = [&](std::size_t i) {
        if (sweepInterrupted()) {
            outcomes[i].status = JobStatus::Failed;
            outcomes[i].attempts = 0;
            outcomes[i].error =
                "sweep interrupted by signal before this job started "
                "(journaled jobs are kept; re-run to resume)";
            return;
        }
        outcomes[i] =
            runJobWithRetries(jobs[i], i, collect, fault_hook);
    };

    // Run jobs that share a trace stream back to back, groups in
    // first-seen order, so every use of a stream falls close together
    // and its cached buffer is still resident for the last one.
    std::vector<std::vector<std::size_t>> groups;
    {
        std::map<StreamKey, std::size_t> slot;
        for (std::size_t i : indices) {
            const auto [it, inserted] =
                slot.try_emplace(streamOf(jobs[i]), groups.size());
            if (inserted)
                groups.emplace_back();
            groups[it->second].push_back(i);
        }
    }
    std::vector<std::size_t> order;
    order.reserve(indices.size());
    for (const std::vector<std::size_t> &group : groups)
        order.insert(order.end(), group.begin(), group.end());

    // Plan the trace cache: every System the sweep builds, so a stream
    // only one of them replays (or one too long to keep under the
    // budget) skips the cache, and a stream's buffer is let go at its
    // last use. A config the System would reject (a bad BINGO_CHAOS
    // spec) fails its job on its own and plans nothing.
    std::vector<TraceDemand> demand;
    for (std::size_t i : order) {
        const SweepJob &job = jobs[i];
        TraceDemand d;
        try {
            d.translated = System::replaysTranslatedStreams(
                runConfig(job.config, job.options));
        } catch (...) {
            continue;
        }
        d.workload = job.workload;
        d.seed = job.options.seed;
        d.cores = job.config.num_cores;
        d.records = job.options.warmup_instructions +
                    job.options.measure_instructions;
        demand.push_back(std::move(d));
    }
    const TraceCache::Plan trace_plan(TraceCache::instance(), demand);

    // More workers than jobs would only idle.
    const auto threads = static_cast<unsigned>(std::min<std::size_t>(
        num_threads > 0 ? num_threads : sweepJobCount(), order.size()));
    if (threads <= 1) {
        for (std::size_t i : order)
            runOne(i);
    } else {
        ThreadPool pool(threads);
        for (std::size_t i : order)
            pool.submit([&runOne, i] { runOne(i); });
        pool.wait();
    }
    maybeExportTraceCacheStats();
}

/** Rethrow the first failed outcome, if any. */
void
rethrowFirstFailure(const std::vector<JobOutcome> &outcomes)
{
    for (const JobOutcome &outcome : outcomes) {
        if (outcome.ok())
            continue;
        if (outcome.exception)
            std::rethrow_exception(outcome.exception);
        throw std::runtime_error(outcome.error.empty()
                                     ? "sweep job failed"
                                     : outcome.error);
    }
}

} // namespace

ExperimentOptions
defaultOptions()
{
    ExperimentOptions options;
    options.warmup_instructions =
        envU64("BINGO_WARMUP_INSTRS", options.warmup_instructions);
    options.measure_instructions =
        envU64("BINGO_MEASURE_INSTRS", options.measure_instructions);
    options.seed = envU64("BINGO_SEED", options.seed);
    return options;
}

unsigned
sweepRetries()
{
    return static_cast<unsigned>(
        std::min<std::uint64_t>(envU64("BINGO_RETRIES", 1), 100));
}

unsigned
retryBackoffMs(std::size_t job_index, unsigned attempt)
{
    const unsigned shift = std::min(attempt > 0 ? attempt - 1 : 0, 6u);
    const unsigned base = std::min(10u << shift, 500u);
    // Deterministic jitter in [0, base/2]: two failing jobs (or two
    // respawning workers) never sleep in lockstep, yet every
    // (job_index, attempt) pair always waits the same time.
    const std::uint64_t draw = hashCombine(
        static_cast<std::uint64_t>(job_index) + 0x9e3779b97f4a7c15ULL,
        attempt);
    const unsigned jitter =
        static_cast<unsigned>(draw % (base / 2 + 1));
    return base / 2 + jitter;
}

bool
sweepInterrupted()
{
    return g_sweep_signal.load(std::memory_order_relaxed) != 0;
}

ScopedSweepSignals::ScopedSweepSignals()
{
    std::lock_guard<std::mutex> lock(g_signal_mutex);
    if (++g_signal_depth > 1)
        return;
    g_sweep_signal.store(0);
    struct sigaction action = {};
    action.sa_handler = sweepSignalHandler;
    sigemptyset(&action.sa_mask);
    action.sa_flags = SA_RESTART;
    sigaction(SIGINT, &action, &g_old_sigint);
    sigaction(SIGTERM, &action, &g_old_sigterm);
}

ScopedSweepSignals::~ScopedSweepSignals()
{
    std::lock_guard<std::mutex> lock(g_signal_mutex);
    if (--g_signal_depth > 0)
        return;
    sigaction(SIGINT, &g_old_sigint, nullptr);
    sigaction(SIGTERM, &g_old_sigterm, nullptr);
}

double
sweepJobTimeoutSeconds()
{
    return envSeconds("BINGO_JOB_TIMEOUT_S", 0.0);
}

std::string
sweepJournalDir()
{
    const char *value = std::getenv("BINGO_JOURNAL_DIR");
    return value == nullptr ? std::string() : std::string(value);
}

RunResult
runWorkload(const std::string &workload, const SystemConfig &config,
            const ExperimentOptions &options)
{
    const SystemConfig cfg = runConfig(config, options);
    cfg.validate();
    System system(cfg, workload);
    system.run(options.warmup_instructions,
               options.measure_instructions);
    g_completed_runs.fetch_add(1, std::memory_order_relaxed);
    g_simulated_cycles.fetch_add(system.now(),
                                 std::memory_order_relaxed);
    return collectResult(system, workload);
}

const RunResult &
baselineFor(const std::string &workload, SystemConfig config,
            const ExperimentOptions &options)
{
    const SweepJob job = baselineJob(workload, std::move(config), options);
    const std::string fingerprint = jobFingerprint(job);

    std::unique_lock<std::mutex> lock(g_baseline_mutex);
    for (;;) {
        const auto [it, inserted] =
            g_baseline_cache.try_emplace(fingerprint);
        if (inserted)
            break;
        if (it->second.ready)
            return it->second.result;
        // Another thread is computing this baseline; wait for it.
        g_baseline_cv.wait(lock);
    }
    // This thread computes it: resume it from the journal or run it
    // like any sweep job.
    lock.unlock();
    const std::string journal_dir = sweepJournalDir();
    RunResult result;
    if (journal_dir.empty() ||
        !journalLoad(journal_dir, fingerprint, result)) {
        const JobOutcome outcome = runSingleJob(job, 0, result);
        if (!outcome.ok()) {
            lock.lock();
            // A sweep may have published it meanwhile; keep that one.
            const auto it = g_baseline_cache.find(fingerprint);
            if (!it->second.ready)
                g_baseline_cache.erase(it);
            g_baseline_cv.notify_all();
            if (outcome.exception)
                std::rethrow_exception(outcome.exception);
            throw std::runtime_error(outcome.error);
        }
        journalCommit(journal_dir, fingerprint, result);
    }
    return memoizeBaseline(fingerprint, std::move(result));
}

const RunResult *
tryBaselineFor(const std::string &workload, const SystemConfig &config,
               const ExperimentOptions &options)
{
    try {
        return &baselineFor(workload, config, options);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "baseline %s failed: %s\n",
                     workload.c_str(), e.what());
        return nullptr;
    }
}

unsigned
sweepJobCount()
{
    const std::uint64_t requested = envU64("BINGO_JOBS", 0);
    if (requested >= 1)
        return static_cast<unsigned>(std::min<std::uint64_t>(
            requested, std::numeric_limits<unsigned>::max()));
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

unsigned
sweepDistWorkers()
{
    return static_cast<unsigned>(
        std::min<std::uint64_t>(envU64("BINGO_DIST_WORKERS", 0), 256));
}

JobOutcome
runSingleJob(const SweepJob &job, std::size_t index, RunResult &result)
{
    const auto collect = [&](std::size_t, System &system) {
        result = collectResult(system, job.workload);
    };
    return runJobWithRetries(job, index, collect, {});
}

void
addExternalRunStats(std::uint64_t runs, std::uint64_t cycles)
{
    g_completed_runs.fetch_add(runs, std::memory_order_relaxed);
    g_simulated_cycles.fetch_add(cycles, std::memory_order_relaxed);
}

std::vector<JobOutcome>
runSweepSystemsOutcomes(
    const std::vector<SweepJob> &jobs,
    const std::function<void(std::size_t, System &)> &collect,
    unsigned num_threads, const SweepFaultHook &fault_hook)
{
    std::vector<JobOutcome> outcomes(jobs.size());
    std::vector<std::size_t> indices(jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        indices[i] = i;
    runIndexed(jobs, indices, collect, outcomes, num_threads,
               fault_hook);
    return outcomes;
}

namespace
{

/** Post-drain note: how much of the sweep a signal cut off. */
void
reportInterrupted(const std::vector<JobOutcome> &outcomes)
{
    if (!sweepInterrupted())
        return;
    std::size_t not_run = 0;
    for (const JobOutcome &outcome : outcomes) {
        if (outcome.status == JobStatus::Failed &&
            outcome.error.find("sweep interrupted") != std::string::npos)
            ++not_run;
    }
    std::printf("Sweep interrupted by signal: %llu of %llu jobs not "
                "run; completed jobs are journaled%s\n",
                static_cast<unsigned long long>(not_run),
                static_cast<unsigned long long>(outcomes.size()),
                sweepJournalDir().empty()
                    ? " only if BINGO_JOURNAL_DIR is set"
                    : ", re-run the same command to resume");
}

} // namespace

std::vector<JobOutcome>
runSweepOutcomes(const std::vector<SweepJob> &jobs,
                 unsigned num_threads, const SweepFaultHook &fault_hook)
{
    const std::string journal_dir = sweepJournalDir();

    // Each distinct baseline the jobs request joins the sweep as one
    // more job after theirs: the no-prefetcher run of its stream on
    // the default substrate, dispatched first in its stream's group. A
    // baseline this process already holds is not run again.
    std::vector<SweepJob> all = jobs;
    std::vector<std::size_t> order;
    {
        std::set<StreamKey> requested, seen;
        for (const SweepJob &job : jobs) {
            if (job.compare_baseline)
                requested.insert(streamOf(job));
        }
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const StreamKey stream = streamOf(jobs[i]);
            if (requested.count(stream) > 0 &&
                seen.insert(stream).second) {
                SweepJob base = baselineJob(jobs[i].workload,
                                            SystemConfig{},
                                            jobs[i].options);
                if (!baselineMemoized(jobFingerprint(base))) {
                    order.push_back(all.size());
                    all.push_back(std::move(base));
                }
            }
            order.push_back(i);
        }
    }
    std::vector<JobOutcome> outcomes(all.size());
    std::vector<RunResult> results(all.size());
    std::vector<std::string> fingerprints(all.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        fingerprints[i] = jobFingerprint(all[i]);

    // Distributed dispatch is transparent: BINGO_DIST_WORKERS=N (local
    // worker processes) or BINGO_DIST_HOSTS (stdio workers launched
    // through command templates) hands the pending jobs to supervised
    // bingo_worker processes instead of in-process threads. Callers
    // that pin num_threads or install a fault hook (test seams) keep
    // the in-process path.
    const bool want_dist =
        (sweepDistWorkers() > 0 || !dist::sweepDistHosts().empty()) &&
        num_threads == 0 && !fault_hook && !jobs.empty();

    // Rerunning the driver on the same journal resumes a sweep whose
    // process was kill -9'd mid-flight. The kill can also tear a record
    // write; its temp file goes first.
    if (!journal_dir.empty() && !jobs.empty())
        journalDropTornWrites(journal_dir);

    // Resume pass: journaled jobs become Skipped outcomes up front and
    // never reach the pool.
    std::vector<std::size_t> pending;
    pending.reserve(order.size());
    for (std::size_t i : order) {
        RunResult restored;
        if (!journal_dir.empty() &&
            journalLoad(journal_dir, fingerprints[i], restored)) {
            outcomes[i].status = JobStatus::Skipped;
            outcomes[i].result = std::move(restored);
            outcomes[i].attempts = 0;
            continue;
        }
        pending.push_back(i);
    }

    // The coordinator declines, and the sweep runs in-process, when
    // the bingo_worker binary cannot be located (it says so).
    const bool ran_dist = want_dist && !pending.empty() &&
                          dist::runSweepDistributed(all, pending, outcomes);
    if (!ran_dist) {
        // Journal inside collect — i.e. the moment each job finishes
        // on its worker — so a sweep killed mid-flight keeps everything
        // that completed before the kill.
        const auto collect = [&](std::size_t i, System &system) {
            results[i] = collectResult(system, all[i].workload);
            journalCommit(journal_dir, fingerprints[i], results[i]);
        };
        runIndexed(all, pending, collect, outcomes, num_threads,
                   fault_hook);
        for (std::size_t i : pending) {
            if (outcomes[i].ok())
                outcomes[i].result = std::move(results[i]);
        }
    }

    // A failed baseline stays unmemoized: the caller's own baselineFor
    // call retries it and reports the error in context.
    for (std::size_t i = jobs.size(); i < all.size(); ++i) {
        if (outcomes[i].ok())
            memoizeBaseline(fingerprints[i],
                            std::move(outcomes[i].result));
    }
    outcomes.resize(jobs.size());
    reportInterrupted(outcomes);
    return outcomes;
}

void
runSweepSystems(
    const std::vector<SweepJob> &jobs,
    const std::function<void(std::size_t, System &)> &collect,
    unsigned num_threads)
{
    rethrowFirstFailure(
        runSweepSystemsOutcomes(jobs, collect, num_threads));
}

std::vector<RunResult>
runSweep(const std::vector<SweepJob> &jobs, unsigned num_threads)
{
    std::vector<JobOutcome> outcomes =
        runSweepOutcomes(jobs, num_threads);
    rethrowFirstFailure(outcomes);
    std::vector<RunResult> results;
    results.reserve(outcomes.size());
    for (JobOutcome &outcome : outcomes)
        results.push_back(std::move(outcome.result));
    return results;
}

std::size_t
reportFailures(const std::vector<SweepJob> &jobs,
               const std::vector<JobOutcome> &outcomes)
{
    // A job counts as degraded whether it was quarantined this run
    // (status Degraded) or resumed from a journal entry recorded as
    // degraded (status Skipped, result.degraded).
    const auto isDegraded = [](const JobOutcome &outcome) {
        return outcome.status == JobStatus::Degraded ||
               (outcome.status == JobStatus::Skipped &&
                outcome.result.degraded);
    };
    std::size_t skipped = 0;
    std::size_t failed = 0;
    std::size_t degraded = 0;
    for (const JobOutcome &outcome : outcomes) {
        if (outcome.status == JobStatus::Skipped)
            ++skipped;
        else if (outcome.status == JobStatus::Failed)
            ++failed;
        if (isDegraded(outcome))
            ++degraded;
    }
    if (skipped > 0) {
        std::printf("Journal: resumed %llu of %llu jobs from %s\n",
                    static_cast<unsigned long long>(skipped),
                    static_cast<unsigned long long>(outcomes.size()),
                    sweepJournalDir().c_str());
    }
    if (degraded > 0) {
        std::printf("NOTE: %llu of %llu sweep jobs completed with a "
                    "quarantined prefetcher; their table cells are "
                    "marked DEGRADED\n",
                    static_cast<unsigned long long>(degraded),
                    static_cast<unsigned long long>(outcomes.size()));
        TextTable table({"job", "workload", "prefetcher", "reason"});
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            if (!isDegraded(outcomes[i]))
                continue;
            const std::string &reason =
                outcomes[i].status == JobStatus::Degraded
                    ? outcomes[i].error
                    : outcomes[i].result.degraded_reason;
            table.addRow(
                {std::to_string(i), jobs[i].workload,
                 prefetcherName(jobs[i].config.prefetcher.kind),
                 reason});
        }
        table.print();
    }
    if (failed == 0)
        return 0;

    std::printf("WARNING: %llu of %llu sweep jobs failed; their "
                "table cells are marked FAIL\n",
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(outcomes.size()));
    TextTable table({"job", "workload", "prefetcher", "attempts",
                     "error"});
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].status != JobStatus::Failed)
            continue;
        table.addRow({std::to_string(i), jobs[i].workload,
                      prefetcherName(jobs[i].config.prefetcher.kind),
                      std::to_string(outcomes[i].attempts),
                      outcomes[i].error});
    }
    table.print();
    return failed;
}

std::uint64_t
completedRuns()
{
    return g_completed_runs.load(std::memory_order_relaxed);
}

std::uint64_t
simulatedCycles()
{
    return g_simulated_cycles.load(std::memory_order_relaxed);
}

void
writeBenchSummary(const std::string &bench, double wall_seconds,
                  std::uint64_t runs, std::uint64_t cycles)
{
    const double runs_per_sec =
        wall_seconds > 0.0 ? static_cast<double>(runs) / wall_seconds
                           : 0.0;
    const double cycles_per_sec =
        wall_seconds > 0.0 ? static_cast<double>(cycles) / wall_seconds
                           : 0.0;
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"bench\":\"%s\",\"wall_seconds\":%.6f,"
                  "\"runs\":%llu,\"runs_per_sec\":%.6f,"
                  "\"simulated_cycles\":%llu,"
                  "\"simulated_cycles_per_sec\":%.6g,"
                  "\"jobs\":%u}\n",
                  telemetry::sanitizeFileStem(bench).c_str(),
                  wall_seconds, static_cast<unsigned long long>(runs),
                  runs_per_sec,
                  static_cast<unsigned long long>(cycles),
                  cycles_per_sec, sweepJobCount());
    const std::string path =
        "BENCH_" + telemetry::sanitizeFileStem(bench) + ".json";
    try {
        telemetry::atomicWrite(path, buf);
    } catch (const std::exception &e) {
        // A read-only working directory must not fail the bench.
        std::fprintf(stderr, "%s\n", e.what());
    }
}

SweepTimer::SweepTimer()
    : start_(std::chrono::steady_clock::now()),
      runs_at_start_(completedRuns()),
      cycles_at_start_(simulatedCycles())
{
}

void
SweepTimer::report(const char *bench_json_name) const
{
    const auto elapsed = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start_);
    const double seconds = elapsed.count();
    const std::uint64_t runs = completedRuns() - runs_at_start_;
    const std::uint64_t cycles = simulatedCycles() - cycles_at_start_;
    const double rate =
        seconds > 0.0 ? static_cast<double>(runs) / seconds : 0.0;
    const double cycle_rate =
        seconds > 0.0 ? static_cast<double>(cycles) / seconds : 0.0;
    std::printf("Sweep wall-clock: %.2f s, %llu runs "
                "(%.2f runs/s, %.3g simulated cycles/s, "
                "BINGO_JOBS=%u)\n",
                seconds, static_cast<unsigned long long>(runs), rate,
                cycle_rate, sweepJobCount());
    if (bench_json_name != nullptr)
        writeBenchSummary(bench_json_name, seconds, runs, cycles);
}

void
printConfigHeader(const SystemConfig &config)
{
    std::printf("System: %u cores, %.1f GHz | L1D %llu KB %u-way | "
                "LLC %llu MB %u-way, %u-cycle | DRAM %u ch, "
                "%u-cycle zero-load row miss\n",
                config.num_cores, config.frequency_ghz,
                static_cast<unsigned long long>(
                    config.l1d.size_bytes / 1024),
                config.l1d.ways,
                static_cast<unsigned long long>(
                    config.llc.size_bytes / (1024 * 1024)),
                config.llc.ways, config.llc.hit_latency,
                config.dram.channels,
                config.dram.zeroLoadRowMiss());
}

} // namespace bingo
