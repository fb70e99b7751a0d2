/**
 * @file
 * Tests of the distributed sweep runtime (src/dist): wire protocol
 * round-trips with the fingerprint build-skew guard, transparent
 * BINGO_DIST_WORKERS dispatch with a journal byte-identical to the
 * single-process run, crash (SIGKILL) and hang recovery through
 * re-dispatch, poison-job quarantine, coordinator kill -9 and a rerun
 * of the driver, and the in-process fallback when no worker binary
 * exists or every worker slot fails.
 * Every journaled test also checks that nothing wrote a
 * `<journal>/shards` tree: the coordinator is the only journal writer.
 *
 * Worker deaths in these tests are real: the worker process SIGKILLs
 * itself mid-dispatch (BINGO_DIST_TEST_CRASH_JOB), which is
 * indistinguishable from an external kill -9.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "dist/coordinator.hpp"
#include "dist/protocol.hpp"
#include "dist/supervisor.hpp"
#include "sim/experiment.hpp"
#include "sim/journal.hpp"

namespace bingo
{
namespace
{

using dist::WireJob;
using dist::WireResult;
using dist::decodeJob;
using dist::decodeResult;
using dist::encodeJob;
using dist::encodeResult;
using dist::workerBinaryPath;

/** Set (or, given std::nullopt, unset) an environment variable for
 *  one scope, restoring on exit. */
class EnvVar
{
  public:
    EnvVar(const char *name, const std::optional<std::string> &value)
        : name_(name)
    {
        const char *old = std::getenv(name);
        if (old != nullptr) {
            had_old_ = true;
            old_ = old;
        }
        if (value)
            ::setenv(name, value->c_str(), 1);
        else
            ::unsetenv(name);
    }

    ~EnvVar()
    {
        if (had_old_)
            ::setenv(name_.c_str(), old_.c_str(), 1);
        else
            ::unsetenv(name_.c_str());
    }

  private:
    std::string name_;
    std::string old_;
    bool had_old_ = false;
};

/** Unique per-process scratch directory (removed on destruction). */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_(::testing::TempDir() + "bingo_" + tag + "_" +
                std::to_string(::getpid()))
    {
        std::filesystem::remove_all(path_);
    }

    ~TempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

ExperimentOptions
smallOptions()
{
    ExperimentOptions options;
    options.warmup_instructions = 4000;
    options.measure_instructions = 8000;
    return options;
}

SweepJob
smallJob(const std::string &workload,
         PrefetcherKind kind = PrefetcherKind::Bingo)
{
    SweepJob job;
    job.workload = workload;
    job.config.prefetcher.kind = kind;
    job.options = smallOptions();
    return job;
}

std::vector<SweepJob>
smallSweep()
{
    return {smallJob("Data Serving", PrefetcherKind::Bingo),
            smallJob("Streaming", PrefetcherKind::Sms),
            smallJob("em3d", PrefetcherKind::Stride),
            smallJob("Zeus", PrefetcherKind::Bop)};
}

/** All regular files of a directory as name -> content. */
std::map<std::string, std::string>
dirContents(const std::string &dir)
{
    std::map<std::string, std::string> out;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::recursive_directory_iterator(dir, ec)) {
        if (!entry.is_regular_file())
            continue;
        std::ifstream in(entry.path(), std::ios::binary);
        out.emplace(
            std::filesystem::relative(entry.path(), dir).string(),
            std::string(std::istreambuf_iterator<char>(in),
                        std::istreambuf_iterator<char>()));
    }
    return out;
}

/** Whether anything wrote a `shards` tree into journal `dir`. */
bool
hasShards(const std::string &dir)
{
    return std::filesystem::exists(dir + "/shards");
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/** Set in a spawnDriver child: DistDriver runs its sweep only then. */
constexpr const char *kDriverEnv = "BINGO_TEST_DIST_DRIVER";

/**
 * Run smallSweep() as a sweep driver in a fresh process: fork, then
 * exec this test binary on DistDriver.RunsTheSmallSweepWhenAsked with
 * extra environment. The coordinator-in-a-subprocess of the chaos and
 * crash-resume tests: BINGO_CHAOS is parsed once per process (and the
 * reference run has already parsed it here), so env-driven chaos needs
 * a freshly exec'd process, and kill -9 needs a process to kill.
 */
pid_t
spawnDriver(const std::vector<std::pair<std::string, std::string>> &env)
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        for (const auto &kv : env)
            ::setenv(kv.first.c_str(), kv.second.c_str(), 1);
        ::setenv(kDriverEnv, "1", 1);
        // Sweep tables go nowhere: the tests only check the journal.
        const int null_fd = ::open("/dev/null", O_WRONLY);
        if (null_fd >= 0) {
            ::dup2(null_fd, 1);
            ::close(null_fd);
        }
        ::execl("/proc/self/exe", "bingo_tests",
                "--gtest_filter=DistDriver.RunsTheSmallSweepWhenAsked",
                static_cast<char *>(nullptr));
        ::_exit(127);
    }
    return pid;
}

/** Wait for a spawnDriver child and expect a clean exit. */
void
expectDriverSucceeds(pid_t pid)
{
    ASSERT_GT(pid, 0);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status));
    EXPECT_EQ(WEXITSTATUS(status), 0);
}

/** Single-process reference journal of `jobs` in `dir`. */
void
runReference(const std::vector<SweepJob> &jobs, const std::string &dir)
{
    EnvVar journal("BINGO_JOURNAL_DIR", dir);
    const std::vector<JobOutcome> outcomes = runSweepOutcomes(jobs, 1);
    for (const JobOutcome &outcome : outcomes)
        ASSERT_EQ(outcome.status, JobStatus::Ok);
}

// --- Wire protocol.

TEST(DistProtocol, JobRoundTripsEveryConfigFieldBitExactly)
{
    WireJob wire;
    wire.index = 17;
    wire.job.workload = "Data Serving";  // Name contains a space.
    wire.job.compare_baseline = true;
    wire.job.options.warmup_instructions = 123;
    wire.job.options.measure_instructions = 456;
    wire.job.options.seed = 99;
    SystemConfig &cfg = wire.job.config;
    cfg.num_cores = 2;
    cfg.frequency_ghz = 3.7;  // Not exactly representable: bits must
                              // survive the text round-trip.
    cfg.llc.replacement = ReplacementKind::Srrip;
    cfg.llc.prefetch_queue = 33;
    cfg.dram.t_cas = 57;
    cfg.prefetcher.kind = PrefetcherKind::Bingo;
    cfg.prefetcher.vote_threshold = 0.15;
    cfg.prefetcher.spp_confidence_threshold = 0.009;
    // Temporal knobs travel even for a spatial kind, whose fingerprint
    // leaves them out.
    cfg.prefetcher.isb_degree = 3;
    cfg.prefetcher.hybrid_engines = {PrefetcherKind::Spp,
                                     PrefetcherKind::Domino};
    cfg.chaos.enabled = true;
    cfg.chaos.seed = 7;
    cfg.chaos.rate = 1e-4;
    cfg.chaos.site_mask = 0x5;
    wire.fingerprint = jobFingerprint(wire.job);

    WireJob decoded;
    ASSERT_TRUE(decodeJob(encodeJob(wire), decoded));
    EXPECT_EQ(decoded.index, wire.index);
    EXPECT_EQ(decoded.fingerprint, wire.fingerprint);
    EXPECT_EQ(decoded.job.workload, wire.job.workload);
    // The coordinator sends a sweep's baselines as jobs of their own;
    // a worker has no use for the flag, so it does not travel.
    EXPECT_FALSE(decoded.job.compare_baseline);
    EXPECT_EQ(decoded.job.config.prefetcher.isb_degree, 3u);
    EXPECT_EQ(decoded.job.config.prefetcher.hybrid_engines,
              cfg.prefetcher.hybrid_engines);
    EXPECT_TRUE(decoded.job.config.chaos.enabled);

    // The build-skew guard: the fingerprint recomputed from the
    // decoded job must equal the one computed from the original.
    EXPECT_EQ(jobFingerprint(decoded.job), wire.fingerprint);
    EXPECT_EQ(encodeJob(decoded), encodeJob(wire));
}

TEST(DistProtocol, JobDecodeRejectsOutOfRangeEnumsAndEngineLists)
{
    const auto decodes = [](const SystemConfig &cfg) {
        WireJob wire;
        wire.fingerprint = "0123456789abcdef";
        wire.job.workload = "em3d";
        wire.job.config = cfg;
        WireJob decoded;
        return decodeJob(encodeJob(wire), decoded);
    };
    const SystemConfig valid;
    EXPECT_TRUE(decodes(valid));

    SystemConfig bad = valid;
    bad.llc.replacement = static_cast<ReplacementKind>(3);
    EXPECT_FALSE(decodes(bad));
    bad = valid;
    bad.prefetcher.kind = static_cast<PrefetcherKind>(14);
    EXPECT_FALSE(decodes(bad));
    bad = valid;
    bad.prefetcher.hybrid_engines.push_back(
        static_cast<PrefetcherKind>(15));
    EXPECT_FALSE(decodes(bad));
    bad = valid;
    bad.prefetcher.hybrid_engines.assign(9, PrefetcherKind::Bingo);
    EXPECT_FALSE(decodes(bad));
    bad.prefetcher.hybrid_engines.resize(8);
    EXPECT_TRUE(decodes(bad));

    // dram.read_queue_entries is fixed: its slot must carry 48. It
    // follows data_transfer (14) and precedes the prefetcher kind (0).
    WireJob wire;
    wire.fingerprint = "0123456789abcdef";
    wire.job.workload = "em3d";
    std::string payload = encodeJob(wire);
    const std::size_t slot = payload.find(" 14 48 0 ");
    ASSERT_NE(slot, std::string::npos);
    ASSERT_EQ(payload.rfind(" 14 48 0 "), slot);
    payload.replace(slot, 9, " 14 32 0 ");
    WireJob decoded;
    EXPECT_FALSE(decodeJob(payload, decoded));
}

TEST(DistProtocol, ResultRoundTripsAndRejectsGarbage)
{
    WireResult result;
    result.index = 3;
    result.status = JobStatus::Degraded;
    result.attempts = 2;
    result.wall_seconds = 1.25;
    result.runs = 4;
    result.cycles = 123456789;
    result.error = "quarantined: late prefetch\nsecond line";
    result.record = "bingo-journal 2\nsome bytes\n";

    WireResult decoded;
    ASSERT_TRUE(decodeResult(encodeResult(result), decoded));
    EXPECT_EQ(decoded.index, result.index);
    EXPECT_EQ(decoded.status, result.status);
    EXPECT_EQ(decoded.attempts, result.attempts);
    EXPECT_EQ(decoded.wall_seconds, result.wall_seconds);
    EXPECT_EQ(decoded.runs, result.runs);
    EXPECT_EQ(decoded.cycles, result.cycles);
    EXPECT_EQ(decoded.error, result.error);
    EXPECT_EQ(decoded.record, result.record);

    WireResult reject;
    EXPECT_FALSE(decodeResult("", reject));
    EXPECT_FALSE(decodeResult("result 999\n", reject));
    EXPECT_FALSE(decodeResult(
        encodeResult(result).substr(0, 20), reject));
    WireJob wrong_kind;
    EXPECT_FALSE(decodeJob(encodeResult(result), wrong_kind));
}

TEST(DistProtocol, WorkerBinaryIsFoundNextToTheBuildTree)
{
    // The test binary lives in build/tests; the worker in build/src.
    const std::string path = workerBinaryPath();
    ASSERT_FALSE(path.empty())
        << "bingo_worker not found relative to the test binary";
    EXPECT_TRUE(std::filesystem::exists(path));
}

// --- Transparent distributed dispatch.

TEST(DistSweep, MergedJournalIsByteIdenticalToSingleProcess)
{
    const std::vector<SweepJob> jobs = smallSweep();
    TempDir reference("dist_ref");
    runReference(jobs, reference.path());

    TempDir dist("dist_run");
    EnvVar journal("BINGO_JOURNAL_DIR", dist.path());
    EnvVar workers("BINGO_DIST_WORKERS", "2");
    const std::vector<JobOutcome> outcomes = runSweepOutcomes(jobs);
    ASSERT_EQ(outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        EXPECT_EQ(outcomes[i].status, JobStatus::Ok) << "job " << i;
        EXPECT_GT(outcomes[i].result.ipcSum(), 0.0) << "job " << i;
    }

    // The regression oracle: byte-identical journals, no shards.
    EXPECT_EQ(dirContents(dist.path()), dirContents(reference.path()));
    EXPECT_FALSE(hasShards(dist.path()));
}

TEST(DistSweep, FallsBackInProcessWhenWorkerBinaryIsMissing)
{
    const std::vector<SweepJob> jobs = {smallJob("em3d")};
    TempDir dist("dist_nobin");
    EnvVar journal("BINGO_JOURNAL_DIR", dist.path());
    EnvVar workers("BINGO_DIST_WORKERS", "2");
    EnvVar binary("BINGO_WORKER_BIN", "/nonexistent/bingo_worker");
    const std::vector<JobOutcome> outcomes = runSweepOutcomes(jobs);
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].status, JobStatus::Ok);
    RunResult restored;
    EXPECT_TRUE(journalLoad(dist.path(), jobFingerprint(jobs[0]),
                            restored));
    EXPECT_FALSE(hasShards(dist.path()));
}

TEST(DistSweep, ResumesFromJournalWithoutRedispatch)
{
    const std::vector<SweepJob> jobs = smallSweep();
    TempDir dist("dist_resume");
    EnvVar journal("BINGO_JOURNAL_DIR", dist.path());
    EnvVar workers("BINGO_DIST_WORKERS", "2");
    (void)runSweepOutcomes(jobs);
    const std::vector<JobOutcome> resumed = runSweepOutcomes(jobs);
    for (const JobOutcome &outcome : resumed)
        EXPECT_EQ(outcome.status, JobStatus::Skipped);
    EXPECT_FALSE(hasShards(dist.path()));
}

// --- Crash tolerance. The worker SIGKILLs itself mid-dispatch: a
// real process death, equivalent to an external kill -9.

TEST(DistSweep, WorkerKilledMidJobIsRedispatchedJournalIdentical)
{
    const std::vector<SweepJob> jobs = smallSweep();
    TempDir reference("crash_ref");
    runReference(jobs, reference.path());

    TempDir dist("crash_run");
    TempDir markers("crash_markers");
    EnvVar journal("BINGO_JOURNAL_DIR", dist.path());
    EnvVar marker_dir("BINGO_DIST_TEST_DIR", markers.path());
    EnvVar crash("BINGO_DIST_TEST_CRASH_JOB", "2:once");

    std::vector<JobOutcome> outcomes(jobs.size());
    std::vector<std::size_t> pending = {0, 1, 2, 3};
    dist::DistReport report;
    ASSERT_TRUE(dist::runSweepDistributed(jobs, pending, outcomes, 2,
                                          &report));
    EXPECT_GE(report.workers_lost, 1u);
    EXPECT_GE(report.redispatched, 1u);
    EXPECT_EQ(report.poisoned, 0u);
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        EXPECT_EQ(outcomes[i].status, JobStatus::Ok) << "job " << i;
    EXPECT_EQ(dirContents(dist.path()), dirContents(reference.path()));
    EXPECT_FALSE(hasShards(dist.path()));
}

TEST(DistSweep, HungWorkerIsKilledAndJobRedispatched)
{
    const std::vector<SweepJob> jobs = smallSweep();
    TempDir dist("hang_run");
    TempDir markers("hang_markers");
    EnvVar journal("BINGO_JOURNAL_DIR", dist.path());
    EnvVar marker_dir("BINGO_DIST_TEST_DIR", markers.path());
    EnvVar hang("BINGO_DIST_TEST_HANG_JOB", "1:once");
    // A hung worker stops heartbeating; shrink the timeout so the test
    // doesn't sit through the default 5 s.
    EnvVar heartbeat("BINGO_DIST_HEARTBEAT_S", "1");

    std::vector<JobOutcome> outcomes(jobs.size());
    std::vector<std::size_t> pending = {0, 1, 2, 3};
    dist::DistReport report;
    ASSERT_TRUE(dist::runSweepDistributed(jobs, pending, outcomes, 2,
                                          &report));
    EXPECT_GE(report.workers_lost, 1u);
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        EXPECT_EQ(outcomes[i].status, JobStatus::Ok) << "job " << i;
    for (const SweepJob &job : jobs) {
        RunResult restored;
        EXPECT_TRUE(
            journalLoad(dist.path(), jobFingerprint(job), restored));
    }
    EXPECT_FALSE(hasShards(dist.path()));
}

TEST(DistSweep, PoisonJobIsQuarantinedAndSweepSurvives)
{
    const std::vector<SweepJob> jobs = smallSweep();
    TempDir dist("poison_run");
    EnvVar journal("BINGO_JOURNAL_DIR", dist.path());
    // No :once — job 1 kills every worker that draws it.
    EnvVar crash("BINGO_DIST_TEST_CRASH_JOB", "1");
    EnvVar threshold("BINGO_DIST_POISON_KILLS", "2");

    std::vector<JobOutcome> outcomes(jobs.size());
    std::vector<std::size_t> pending = {0, 1, 2, 3};
    dist::DistReport report;
    ASSERT_TRUE(dist::runSweepDistributed(jobs, pending, outcomes, 2,
                                          &report));
    EXPECT_EQ(report.poisoned, 1u);
    EXPECT_GE(report.workers_lost, 2u);

    EXPECT_EQ(outcomes[1].status, JobStatus::Failed);
    EXPECT_NE(outcomes[1].error.find("poison"), std::string::npos);
    EXPECT_EQ(outcomes[0].status, JobStatus::Ok);
    EXPECT_EQ(outcomes[2].status, JobStatus::Ok);
    EXPECT_EQ(outcomes[3].status, JobStatus::Ok);

    // Poison quarantine degrades the sweep, it does not fail it: every
    // healthy job journaled, the poison job did not.
    RunResult restored;
    EXPECT_TRUE(
        journalLoad(dist.path(), jobFingerprint(jobs[0]), restored));
    EXPECT_FALSE(
        journalLoad(dist.path(), jobFingerprint(jobs[1]), restored));

    // A re-run after the "bug" is fixed (knob gone) completes the
    // quarantined job and only it.
    EnvVar fixed("BINGO_DIST_TEST_CRASH_JOB", "");
    EnvVar workers("BINGO_DIST_WORKERS", "2");
    const std::vector<JobOutcome> resumed = runSweepOutcomes(jobs);
    EXPECT_EQ(resumed[1].status, JobStatus::Ok);
    EXPECT_EQ(resumed[0].status, JobStatus::Skipped);
    EXPECT_FALSE(hasShards(dist.path()));
}

// --- Lease guard. A stalled worker resurfaces after its job was
// revoked and re-dispatched: its late results carry a superseded lease
// and must be dropped, never double-committed.

TEST(DistLease, StalledWorkerResurfacingCannotDoubleCommit)
{
    const std::vector<SweepJob> jobs = {
        smallJob("em3d", PrefetcherKind::Stride)};
    TempDir reference("lease_ref");
    runReference(jobs, reference.path());

    TempDir dist("lease_run");
    TempDir markers("lease_markers");
    EnvVar journal("BINGO_JOURNAL_DIR", dist.path());
    EnvVar marker_dir("BINGO_DIST_TEST_DIR", markers.path());
    // The (single) worker sleeps 2.5 s before even marking itself
    // busy, so its heartbeats keep saying idle; after the shrunk grace
    // the coordinator revokes the lease and requeues the job — which
    // can only go back to the same worker, queueing behind the stall.
    // The worker eventually drains the backlog in order: every result
    // but the last carries a revoked lease.
    EnvVar stall("BINGO_DIST_TEST_STALL_JOB", "0:2500:once");
    EnvVar grace("BINGO_DIST_REDISPATCH_S", "0.5");

    std::vector<JobOutcome> outcomes(jobs.size());
    std::vector<std::size_t> pending = {0};
    dist::DistReport report;
    ASSERT_TRUE(
        dist::runSweepDistributed(jobs, pending, outcomes, 1, &report));
    EXPECT_EQ(outcomes[0].status, JobStatus::Ok);
    EXPECT_GE(report.leases_revoked, 1u);
    EXPECT_GE(report.redispatched, 1u);
    EXPECT_GE(report.stale_results_dropped, 1u);
    EXPECT_EQ(report.poisoned, 0u);
    // At-most-once commit: the journal is exactly the single-process
    // journal; the stale results left no trace.
    EXPECT_EQ(dirContents(dist.path()), dirContents(reference.path()));
    EXPECT_FALSE(hasShards(dist.path()));
}

// --- Command-template workers. Workers launched from a
// BINGO_DIST_HOSTS command template through /bin/sh speak the same
// stdin/stdout frames as local workers, and the coordinator commits
// their results.

TEST(DistHosts, CommandTemplateWorkersCommitThroughTheCoordinator)
{
    const std::vector<SweepJob> jobs = smallSweep();
    TempDir reference("hosts_ref");
    runReference(jobs, reference.path());

    TempDir dist("hosts_run");
    EnvVar journal("BINGO_JOURNAL_DIR", dist.path());
    // Two "hosts", both the local worker binary: the template is
    // exactly what an ssh wrapper would be, minus the ssh.
    EnvVar hosts("BINGO_DIST_HOSTS",
                 workerBinaryPath() + ";" + workerBinaryPath());

    std::vector<JobOutcome> outcomes(jobs.size());
    std::vector<std::size_t> pending = {0, 1, 2, 3};
    dist::DistReport report;
    ASSERT_TRUE(
        dist::runSweepDistributed(jobs, pending, outcomes, 0, &report));
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        EXPECT_EQ(outcomes[i].status, JobStatus::Ok) << "job " << i;
    EXPECT_EQ(report.fallback_jobs, 0u);
    EXPECT_EQ(dirContents(dist.path()), dirContents(reference.path()));
    EXPECT_FALSE(hasShards(dist.path()));
}

TEST(DistHosts, StdoutChatterBeforeTheWorkerFailsTheSlotAndTheSweepFallsBack)
{
    const std::vector<SweepJob> jobs = smallSweep();
    TempDir reference("banner_ref");
    runReference(jobs, reference.path());

    TempDir dist("banner_run");
    EnvVar journal("BINGO_JOURNAL_DIR", dist.path());
    // A template that prints before exec'ing the worker, like an ssh
    // login banner: the first header is not a frame, so the link ends
    // with a typed error instead of resyncing past the chatter.
    EnvVar hosts("BINGO_DIST_HOSTS",
                 "echo banner && exec " + workerBinaryPath());
    EnvVar respawns("BINGO_DIST_MAX_RESPAWNS", "0");

    std::vector<JobOutcome> outcomes(jobs.size());
    std::vector<std::size_t> pending = {0, 1, 2, 3};
    dist::DistReport report;
    ASSERT_TRUE(
        dist::runSweepDistributed(jobs, pending, outcomes, 0, &report));
    EXPECT_GE(report.workers_lost, 1u);
    EXPECT_EQ(report.fallback_jobs, 4u);
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        EXPECT_EQ(outcomes[i].status, JobStatus::Ok) << "job " << i;
    EXPECT_EQ(dirContents(dist.path()), dirContents(reference.path()));
}

TEST(DistHosts, LinkLostUnderALiveWorkerIsNoPoisonStrike)
{
    const std::vector<SweepJob> jobs = smallSweep();
    TempDir reference("cut_ref");
    runReference(jobs, reference.path());

    TempDir dist("cut_run");
    EnvVar journal("BINGO_JOURNAL_DIR", dist.path());
    // `head -n 5` passes Hello and the first heartbeat (two lines
    // each) and the header of the next frame — the in-flight job's
    // next heartbeat or its result — then exits. The worker's next
    // send fails and it exits 0: every dispatch ends in a lost link
    // with its job in flight, and the sweep falls back in-process.
    EnvVar hosts("BINGO_DIST_HOSTS",
                 "sh -c '\"$0\" \"$@\" | head -n 5' " + workerBinaryPath());
    EnvVar respawns("BINGO_DIST_MAX_RESPAWNS", "1");
    // One strike quarantines: a lost link must not be one.
    EnvVar threshold("BINGO_DIST_POISON_KILLS", "1");

    std::vector<JobOutcome> outcomes(jobs.size());
    std::vector<std::size_t> pending = {0, 1, 2, 3};
    dist::DistReport report;
    ASSERT_TRUE(
        dist::runSweepDistributed(jobs, pending, outcomes, 1, &report));
    EXPECT_GE(report.redispatched, 1u);
    EXPECT_EQ(report.poisoned, 0u);
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        EXPECT_EQ(outcomes[i].status, JobStatus::Ok) << "job " << i;
    EXPECT_EQ(dirContents(dist.path()), dirContents(reference.path()));
}

/** Whether process `pid` is running: neither gone nor a zombie. */
bool
processRunning(pid_t pid)
{
    std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    if (!std::getline(stat, line))
        return false;
    // The state follows the parenthesised command name.
    const std::size_t close = line.rfind(')');
    return close == std::string::npos || close + 2 >= line.size() ||
           line[close + 2] != 'Z';
}

TEST(DistHosts, HungTemplateWorkerDiesWithItsShell)
{
    const std::vector<SweepJob> jobs = smallSweep();
    TempDir markers("pgroup_markers");
    // A template runs under /bin/sh, which may fork the worker instead
    // of exec'ing it: the SIGKILL for the hang must reach the worker,
    // not just its shell.
    EnvVar hosts("BINGO_DIST_HOSTS", workerBinaryPath());
    EnvVar marker_dir("BINGO_DIST_TEST_DIR", markers.path());
    EnvVar hang("BINGO_DIST_TEST_HANG_JOB", "1:once");
    EnvVar heartbeat("BINGO_DIST_HEARTBEAT_S", "1");

    for (const JobOutcome &outcome : runSweepOutcomes(jobs))
        EXPECT_EQ(outcome.status, JobStatus::Ok) << outcome.error;

    // The marker holds the pid of the worker that hung.
    const std::string marker = readFile(markers.path() + "/hang.1.fired");
    ASSERT_FALSE(marker.empty());
    const pid_t hung = static_cast<pid_t>(std::stol(marker));
    ASSERT_GT(hung, 0);
    struct Reaper
    {
        pid_t pid;
        ~Reaper() { ::kill(pid, SIGKILL); }
    } reaper{hung};
    // SIGKILL is asynchronous: give the kernel a moment to finish it.
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (processRunning(hung) &&
           std::chrono::steady_clock::now() < give_up)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_FALSE(processRunning(hung))
        << "hung worker " << hung << " outlived its SIGKILL";
}

// --- Transport health. The report goes where telemetry goes, and
// nowhere when telemetry is off.

TEST(DistSweep, TransportHealthIsWrittenOnlyWhereTelemetryGoes)
{
    const std::vector<SweepJob> jobs = {smallJob("em3d")};
    TempDir cwd("health_cwd");
    std::filesystem::create_directories(cwd.path());
    const std::filesystem::path old_cwd = std::filesystem::current_path();
    std::filesystem::current_path(cwd.path());
    {
        EnvVar telemetry("BINGO_TELEMETRY_DIR", std::nullopt);
        std::vector<JobOutcome> outcomes(jobs.size());
        EXPECT_TRUE(dist::runSweepDistributed(jobs, {0}, outcomes, 1));
        EXPECT_EQ(outcomes[0].status, JobStatus::Ok);
    }
    std::filesystem::current_path(old_cwd);
    EXPECT_FALSE(
        std::filesystem::exists(cwd.path() + "/transport_health.json"));
}

// --- Transport chaos. Deterministic fault injection on the real byte
// stream: every fault severs a link. BINGO_CHAOS is parsed once per
// process, so the sweep runs in a freshly exec'd driver.

TEST(DistDriver, RunsTheSmallSweepWhenAsked)
{
    if (std::getenv(kDriverEnv) == nullptr)
        return;  // Only a spawnDriver child runs the sweep.
    for (const JobOutcome &outcome : runSweepOutcomes(smallSweep()))
        EXPECT_TRUE(outcome.ok()) << outcome.error;
}

TEST(DistChaos, ChaoticStdioSweepCommitsEveryJobExactlyOnce)
{
    const std::vector<SweepJob> jobs = smallSweep();
    TempDir reference("chaos_ref");
    runReference(jobs, reference.path());

    TempDir dist("chaos_run");
    TempDir telemetry("chaos_tel");
    // Default poison quarantine: a severed link under a live worker
    // must cost its job a retry, never a strike toward quarantine.
    expectDriverSucceeds(spawnDriver(
        {{"BINGO_CHAOS", "11:0.3:transport"},
         {"BINGO_JOURNAL_DIR", dist.path()},
         {"BINGO_DIST_HOSTS",
          workerBinaryPath() + ";" + workerBinaryPath()},
         {"BINGO_TELEMETRY_DIR", telemetry.path()}}));

    // Links were severed in transit — yet the journal is
    // byte-identical to the single-process run: no job lost, none
    // double-committed.
    EXPECT_EQ(dirContents(dist.path()), dirContents(reference.path()));
    EXPECT_FALSE(hasShards(dist.path()));
    // The health report lands in the telemetry directory. (It counts
    // the coordinator's own injections only; which slot draws how many
    // frames is timing-dependent, so the count is not asserted here.)
    const std::string health =
        readFile(telemetry.path() + "/transport_health.json");
    EXPECT_NE(health.find("\"injected_faults\""), std::string::npos)
        << health;
    EXPECT_NE(health.find("\"poisoned\": 0,"), std::string::npos)
        << health;
}

// --- Coordinator crash. kill -9 the coordinator mid-sweep, then rerun
// the driver on the same journal dir: the journal must be
// byte-identical to an uninterrupted single-process run.

TEST(DistCrash, CoordinatorKilledMidSweepResumesByRerunningTheDriver)
{
    const std::vector<SweepJob> jobs = smallSweep();
    TempDir reference("coordkill_ref");
    runReference(jobs, reference.path());

    TempDir dist("coordkill_run");
    TempDir markers("coordkill_markers");
    // Stall job 3 so the coordinator dies with work still in flight.
    const pid_t pid =
        spawnDriver({{"BINGO_JOURNAL_DIR", dist.path()},
                     {"BINGO_DIST_WORKERS", "2"},
                     {"BINGO_DIST_TEST_DIR", markers.path()},
                     {"BINGO_DIST_TEST_STALL_JOB", "3:1200:once"}});
    ASSERT_GT(pid, 0);

    // Kill -9 as soon as the coordinator commits the first record
    // (so some — not all — work survives the crash).
    int status = 0;
    bool exited_early = false;
    for (int spin = 0; spin < 5000; ++spin) {
        if (::waitpid(pid, &status, WNOHANG) == pid) {
            exited_early = true;  // Weaker but valid: resume a no-op.
            break;
        }
        bool found = false;
        std::error_code ec;
        for (const auto &entry :
             std::filesystem::directory_iterator(dist.path(), ec)) {
            if (entry.is_regular_file() &&
                entry.path().extension() == ".run") {
                found = true;
                break;
            }
        }
        if (found)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!exited_early) {
        ::kill(pid, SIGKILL);
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFSIGNALED(status));
        // Orphaned workers see EOF on stdin and exit; the stalled one
        // finishes its nap and its job, fails to report, and dies.
        // Let that play out before resuming.
        std::this_thread::sleep_for(std::chrono::milliseconds(1800));
    }

    // Rerun the same sweep on the same journal dir, uninterrupted.
    expectDriverSucceeds(
        spawnDriver({{"BINGO_JOURNAL_DIR", dist.path()},
                     {"BINGO_DIST_WORKERS", "2"}}));

    EXPECT_EQ(dirContents(dist.path()), dirContents(reference.path()));
    EXPECT_FALSE(hasShards(dist.path()));
}

} // namespace
} // namespace bingo
