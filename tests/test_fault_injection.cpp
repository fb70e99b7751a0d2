/**
 * @file
 * Tests of the fault-tolerant sweep machinery: per-job failure
 * isolation and retries, the crash-safe result journal with
 * bit-identical resume, the per-job watchdog, the SimCheck/SimError
 * self-check layer, and SystemConfig::validate().
 *
 * Environment knobs are set per test through an RAII guard; ctest runs
 * every test in its own process (gtest_discover_tests), so the
 * mutations never leak across tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "cache/mshr.hpp"
#include "common/sim_check.hpp"
#include "sim/experiment.hpp"
#include "sim/journal.hpp"
#include "sim/system.hpp"
#include "sim/thread_pool.hpp"
#include "test_util.hpp"

namespace bingo
{
namespace
{

/** Set an environment variable for one scope, restoring on exit. */
class EnvVar
{
  public:
    EnvVar(const char *name, const std::string &value) : name_(name)
    {
        const char *old = std::getenv(name);
        if (old != nullptr) {
            had_old_ = true;
            old_ = old;
        }
        ::setenv(name, value.c_str(), 1);
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
class TempJournalDir
{
  public:
    explicit TempJournalDir(const std::string &tag)
        : path_(::testing::TempDir() + "bingo_" + tag + "_" +
                std::to_string(::getpid()))
    {
        std::filesystem::remove_all(path_);
    }

    ~TempJournalDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

ExperimentOptions
smallOptions(std::uint64_t seed = 42)
{
    ExperimentOptions options;
    options.warmup_instructions = 4000;
    options.measure_instructions = 8000;
    options.seed = seed;
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
            smallJob("em3d", PrefetcherKind::Stride)};
}

// ---------------------------------------------------------------------
// Failure isolation and retries.

TEST(FaultInjection, RetriesRecoverTransientFailure)
{
    const EnvVar retries("BINGO_RETRIES", "3");
    const std::vector<SweepJob> jobs = smallSweep();

    std::atomic<unsigned> attempts_on_job1{0};
    const SweepFaultHook hook = [&](std::size_t job, unsigned attempt) {
        if (job == 1) {
            attempts_on_job1.fetch_add(1);
            if (attempt < 3)
                throw std::runtime_error("transient fault");
        }
    };
    const std::vector<JobOutcome> outcomes =
        runSweepOutcomes(jobs, 2, hook);

    ASSERT_EQ(outcomes.size(), jobs.size());
    EXPECT_EQ(outcomes[1].status, JobStatus::Ok);
    EXPECT_EQ(outcomes[1].attempts, 3u);
    EXPECT_EQ(attempts_on_job1.load(), 3u);
    EXPECT_EQ(outcomes[0].status, JobStatus::Ok);
    EXPECT_EQ(outcomes[0].attempts, 1u);
    EXPECT_EQ(outcomes[2].status, JobStatus::Ok);
    EXPECT_EQ(outcomes[2].attempts, 1u);

    // The recovered job's result is the same as an undisturbed run.
    const RunResult reference =
        runWorkload(jobs[1].workload, jobs[1].config, jobs[1].options);
    test::expectSameRun(outcomes[1].result, reference);
}

TEST(FaultInjection, AlwaysFailingJobIsolatedFromOthers)
{
    const EnvVar retries("BINGO_RETRIES", "1");
    const std::vector<SweepJob> jobs = smallSweep();

    const SweepFaultHook hook = [](std::size_t job, unsigned) {
        if (job == 0)
            throw std::runtime_error("injected permanent failure");
    };
    const std::vector<JobOutcome> outcomes =
        runSweepOutcomes(jobs, 2, hook);

    EXPECT_EQ(outcomes[0].status, JobStatus::Failed);
    EXPECT_FALSE(outcomes[0].ok());
    EXPECT_EQ(outcomes[0].attempts, 2u);  // 1 + BINGO_RETRIES.
    EXPECT_NE(outcomes[0].error.find("injected permanent failure"),
              std::string::npos);
    EXPECT_NE(outcomes[0].exception, nullptr);
    EXPECT_GE(outcomes[0].wall_seconds, 0.0);

    // Every other job still produced a full result.
    for (std::size_t i = 1; i < outcomes.size(); ++i) {
        EXPECT_EQ(outcomes[i].status, JobStatus::Ok);
        EXPECT_GT(outcomes[i].result.instructions, 0u);
    }

    // reportFailures counts exactly the failed job.
    EXPECT_EQ(reportFailures(jobs, outcomes), 1u);
}

TEST(FaultInjection, UnknownWorkloadFailsNaturally)
{
    const EnvVar retries("BINGO_RETRIES", "0");
    std::vector<SweepJob> jobs = smallSweep();
    jobs[1].workload = "No Such Workload";

    const std::vector<JobOutcome> outcomes = runSweepOutcomes(jobs, 2);
    EXPECT_EQ(outcomes[1].status, JobStatus::Failed);
    EXPECT_EQ(outcomes[1].attempts, 1u);
    EXPECT_FALSE(outcomes[1].error.empty());
    EXPECT_EQ(outcomes[0].status, JobStatus::Ok);
    EXPECT_EQ(outcomes[2].status, JobStatus::Ok);
}

TEST(FaultInjection, InvalidConfigNamesOffendingField)
{
    const EnvVar retries("BINGO_RETRIES", "0");
    std::vector<SweepJob> jobs = {smallJob("Streaming")};
    jobs[0].config.l1d.ways = 0;

    const std::vector<JobOutcome> outcomes = runSweepOutcomes(jobs, 1);
    ASSERT_EQ(outcomes[0].status, JobStatus::Failed);
    EXPECT_NE(outcomes[0].error.find("SystemConfig.l1d.ways"),
              std::string::npos)
        << outcomes[0].error;
}

TEST(FaultInjection, StrictRunSweepStillThrows)
{
    const EnvVar retries("BINGO_RETRIES", "0");
    std::vector<SweepJob> jobs = {smallJob("Streaming")};
    jobs[0].workload = "No Such Workload";
    EXPECT_THROW(runSweep(jobs, 1), std::exception);
}

TEST(FaultInjection, SystemsOutcomesIsolateFailures)
{
    const EnvVar retries("BINGO_RETRIES", "0");
    const std::vector<SweepJob> jobs = smallSweep();

    const SweepFaultHook hook = [](std::size_t job, unsigned) {
        if (job == 2)
            throw std::runtime_error("boom");
    };
    std::mutex mutex;
    std::set<std::size_t> collected;
    const auto collect = [&](std::size_t i, System &system) {
        std::lock_guard<std::mutex> lock(mutex);
        collected.insert(i);
        EXPECT_GT(system.now(), 0u);
    };
    const std::vector<JobOutcome> outcomes =
        runSweepSystemsOutcomes(jobs, collect, 2, hook);

    EXPECT_EQ(collected, (std::set<std::size_t>{0, 1}));
    EXPECT_TRUE(outcomes[0].ok());
    EXPECT_TRUE(outcomes[1].ok());
    EXPECT_EQ(outcomes[2].status, JobStatus::Failed);
    EXPECT_NE(outcomes[2].error.find("boom"), std::string::npos);
}

// ---------------------------------------------------------------------
// ThreadPool counter integrity under throwing jobs.

TEST(ThreadPoolFault, ThrowingJobsDoNotDesyncPool)
{
    ThreadPool pool(4);
    std::atomic<unsigned> ran{0};
    for (unsigned i = 0; i < 32; ++i) {
        pool.submit([i, &ran] {
            ran.fetch_add(1);
            if (i % 2 == 0)
                throw std::runtime_error("job failed");
        });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    EXPECT_EQ(ran.load(), 32u);

    // The pool stays usable: the counter balanced despite 16 throws.
    std::atomic<unsigned> second{0};
    for (unsigned i = 0; i < 8; ++i)
        pool.submit([&second] { second.fetch_add(1); });
    EXPECT_NO_THROW(pool.wait());
    EXPECT_EQ(second.load(), 8u);
}

// ---------------------------------------------------------------------
// Journal: fingerprints, round trips, resume.

TEST(Journal, FingerprintDistinguishesJobs)
{
    const SweepJob base = smallJob("Streaming");
    const std::string fp = jobFingerprint(base);
    EXPECT_EQ(fp, jobFingerprint(base));  // Deterministic.
    EXPECT_EQ(fp.size(), 32u);

    SweepJob other = base;
    other.workload = "em3d";
    EXPECT_NE(jobFingerprint(other), fp);

    other = base;
    other.options.seed = 43;
    EXPECT_NE(jobFingerprint(other), fp);

    other = base;
    other.options.measure_instructions += 1;
    EXPECT_NE(jobFingerprint(other), fp);

    other = base;
    other.config.prefetcher.kind = PrefetcherKind::Sms;
    EXPECT_NE(jobFingerprint(other), fp);

    other = base;
    other.config.llc.size_bytes *= 2;
    EXPECT_NE(jobFingerprint(other), fp);

    // compare_baseline changes what the sweep computes alongside the
    // job, not the job's own result — same fingerprint.
    other = base;
    other.compare_baseline = !base.compare_baseline;
    EXPECT_EQ(jobFingerprint(other), fp);
}

/** The jobs whose fingerprints are pinned: one default job per
 *  PrefetcherKind, a chaos-enabled job, and a Hybrid job with
 *  non-default engines and knobs. */
std::vector<SweepJob>
pinnedJobs()
{
    std::vector<SweepJob> jobs;
    for (unsigned k = 0; k <= static_cast<unsigned>(PrefetcherKind::Hybrid);
         ++k) {
        SweepJob job;
        job.workload = "Data Serving";
        job.config.prefetcher.kind = static_cast<PrefetcherKind>(k);
        jobs.push_back(job);
    }

    SweepJob chaos;
    chaos.workload = "em3d";
    chaos.config.prefetcher.kind = PrefetcherKind::Bingo;
    chaos.config.chaos.enabled = true;
    chaos.config.chaos.seed = 7;
    chaos.config.chaos.rate = 0.002;
    chaos.options.warmup_instructions = 20000;
    chaos.options.measure_instructions = 50000;
    jobs.push_back(chaos);

    SweepJob hybrid;
    hybrid.workload = "Markov Chase";
    hybrid.config.num_cores = 2;
    hybrid.config.llc.replacement = ReplacementKind::Srrip;
    // Distinct values, so swapping two visited fields shows.
    hybrid.config.dram.t_cas = 50;
    hybrid.config.dram.t_rcd = 52;
    hybrid.config.dram.t_rp = 54;
    PrefetcherConfig &pf = hybrid.config.prefetcher;
    pf.kind = PrefetcherKind::Hybrid;
    pf.hybrid_engines = {PrefetcherKind::Spp, PrefetcherKind::Isb};
    pf.hybrid_pc_entries = 512;
    pf.hybrid_issue_budget = 16;
    pf.temporal_filter_threshold = 2;
    pf.vote_threshold = 0.3;
    hybrid.options.seed = 7;
    jobs.push_back(hybrid);
    return jobs;
}

/**
 * Fingerprints name journal records, so a build that changed one would
 * silently orphan every journal written before it. These values come
 * from the build before fingerprints and the worker wire shared one
 * field list (visitConfigFields); the Hybrid job's (the last) from the
 * build before dram.read_queue_entries was fixed at 48, given the same
 * job. The CI oracles cannot catch a drift, since they diff journals
 * written by one binary.
 */
TEST(Journal, FingerprintsArePinnedAcrossBuilds)
{
    const std::vector<std::string> pinned = {
        "32b81e22759f306b8b8dc8f4270a9186",
        "05053597bdde42ae62efb83a6e9a36c3",
        "2db2465ff9ecd85d19b69a31d84e31b0",
        "660c0cfda4e9e958643fd6708fc0c5f5",
        "54346a035d46a7f7375903cb02e218f2",
        "1cc0cb0401193fda4884cf2511a9f84f",
        "19c2b70b35f24199654105704f08fa2c",
        "cea951e22cfed314b39af7f67bdc2ad1",
        "03f80f97a46fe54363fcde3a8808942e",
        "2c9620515ce0400691afc6c53fc981eb",
        "598a65e8ae59b487100a156b1d5a148f",
        "2cb0eb4bf7c23c45f6c9036c5d42ecfa",
        "ab1007ba49979fb239f5d36ca58bd40d",
        "84514eede03a9a37ac9837222a46bd60",
        "186f9630998399c9c969556b6fd98938",
        "7303bca8391debe335f46939667394d6",
    };
    const std::vector<SweepJob> jobs = pinnedJobs();
    ASSERT_EQ(jobs.size(), pinned.size());
    for (std::size_t i = 0; i < jobs.size(); ++i)
        EXPECT_EQ(jobFingerprint(jobs[i]), pinned[i]) << "job " << i;
}

TEST(Journal, StoreLoadRoundTripIsBitExact)
{
    const TempJournalDir dir("journal_roundtrip");
    RunResult result;
    result.workload = "Streaming";
    result.kind = PrefetcherKind::Bingo;
    result.core_ipc = {0.1 + 0.2, 1e-300, 123.456789, 0.0};
    result.instructions = 123456789;
    result.llc.demand_accesses = 1;
    result.llc.demand_misses = 3;
    result.llc.useful_prefetches = 5;
    result.llc.demand_miss_latency = 987654321;
    result.l1d.demand_accesses = 7;
    result.dram.reads = 11;
    result.dram.queue_delay_cycles = 13;
    result.prefetch_storage_bytes = 121856;

    const std::string fp = jobFingerprint(smallJob("Streaming"));
    journalStore(dir.path(), fp, result);

    RunResult loaded;
    ASSERT_TRUE(journalLoad(dir.path(), fp, loaded));
    test::expectSameRun(loaded, result);

    // A different fingerprint finds nothing.
    RunResult missed;
    EXPECT_FALSE(journalLoad(dir.path(),
                             jobFingerprint(smallJob("em3d")), missed));
}

TEST(Journal, RejectsGarbledAndMismatchedRecords)
{
    const TempJournalDir dir("journal_garble");
    RunResult result;
    result.workload = "Streaming";
    result.core_ipc = {1.0};
    const std::string fp = jobFingerprint(smallJob("Streaming"));
    const std::string other_fp = jobFingerprint(smallJob("em3d"));
    journalStore(dir.path(), fp, result);

    // A record renamed onto another job's fingerprint is rejected:
    // the embedded fingerprint no longer matches the filename.
    std::filesystem::copy_file(
        journalRecordPath(dir.path(), fp),
        journalRecordPath(dir.path(), other_fp));
    RunResult out;
    EXPECT_FALSE(journalLoad(dir.path(), other_fp, out));

    // Truncated record: cut the file before the end marker.
    {
        std::ifstream in(journalRecordPath(dir.path(), fp));
        std::string content((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
        ASSERT_GT(content.size(), 20u);
        std::ofstream cut(journalRecordPath(dir.path(), fp),
                          std::ios::trunc);
        cut << content.substr(0, content.size() / 2);
    }
    EXPECT_FALSE(journalLoad(dir.path(), fp, out));

    // Plain garbage.
    {
        std::ofstream garbage(journalRecordPath(dir.path(), fp),
                              std::ios::trunc);
        garbage << "not a journal record at all\n";
    }
    EXPECT_FALSE(journalLoad(dir.path(), fp, out));

    // Absent directory.
    EXPECT_FALSE(journalLoad(dir.path() + "/nope", fp, out));
}

TEST(Journal, EncodeDecodeRoundTripsBitExactly)
{
    // A distributed sweep's coordinator commits what it decodes from a
    // worker's record bytes, so encode(decode(record)) must be the
    // record byte for byte.
    const SweepJob job = smallJob("em3d", PrefetcherKind::Stride);
    const RunResult result =
        runWorkload(job.workload, job.config, job.options);
    const std::string fp = jobFingerprint(job);
    const std::string bytes = journalEncode(fp, result);
    RunResult decoded;
    ASSERT_TRUE(journalDecode(bytes, fp, decoded));
    EXPECT_EQ(journalEncode(fp, decoded), bytes);

    // Wrong fingerprint, truncation, and garbage all decode to false.
    RunResult reject;
    EXPECT_FALSE(journalDecode(bytes, fp + "00", reject));
    EXPECT_FALSE(
        journalDecode(bytes.substr(0, bytes.size() - 4), fp, reject));
    EXPECT_FALSE(journalDecode("bingo-journal 1\n", fp, reject));
}

TEST(Journal, SweepStartDropsTornRecordWrites)
{
    // A writer kill -9'd between journalStore's temp write and its
    // rename leaves the temp file behind. The next sweep over the
    // journal deletes it and re-runs the uncommitted job.
    const TempJournalDir dir("journal_torn");
    const EnvVar journal("BINGO_JOURNAL_DIR", dir.path());
    const std::vector<SweepJob> jobs = {
        smallJob("em3d", PrefetcherKind::Stride)};
    const std::string fp = jobFingerprint(jobs[0]);
    const std::string torn = journalRecordPath(dir.path(), fp) + ".tmp.7";
    std::filesystem::create_directories(dir.path());
    std::ofstream(torn) << "bingo-journal 2\nfingerpr";

    const std::vector<JobOutcome> outcomes = runSweepOutcomes(jobs, 1);
    EXPECT_EQ(outcomes[0].status, JobStatus::Ok);
    EXPECT_FALSE(std::filesystem::exists(torn));
    RunResult restored;
    EXPECT_TRUE(journalLoad(dir.path(), fp, restored));
}

TEST(Journal, SweepResumesSkippingJournaledJobs)
{
    const TempJournalDir dir("journal_resume");
    const EnvVar journal("BINGO_JOURNAL_DIR", dir.path());
    const std::vector<SweepJob> jobs = smallSweep();

    const std::vector<JobOutcome> first = runSweepOutcomes(jobs, 2);
    for (const JobOutcome &outcome : first) {
        EXPECT_EQ(outcome.status, JobStatus::Ok);
        EXPECT_EQ(outcome.attempts, 1u);
    }

    const std::vector<JobOutcome> second = runSweepOutcomes(jobs, 2);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(second[i].status, JobStatus::Skipped);
        EXPECT_EQ(second[i].attempts, 0u);
        test::expectSameRun(second[i].result, first[i].result);
    }
}

TEST(Journal, KillAndResumeReproducesBitIdenticalResults)
{
    // Reference: the sweep run in one piece, no journal.
    const std::vector<SweepJob> jobs = smallSweep();
    std::vector<JobOutcome> reference;
    {
        const EnvVar journal("BINGO_JOURNAL_DIR", "");
        reference = runSweepOutcomes(jobs, 2);
    }

    // "First run, killed mid-sweep": only a prefix of the jobs ever
    // completed and reached the journal before the process died.
    const TempJournalDir dir("journal_kill");
    const EnvVar journal("BINGO_JOURNAL_DIR", dir.path());
    const std::vector<SweepJob> prefix(jobs.begin(), jobs.begin() + 2);
    const std::vector<JobOutcome> partial = runSweepOutcomes(prefix, 2);
    ASSERT_EQ(partial.size(), 2u);

    // Resume: the journaled prefix is skipped, the rest simulated, and
    // every result matches the uninterrupted reference bit for bit.
    const std::vector<JobOutcome> resumed = runSweepOutcomes(jobs, 2);
    ASSERT_EQ(resumed.size(), jobs.size());
    EXPECT_EQ(resumed[0].status, JobStatus::Skipped);
    EXPECT_EQ(resumed[1].status, JobStatus::Skipped);
    EXPECT_EQ(resumed[2].status, JobStatus::Ok);
    for (std::size_t i = 0; i < jobs.size(); ++i)
        test::expectSameRun(resumed[i].result, reference[i].result);
}

// ---------------------------------------------------------------------
// Watchdog.

TEST(Watchdog, TimeoutConvertsHungJobIntoFailure)
{
    const EnvVar retries("BINGO_RETRIES", "0");
    const EnvVar timeout("BINGO_JOB_TIMEOUT_S", "0.005");

    SweepJob job = smallJob("Streaming");
    job.options.measure_instructions = 500 * 1000 * 1000;  // "Hung".
    const std::vector<JobOutcome> outcomes = runSweepOutcomes({job}, 1);

    ASSERT_EQ(outcomes[0].status, JobStatus::Failed);
    EXPECT_NE(outcomes[0].error.find("watchdog"), std::string::npos)
        << outcomes[0].error;
    EXPECT_NE(outcomes[0].error.find("progress"), std::string::npos)
        << outcomes[0].error;
    // The watchdog fired long before the sim could finish 500M instrs.
    EXPECT_LT(outcomes[0].wall_seconds, 60.0);
}

TEST(Watchdog, BaselineHonoursTheJobTimeout)
{
    // A baseline is computed like any sweep job, watchdog included.
    const EnvVar retries("BINGO_RETRIES", "0");
    const EnvVar timeout("BINGO_JOB_TIMEOUT_S", "0.001");
    ExperimentOptions options = smallOptions(/*seed=*/4242);
    options.measure_instructions = 2 * 1000 * 1000;
    EXPECT_EQ(tryBaselineFor("Streaming", SystemConfig{}, options),
              nullptr);
}

TEST(Watchdog, TimeoutBeyondTheClockRangeNeverFires)
{
    // 1e10 s is past the end of steady_clock's range from now: the
    // deadline saturates instead of overflowing into the past.
    const EnvVar retries("BINGO_RETRIES", "0");
    const EnvVar timeout("BINGO_JOB_TIMEOUT_S", "1e10");
    for (const JobOutcome &outcome : runSweepOutcomes(smallSweep(), 1))
        EXPECT_EQ(outcome.status, JobStatus::Ok) << outcome.error;
}

TEST(Watchdog, DeadlineThrowsSimErrorWithContext)
{
    SystemConfig config;
    config.num_cores = 1;
    System system(config, "Streaming");
    system.setDeadline(std::chrono::steady_clock::now() -
                       std::chrono::seconds(1));
    try {
        system.run(0, 100000);
        FAIL() << "expected SimError from the expired watchdog";
    } catch (const SimError &e) {
        EXPECT_EQ(e.component(), "watchdog");
        EXPECT_NE(std::string(e.what()).find("watchdog"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("progress"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// SimCheck / SimError.

TEST(SimCheck, MshrOverflowThrowsSimErrorWithComponentAndCycle)
{
    MshrFile mshrs(1, "LLC.mshr");
    mshrs.allocate(0x1000, false, 0, 41);
    try {
        mshrs.allocate(0x2000, false, 0, 77);
        FAIL() << "expected SimError on MSHR overflow";
    } catch (const SimError &e) {
        EXPECT_EQ(e.component(), "LLC.mshr");
        EXPECT_EQ(e.cycle(), 77u);
        const std::string what = e.what();
        EXPECT_NE(what.find("LLC.mshr"), std::string::npos) << what;
        EXPECT_NE(what.find("77"), std::string::npos) << what;
    }
}

TEST(SimCheck, DuplicateMshrAllocationThrows)
{
    // The duplicate scan is a pure double-check (every caller probes
    // find() first), so it runs only under the BINGO_CHECK layer.
    MshrFile mshrs(4, "L1D0.mshr");
    mshrs.allocate(0x1000, false, 0, 5);
    setSimCheckEnabled(true);
    EXPECT_THROW(mshrs.allocate(0x1000, true, 0, 6), SimError);
    setSimCheckEnabled(false);
}

TEST(SimCheck, ReleasingAbsentMshrEntryThrows)
{
    MshrFile mshrs(4, "L1D0.mshr");
    try {
        mshrs.release(0xdead000, 123);
        FAIL() << "expected SimError on absent release";
    } catch (const SimError &e) {
        EXPECT_EQ(e.component(), "L1D0.mshr");
        EXPECT_EQ(e.cycle(), 123u);
    }
}

TEST(SimCheck, ZeroCapacityMshrRejected)
{
    EXPECT_THROW(MshrFile(0, "x"), std::invalid_argument);
}

TEST(SimCheck, EnabledRunPassesInvariants)
{
    setSimCheckEnabled(true);
    SweepJob job = smallJob("Data Serving", PrefetcherKind::Bingo);
    SystemConfig cfg = job.config;
    cfg.seed = job.options.seed;
    System system(cfg, job.workload);
    EXPECT_NO_THROW(system.run(job.options.warmup_instructions,
                               job.options.measure_instructions));
    EXPECT_NO_THROW(system.checkInvariants());
    setSimCheckEnabled(false);
}

TEST(SimCheck, ToggleOverridesEnvironment)
{
    setSimCheckEnabled(true);
    EXPECT_TRUE(simCheckEnabled());
    setSimCheckEnabled(false);
    EXPECT_FALSE(simCheckEnabled());
}

// ---------------------------------------------------------------------
// SystemConfig::validate().

TEST(ConfigValidate, DefaultsAreValid)
{
    EXPECT_NO_THROW(SystemConfig{}.validate());
    EXPECT_NO_THROW(SystemConfig::singleCore().validate());
}

TEST(ConfigValidate, NamesTheOffendingField)
{
    const auto expectRejects = [](const char *field,
                                  auto &&mutate) {
        SystemConfig config;
        mutate(config);
        try {
            config.validate();
            FAIL() << "expected a reject for " << field;
        } catch (const std::invalid_argument &e) {
            EXPECT_NE(std::string(e.what()).find(field),
                      std::string::npos)
                << e.what();
        }
    };

    expectRejects("SystemConfig.num_cores",
                  [](SystemConfig &c) { c.num_cores = 0; });
    expectRejects("SystemConfig.frequency_ghz",
                  [](SystemConfig &c) { c.frequency_ghz = -4.0; });
    expectRejects("SystemConfig.l1d.ways",
                  [](SystemConfig &c) { c.l1d.ways = 0; });
    expectRejects("SystemConfig.l1d.mshr_entries",
                  [](SystemConfig &c) { c.l1d.mshr_entries = 0; });
    expectRejects("SystemConfig.llc.size_bytes", [](SystemConfig &c) {
        c.llc.size_bytes = 3 * 1024 * 1024;  // 3072 sets: not 2^n.
    });
    expectRejects("SystemConfig.dram.channels",
                  [](SystemConfig &c) { c.dram.channels = 0; });
    expectRejects("SystemConfig.dram.row_size_bytes",
                  [](SystemConfig &c) { c.dram.row_size_bytes = 100; });
    expectRejects("SystemConfig.prefetcher.region_blocks",
                  [](SystemConfig &c) {
                      c.prefetcher.region_blocks = 3;
                  });
    expectRejects("SystemConfig.prefetcher.pht_entries",
                  [](SystemConfig &c) {
                      c.prefetcher.pht_entries = 100;  // 100/16 sets.
                  });
    expectRejects("SystemConfig.prefetcher.vote_threshold",
                  [](SystemConfig &c) {
                      c.prefetcher.vote_threshold = 1.5;
                  });
    expectRejects("SystemConfig.prefetcher.bop_degree",
                  [](SystemConfig &c) { c.prefetcher.bop_degree = 0; });
    expectRejects("SystemConfig.prefetcher.num_events",
                  [](SystemConfig &c) { c.prefetcher.num_events = 9; });
}

TEST(ConfigValidate, RunWorkloadValidatesUpFront)
{
    SystemConfig config;
    config.llc.ways = 0;
    EXPECT_THROW(runWorkload("Streaming", config, smallOptions()),
                 std::invalid_argument);
}

} // namespace
} // namespace bingo
