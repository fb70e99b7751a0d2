/**
 * @file
 * Reproducibility tests: identical seeds must produce bit-identical
 * simulations — the property every experiment in bench/ relies on —
 * and the prefetcher factory must build what it is asked for.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "chaos/chaos.hpp"
#include "workload/generator.hpp"
#include "prefetch/ampm.hpp"
#include "prefetch/bingo.hpp"
#include "prefetch/bingo_multi.hpp"
#include "prefetch/bop.hpp"
#include "prefetch/event_study.hpp"
#include "prefetch/nextline.hpp"
#include "prefetch/sms.hpp"
#include "prefetch/spp.hpp"
#include "prefetch/stride.hpp"
#include "prefetch/vldp.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/system.hpp"
#include "test_util.hpp"
#include "workload/trace_cache.hpp"

namespace bingo
{
namespace
{

RunResult
runOnce(PrefetcherKind kind, std::uint64_t seed)
{
    SystemConfig config = SystemConfig::singleCore();
    config.prefetcher.kind = kind;
    config.seed = seed;
    System system(config, "Data Serving");
    system.run(10000, 20000);
    return collectResult(system, "Data Serving");
}

/** One run with the fast-forward path explicitly toggled. */
RunResult
runWithSkip(SystemConfig config, const std::string &workload, bool skip,
            Cycle *final_cycle, std::uint64_t *skipped)
{
    config.seed = 7;
    System system(config, workload);
    system.setCycleSkipping(skip);
    system.run(10000, 20000);
    if (final_cycle != nullptr)
        *final_cycle = system.now();
    if (skipped != nullptr)
        *skipped = system.skippedCycles();
    return collectResult(system, workload);
}

TEST(Determinism, IdenticalSeedsIdenticalRuns)
{
    test::expectSameRun(runOnce(PrefetcherKind::Bingo, 7),
                        runOnce(PrefetcherKind::Bingo, 7));
}

TEST(Determinism, DifferentSeedsDifferentRuns)
{
    const RunResult a = runOnce(PrefetcherKind::None, 7);
    const RunResult b = runOnce(PrefetcherKind::None, 8);
    EXPECT_NE(a.llc.demand_misses, b.llc.demand_misses);
}

/**
 * Telemetry is read-only over the simulation: a run with collectors
 * attached must be bit-identical to a run without (the determinism
 * guard that keeps observability from perturbing the experiments).
 */
TEST(Determinism, TelemetryDoesNotPerturbResults)
{
    const RunResult plain = runOnce(PrefetcherKind::Bingo, 7);

    SystemConfig config = SystemConfig::singleCore();
    config.prefetcher.kind = PrefetcherKind::Bingo;
    config.seed = 7;
    System system(config, "Data Serving");
    telemetry::Options options;
    options.epoch_instructions = 2000;  // Many epoch boundaries.
    system.enableTelemetry(options);
    system.run(10000, 20000);
    const RunResult observed = collectResult(system, "Data Serving");

    test::expectSameRun(plain, observed);

    // The collectors must actually have been collecting.
    ASSERT_NE(system.telemetry(), nullptr);
    const auto &records = system.telemetry()->epochs().records();
    ASSERT_FALSE(records.empty());
    std::uint64_t measure_instructions = 0;
    for (const auto &record : records) {
        if (record.phase == "measure")
            measure_instructions += record.delta.instructions;
    }
    EXPECT_EQ(measure_instructions, observed.instructions);
}

/**
 * The tentpole guarantee of the fast-forward run loop: skipping stall
 * cycles must be bit-identical to stepping through them — same
 * counters, same final cycle — for every registered prefetcher, whose
 * stall structures differ widely (no prefetcher stalls the most; the
 * spatial, delta and temporal engines overlap misses and reshape every
 * stall window).
 */
class SkipEquivalenceTest
    : public ::testing::TestWithParam<PrefetcherKind>
{
  protected:
    /** Run `workload` stepped and skipped under the parameter. */
    static void
    expectSkipMatchesStepping(SystemConfig config,
                              const std::string &workload)
    {
        config.prefetcher.kind = GetParam();
        Cycle stepped_end = 0;
        Cycle skipped_end = 0;
        std::uint64_t stepped_jumps = 0;
        std::uint64_t skipped_jumps = 0;
        const RunResult stepped = runWithSkip(config, workload, false,
                                              &stepped_end, &stepped_jumps);
        const RunResult skipped = runWithSkip(config, workload, true,
                                              &skipped_end, &skipped_jumps);

        test::expectSameRun(stepped, skipped);
        EXPECT_EQ(stepped_end, skipped_end);
        // The toggle must actually change the execution strategy, or
        // this test proves nothing.
        EXPECT_EQ(stepped_jumps, 0u);
        EXPECT_GT(skipped_jumps, 0u);
        EXPECT_LT(skipped_jumps, skipped_end);
    }
};

TEST_P(SkipEquivalenceTest, SkipOnMatchesSkipOffBitIdentically)
{
    expectSkipMatchesStepping(SystemConfig::singleCore(), "Data Serving");
}

/**
 * Four cores sharing the LLC and DRAM: writebacks and bank contention
 * leave DRAM's bank and bus timers furthest past the next event, so a
 * jump that skipped state DRAM still needed would diverge here first.
 */
TEST_P(SkipEquivalenceTest, SkipOnMatchesSkipOffOnAFourCoreMix)
{
    expectSkipMatchesStepping(SystemConfig{}, "Mix 3");
}

/**
 * Four cores on Streaming, the application with the longest compute
 * runs: most skipped cycles are compute windows that each core replays
 * lazily, while its neighbours' misses keep landing in between.
 */
TEST_P(SkipEquivalenceTest, SkipOnMatchesSkipOffOnFourComputeBoundCores)
{
    expectSkipMatchesStepping(SystemConfig{}, "Streaming");
}

/**
 * A core-config corner for the replayed compute runs: an odd width
 * against a ROB size that is not a power of two and a multi-cycle ALU
 * latency, so timed runs retire across cycle boundaries mid-run.
 */
TEST_P(SkipEquivalenceTest, SkipOnMatchesSkipOffOnAnOddCoreConfig)
{
    SystemConfig config = SystemConfig::singleCore();
    config.core.width = 2;
    config.core.rob_entries = 100;
    config.core.alu_latency = 3;
    expectSkipMatchesStepping(config, "SAT Solver");
}

/** Every kind in the prefetcher registry, in registry order. */
std::vector<PrefetcherKind>
registeredKinds()
{
    std::vector<PrefetcherKind> kinds;
    for (const std::string &name : registeredPrefetcherNames())
        kinds.push_back(prefetcherKindFromName(name));
    return kinds;
}

INSTANTIATE_TEST_SUITE_P(Prefetchers, SkipEquivalenceTest,
                         ::testing::ValuesIn(registeredKinds()));

/**
 * With telemetry on, the skipped loop must produce exactly the same
 * epoch stream: same record count, phases, boundaries, and deltas.
 * (The fast-forward path caps jumps at the epoch-check boundary so
 * samples land on the same cycles the stepped loop samples at, and
 * syncs every core first, so a core that is replaying a compute run
 * lazily still reports the instructions it has retired.)
 */
void
expectSkipPreservesEpochStreams(SystemConfig config,
                                const std::string &workload)
{
    const auto runTelemetry = [&](bool skip) {
        config.prefetcher.kind = PrefetcherKind::Bingo;
        config.seed = 7;
        auto system = std::make_unique<System>(config, workload);
        system->setCycleSkipping(skip);
        telemetry::Options options;
        options.epoch_instructions = 2000;  // Many epoch boundaries.
        system->enableTelemetry(options);
        system->run(10000, 20000);
        return system;
    };
    const auto stepped = runTelemetry(false);
    const auto skipped = runTelemetry(true);
    EXPECT_GT(skipped->skippedCycles(), 0u);

    const auto &a = stepped->telemetry()->epochs().records();
    const auto &b = skipped->telemetry()->epochs().records();
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].phase, b[i].phase) << "epoch " << i;
        EXPECT_EQ(a[i].index, b[i].index) << "epoch " << i;
        EXPECT_EQ(a[i].start_cycle, b[i].start_cycle) << "epoch " << i;
        EXPECT_EQ(a[i].end_cycle, b[i].end_cycle) << "epoch " << i;
        EXPECT_EQ(a[i].delta.instructions, b[i].delta.instructions)
            << "epoch " << i;
        EXPECT_EQ(a[i].delta.llc_demand_misses,
                  b[i].delta.llc_demand_misses)
            << "epoch " << i;
        EXPECT_EQ(a[i].delta.dram_reads, b[i].delta.dram_reads)
            << "epoch " << i;
        EXPECT_EQ(a[i].delta.pf_issued, b[i].delta.pf_issued)
            << "epoch " << i;
        EXPECT_EQ(a[i].delta.pf_useful, b[i].delta.pf_useful)
            << "epoch " << i;
    }
}

TEST(Determinism, SkipPreservesTelemetryEpochStreams)
{
    expectSkipPreservesEpochStreams(SystemConfig::singleCore(),
                                    "Data Serving");
}

/**
 * Four cores: when an epoch boundary is checked, some cores are mid
 * compute run and have not been stepped for many cycles, so the
 * instruction count the boundary is decided on depends on syncing
 * every one of them first.
 */
TEST(Determinism, SkipPreservesTelemetryEpochStreamsOnFourCores)
{
    expectSkipPreservesEpochStreams(SystemConfig{}, "Streaming");
}

/**
 * Chaos does not weaken the reproducibility guarantee: fault draws
 * happen per opportunity (per record, access, fetch), never per cycle,
 * so a chaos run is bit-identical across repeats and across the
 * fast-forward toggle — the property that makes a chaos experiment a
 * reproducible experiment rather than a flaky one.
 */
RunResult
runChaos(bool skip, std::uint64_t chaos_seed,
         chaos::ChaosCounters *counters, std::uint64_t *skipped)
{
    SystemConfig config = SystemConfig::singleCore();
    config.prefetcher.kind = PrefetcherKind::Bingo;
    config.seed = 7;
    config.chaos.enabled = true;
    config.chaos.seed = chaos_seed;
    config.chaos.rate = 0.002;
    config.chaos.site_mask = 0x1F;
    System system(config, "Data Serving");
    system.setCycleSkipping(skip);
    system.run(10000, 20000);
    if (counters != nullptr)
        *counters = system.chaosEngine()->counters();
    if (skipped != nullptr)
        *skipped = system.skippedCycles();
    return collectResult(system, "Data Serving");
}

TEST(ChaosDeterminism, SameSeedsSameFaultsSameRun)
{
    chaos::ChaosCounters ca;
    chaos::ChaosCounters cb;
    const RunResult a = runChaos(true, 99, &ca, nullptr);
    const RunResult b = runChaos(true, 99, &cb, nullptr);
    test::expectSameRun(a, b);
    EXPECT_EQ(test::counterMap(ca), test::counterMap(cb));
    // The injector must actually have been injecting.
    EXPECT_GT(ca.trace_corruptions, 0u);
}

TEST(ChaosDeterminism, SkipOnMatchesSkipOffUnderChaos)
{
    chaos::ChaosCounters stepped_counters;
    chaos::ChaosCounters skipped_counters;
    std::uint64_t stepped_jumps = 0;
    std::uint64_t skipped_jumps = 0;
    const RunResult stepped =
        runChaos(false, 99, &stepped_counters, &stepped_jumps);
    const RunResult skipped =
        runChaos(true, 99, &skipped_counters, &skipped_jumps);
    test::expectSameRun(stepped, skipped);
    EXPECT_EQ(test::counterMap(stepped_counters),
              test::counterMap(skipped_counters));
    // Same faults, but genuinely different execution strategies.
    EXPECT_EQ(stepped_jumps, 0u);
    EXPECT_GT(skipped_jumps, 0u);
}

TEST(ChaosDeterminism, DifferentChaosSeedDifferentFaults)
{
    chaos::ChaosCounters ca;
    chaos::ChaosCounters cb;
    const RunResult a = runChaos(true, 99, &ca, nullptr);
    const RunResult b = runChaos(true, 100, &cb, nullptr);
    const bool counters_differ =
        test::counterMap(ca) != test::counterMap(cb);
    const bool results_differ =
        a.llc.demand_misses != b.llc.demand_misses ||
        a.dram.reads != b.dram.reads;
    EXPECT_TRUE(counters_differ || results_differ);
}

/** The factory builds every advertised prefetcher. */
class FactoryTest : public ::testing::TestWithParam<PrefetcherKind>
{
};

TEST_P(FactoryTest, BuildsCorrectType)
{
    PrefetcherConfig config;
    config.kind = GetParam();
    auto pf = makePrefetcher(config);
    if (GetParam() == PrefetcherKind::None) {
        EXPECT_EQ(pf, nullptr);
        return;
    }
    ASSERT_NE(pf, nullptr);
    EXPECT_EQ(pf->name(), GetParam() == PrefetcherKind::EventStudy
                              ? "EventStudy"
                              : prefetcherName(GetParam()));
    // Every prefetcher tolerates a burst of arbitrary accesses.
    std::vector<Addr> out;
    for (Addr b = 0; b < 64; ++b) {
        PrefetchAccess access;
        access.pc = 0x400 + (b % 8) * 4;
        access.block = b * kBlockSize;
        pf->onAccess(access, out);
    }
    pf->onEviction(0);
    for (Addr target : out)
        EXPECT_EQ(target % kBlockSize, 0u) << "unaligned prefetch";
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, FactoryTest,
    ::testing::Values(PrefetcherKind::None, PrefetcherKind::NextLine,
                      PrefetcherKind::Stride, PrefetcherKind::Bop,
                      PrefetcherKind::Spp, PrefetcherKind::Vldp,
                      PrefetcherKind::Ampm, PrefetcherKind::Sms,
                      PrefetcherKind::Bingo,
                      PrefetcherKind::BingoMulti,
                      PrefetcherKind::EventStudy, PrefetcherKind::Isb,
                      PrefetcherKind::Domino,
                      PrefetcherKind::Hybrid));

/** SPEC kernels must exhibit their documented locality classes. */
TEST(SpecKernels, LibquantumIsSequential)
{
    auto kernel = makeSpecKernel("libquantum", 3);
    Addr prev = 0;
    int sequential = 0;
    int loads = 0;
    for (int i = 0; i < 30000; ++i) {
        const TraceRecord rec = kernel->next();
        if (rec.type != InstrType::Load &&
            rec.type != InstrType::Store) {
            continue;
        }
        ++loads;
        if (prev != 0 && blockNumber(rec.addr) == blockNumber(prev) + 1)
            ++sequential;
        prev = rec.addr;
    }
    EXPECT_GT(sequential, loads / 2);
}

TEST(SpecKernels, OmnetppIsIrregular)
{
    auto kernel = makeSpecKernel("omnetpp", 3);
    Addr prev = 0;
    int sequential = 0;
    int loads = 0;
    for (int i = 0; i < 30000; ++i) {
        const TraceRecord rec = kernel->next();
        if (rec.type != InstrType::Load)
            continue;
        ++loads;
        if (prev != 0 &&
            blockNumber(rec.addr) == blockNumber(prev) + 1) {
            ++sequential;
        }
        prev = rec.addr;
    }
    EXPECT_LT(sequential, loads / 4);
}

/** Share of accesses landing on the single most-touched region. */
double
hottestRegionShare(const std::string &kernel_name)
{
    auto kernel = makeSpecKernel(kernel_name, 3);
    std::map<Addr, int> counts;
    int accesses = 0;
    for (int i = 0; i < 400000 && accesses < 5000; ++i) {
        const TraceRecord rec = kernel->next();
        if (rec.type == InstrType::Load ||
            rec.type == InstrType::Store) {
            ++accesses;
            ++counts[regionNumber(rec.addr)];
        }
    }
    int hottest = 0;
    for (const auto &[region, count] : counts)
        hottest = std::max(hottest, count);
    return static_cast<double>(hottest) / accesses;
}

TEST(SpecKernels, PerlbenchRevisitsLbmStreams)
{
    // perlbench's hot interpreter state is revisited constantly; lbm
    // streams through fresh grid regions and never returns within a
    // short window. The hottest region's access share separates the
    // two locality classes.
    EXPECT_GT(hottestRegionShare("perlbench"),
              2.0 * hottestRegionShare("lbm"));
}

// --- Planned trace streams ---------------------------------------------

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

/** Filename -> full contents of every journal record in `dir`. */
std::map<std::string, std::string>
journalSnapshot(const std::string &dir)
{
    std::map<std::string, std::string> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        std::ifstream in(entry.path(), std::ios::binary);
        std::string contents(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        files.emplace(entry.path().filename().string(),
                      std::move(contents));
    }
    return files;
}

/**
 * A sweep mixing every case of the sweep runner's trace plan: a
 * single-use stream (Zeus), a stream two jobs share (em3d), and a
 * compare_baseline job whose 4-core baseline shares core 0's stream
 * with it and uses cores 1-3 alone.
 */
std::vector<SweepJob>
plannedStreamJobs()
{
    std::vector<SweepJob> jobs;
    const auto add = [&jobs](const char *workload, PrefetcherKind kind,
                             bool compare_baseline) {
        SweepJob job;
        job.workload = workload;
        job.config = SystemConfig::singleCore();
        job.config.prefetcher.kind = kind;
        job.options.warmup_instructions = 2000;
        job.options.measure_instructions = 5000;
        job.options.seed = 42;
        job.compare_baseline = compare_baseline;
        jobs.push_back(job);
    };
    add("Zeus", PrefetcherKind::Bingo, false);
    add("em3d", PrefetcherKind::None, false);
    add("em3d", PrefetcherKind::Sms, false);
    add("Streaming", PrefetcherKind::Bop, true);
    return jobs;
}

/**
 * Journal of plannedStreamJobs() swept at a trace-cache budget and
 * worker count. The sweep runs in a forked child, so the baseline memo
 * and the trace cache start empty as in a fresh bench process (a
 * memoized baseline would not be journaled again).
 */
std::map<std::string, std::string>
plannedSweepJournal(std::uint64_t budget, unsigned num_threads)
{
    const TempDir dir("planned" + std::to_string(budget) + "x" +
                      std::to_string(num_threads));
    const pid_t pid = ::fork();
    if (pid == 0) {
        ::setenv("BINGO_JOURNAL_DIR", dir.path().c_str(), 1);
        TraceCache::instance().setBudgetBytes(budget);
        bool ok = true;
        for (const JobOutcome &outcome :
             runSweepOutcomes(plannedStreamJobs(), num_threads))
            ok = ok && outcome.status == JobStatus::Ok;
        ::_exit(ok ? 0 : 1);
    }
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "budget " << budget << ", " << num_threads << " threads";
    return journalSnapshot(dir.path());
}

/**
 * The plan decides only where a core's records come from — a shared
 * buffer or a private generator — never what they are: the journals
 * match byte for byte with caching off and at the default budget, at
 * one and two threads.
 */
TEST(PlannedStreamDeterminism, JournalsIdenticalAcrossBudgetsAndThreads)
{
    constexpr std::uint64_t kDefaultBudget = std::uint64_t{512} << 20;
    const auto reference = plannedSweepJournal(0, 1);
    // One record per job and one for the baseline.
    ASSERT_EQ(reference.size(), plannedStreamJobs().size() + 1);
    EXPECT_EQ(reference, plannedSweepJournal(kDefaultBudget, 1));
    EXPECT_EQ(reference, plannedSweepJournal(0, 2));
    EXPECT_EQ(reference, plannedSweepJournal(kDefaultBudget, 2));
}

} // namespace
} // namespace bingo
