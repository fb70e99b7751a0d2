/**
 * @file
 * Integration tests: the full System (cores x caches x prefetcher x
 * DRAM) on scripted and synthetic workloads. These exercise the whole
 * stack end-to-end and pin the headline behaviours the paper's
 * evaluation rests on.
 */

#include <gtest/gtest.h>

#include "prefetch/event_study.hpp"
#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/system.hpp"
#include "test_util.hpp"

namespace bingo
{
namespace
{

/** Small single-core config for fast integration runs. */
SystemConfig
tinyConfig(PrefetcherKind kind)
{
    SystemConfig config = SystemConfig::singleCore();
    config.prefetcher.kind = kind;
    config.seed = 42;
    return config;
}

/**
 * A footprint workload: visits random regions of a large pool, always
 * touching the same four offsets with the same PCs — the canonical
 * spatially-correlated pattern.
 */
class FootprintWorkload : public TraceSource
{
  public:
    explicit FootprintWorkload(std::uint64_t seed) : rng_(seed) {}

    const TraceRecord *
    borrowBatch(std::size_t, std::size_t &got) override
    {
        if (queue_.empty()) {
            const Addr region = rng_.below(200000);
            const Addr base = (1ULL << 42) + region * kRegionSize;
            for (unsigned f = 0; f < 4; ++f) {
                // The record is reached through a pointer: its field
                // loads serialize behind the first access, which is
                // what makes the baseline latency-bound.
                queue_.push_back(TraceRecord{
                    0x400 + f * 4, base + kOffsets[f] * kBlockSize,
                    InstrType::Load, /*dependent=*/f == 1});
                for (int i = 0; i < 10; ++i)
                    queue_.push_back(
                        TraceRecord{0x900, 0, InstrType::Alu});
            }
        }
        got = 1;
        current_ = queue_.front();
        queue_.pop_front();
        return &current_;
    }

  private:
    static constexpr Addr kOffsets[4] = {0, 6, 13, 27};
    Rng rng_;
    std::deque<TraceRecord> queue_;
    TraceRecord current_;
};

RunResult
runTiny(PrefetcherKind kind, std::uint64_t instructions = 150000)
{
    SystemConfig config = tinyConfig(kind);
    std::vector<std::unique_ptr<TraceSource>> sources;
    sources.push_back(std::make_unique<FootprintWorkload>(7));
    System system(config, std::move(sources));
    system.run(instructions / 2, instructions);
    return collectResult(system, "footprint");
}

TEST(SystemIntegration, BaselineRunsAndMisses)
{
    const RunResult result = runTiny(PrefetcherKind::None);
    EXPECT_GT(result.instructions, 0u);
    EXPECT_GT(result.llc.demand_misses, 1000u);
    EXPECT_GT(result.core_ipc[0], 0.0);
    EXPECT_GT(result.dram.reads, 0u);
}

TEST(SystemIntegration, CycleSkippingIsOnByDefaultAndUsed)
{
    // The fast-forward path is the default execution strategy (the
    // BINGO_NO_SKIP escape hatch is not set in the test environment),
    // and a latency-bound workload must actually exercise it.
    SystemConfig config = tinyConfig(PrefetcherKind::None);
    std::vector<std::unique_ptr<TraceSource>> sources;
    sources.push_back(std::make_unique<FootprintWorkload>(7));
    System system(config, std::move(sources));
    EXPECT_TRUE(system.cycleSkippingEnabled());
    EXPECT_EQ(system.skippedCycles(), 0u);
    system.run(10000, 20000);
    EXPECT_GT(system.skippedCycles(), 0u);
    EXPECT_LT(system.skippedCycles(), system.now());
}

TEST(SystemIntegration, SkipToggleDoesNotChangeTheClock)
{
    const auto finalCycle = [](bool skip) {
        SystemConfig config = tinyConfig(PrefetcherKind::None);
        std::vector<std::unique_ptr<TraceSource>> sources;
        sources.push_back(std::make_unique<FootprintWorkload>(7));
        System system(config, std::move(sources));
        system.setCycleSkipping(skip);
        system.run(10000, 20000);
        return system.now();
    };
    EXPECT_EQ(finalCycle(false), finalCycle(true));
}

TEST(SystemIntegration, BingoCoversFootprintWorkload)
{
    const RunResult base = runTiny(PrefetcherKind::None);
    const RunResult with_bingo = runTiny(PrefetcherKind::Bingo);
    const PrefetchMetrics metrics = computeMetrics(base, with_bingo);
    // Four-block fixed footprints behind one trigger event: Bingo must
    // cover most of the three non-trigger blocks (~75% ceiling).
    EXPECT_GT(metrics.coverage, 0.5);
    EXPECT_GT(metrics.accuracy, 0.8);
    EXPECT_GT(speedup(base, with_bingo), 1.2);
}

TEST(SystemIntegration, SmsAlsoCoversButNoBetterThanBingo)
{
    const RunResult base = runTiny(PrefetcherKind::None);
    const RunResult with_sms = runTiny(PrefetcherKind::Sms);
    const RunResult with_bingo = runTiny(PrefetcherKind::Bingo);
    const PrefetchMetrics sms = computeMetrics(base, with_sms);
    const PrefetchMetrics bingo = computeMetrics(base, with_bingo);
    EXPECT_GT(sms.coverage, 0.3);
    EXPECT_GE(bingo.coverage + 0.05, sms.coverage);
}

TEST(SystemIntegration, PrefetcherlessSystemIssuesNoPrefetches)
{
    const RunResult result = runTiny(PrefetcherKind::None);
    EXPECT_EQ(result.llc.prefetch_requests, 0u);
    EXPECT_EQ(result.llc.useful_prefetches, 0u);
}

TEST(SystemIntegration, StatsResetBetweenPhases)
{
    SystemConfig config = tinyConfig(PrefetcherKind::None);
    std::vector<std::unique_ptr<TraceSource>> sources;
    sources.push_back(std::make_unique<FootprintWorkload>(7));
    System system(config, std::move(sources));
    system.run(50000, 50000);
    // Measured instructions equal the measurement quota, not
    // warmup + quota.
    EXPECT_EQ(system.core(0).measuredInstructions(), 50000u);
}

TEST(SystemIntegration, FourCoreTableIWorkloadRuns)
{
    SystemConfig config;  // Full Table I system.
    config.prefetcher.kind = PrefetcherKind::Bingo;
    config.seed = 1;
    System system(config, "Data Serving");
    system.run(20000, 40000);
    RunResult result = collectResult(system, "Data Serving");
    ASSERT_EQ(result.core_ipc.size(), 4u);
    for (double ipc : result.core_ipc) {
        EXPECT_GT(ipc, 0.0);
        EXPECT_LT(ipc, 4.0);
    }
    EXPECT_EQ(result.instructions, 4u * 40000u);
}

TEST(SystemIntegration, EveryWorkloadBuildsAndRuns)
{
    for (const std::string &workload : workloadNames()) {
        SystemConfig config = SystemConfig::singleCore();
        config.num_cores = 1;
        config.prefetcher.kind = PrefetcherKind::Bingo;
        System system(config, workload);
        system.run(2000, 4000);
        EXPECT_EQ(system.core(0).measuredInstructions(), 4000u)
            << workload;
    }
}

TEST(SystemIntegration, EventStudyObserverCollects)
{
    SystemConfig config = tinyConfig(PrefetcherKind::EventStudy);
    std::vector<std::unique_ptr<TraceSource>> sources;
    sources.push_back(std::make_unique<FootprintWorkload>(7));
    System system(config, std::move(sources));
    system.run(150000, 150000);
    auto &observer =
        static_cast<EventStudyObserver &>(*system.prefetcher(0));
    const auto &pc_offset = observer.result(EventKind::PcOffset);
    EXPECT_GT(pc_offset.triggers, 100u);
    EXPECT_GT(pc_offset.matchProbability(), 0.8);
    EXPECT_GT(pc_offset.accuracy(), 0.9);
    // PC+Address almost never recurs over a 200K-region pool.
    EXPECT_LT(observer.result(EventKind::PcAddress).matchProbability(),
              0.1);
}

TEST(SystemIntegration, LargerHistoryNeverHurtsCoverageMuch)
{
    // Fig. 6 sanity at integration level: 16K-entry Bingo covers at
    // least as much as a 1K-entry Bingo (within noise).
    SystemConfig small_config = tinyConfig(PrefetcherKind::Bingo);
    small_config.prefetcher.pht_entries = 1024;
    std::vector<std::unique_ptr<TraceSource>> sources;
    sources.push_back(std::make_unique<FootprintWorkload>(7));
    System small_system(small_config, std::move(sources));
    small_system.run(75000, 150000);
    const RunResult small = collectResult(small_system, "fp");

    const RunResult base = runTiny(PrefetcherKind::None);
    const RunResult big = runTiny(PrefetcherKind::Bingo);
    EXPECT_GE(computeMetrics(base, big).coverage + 0.10,
              computeMetrics(base, small).coverage);
}

TEST(SystemIntegration, ExperimentRunnerHonoursOptions)
{
    ExperimentOptions options;
    options.warmup_instructions = 5000;
    options.measure_instructions = 10000;
    options.seed = 3;
    SystemConfig config;
    config.prefetcher.kind = PrefetcherKind::None;
    const RunResult result =
        runWorkload("Zeus", config, options);
    EXPECT_EQ(result.instructions, 4u * 10000u);
    EXPECT_EQ(result.kind, PrefetcherKind::None);
    EXPECT_EQ(result.workload, "Zeus");
}

TEST(SystemIntegration, BaselineCacheReturnsSameObject)
{
    ExperimentOptions options;
    options.warmup_instructions = 2000;
    options.measure_instructions = 4000;
    const RunResult &a = baselineFor("Zeus", SystemConfig{}, options);
    const RunResult &b = baselineFor("Zeus", SystemConfig{}, options);
    EXPECT_EQ(&a, &b);
}

} // namespace
} // namespace bingo
