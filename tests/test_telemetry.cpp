/**
 * @file
 * Telemetry subsystem tests: log-histogram bucketing and percentiles,
 * epoch series boundary handling (warmup -> measure re-basing
 * included), prefetch lifecycle verdicts both unit-level and through a
 * real Cache, exporter output round-trips, System::metrics() against
 * the component counters, and the environment knobs.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "cache/cache.hpp"
#include "sim/metrics.hpp"
#include "sim/system.hpp"
#include "telemetry/epoch.hpp"
#include "telemetry/export.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/lifecycle.hpp"
#include "telemetry/telemetry.hpp"
#include "test_util.hpp"

namespace bingo
{
namespace
{

using telemetry::EpochRecord;
using telemetry::EpochSeries;
using telemetry::EpochSnapshot;
using telemetry::LogHistogram;
using telemetry::PrefetchLifecycle;
using test::FakeLower;

TEST(LogHistogramTest, BucketMapping)
{
    EXPECT_EQ(LogHistogram::bucketOf(0), 0u);
    EXPECT_EQ(LogHistogram::bucketOf(1), 1u);
    EXPECT_EQ(LogHistogram::bucketOf(2), 2u);
    EXPECT_EQ(LogHistogram::bucketOf(3), 2u);
    EXPECT_EQ(LogHistogram::bucketOf(4), 3u);
    EXPECT_EQ(LogHistogram::bucketOf(1023), 10u);
    EXPECT_EQ(LogHistogram::bucketOf(1024), 11u);
    EXPECT_EQ(LogHistogram::bucketOf(~std::uint64_t{0}), 64u);

    EXPECT_EQ(LogHistogram::bucketLow(0), 0u);
    EXPECT_EQ(LogHistogram::bucketLow(1), 1u);
    EXPECT_EQ(LogHistogram::bucketLow(2), 2u);
    EXPECT_EQ(LogHistogram::bucketLow(3), 4u);
    EXPECT_EQ(LogHistogram::bucketHigh(3), 7u);
    EXPECT_EQ(LogHistogram::bucketHigh(64), ~std::uint64_t{0});

    // Every bucket's [low, high] range maps back to itself.
    for (unsigned b = 0; b < LogHistogram::kBuckets; ++b) {
        EXPECT_EQ(LogHistogram::bucketOf(LogHistogram::bucketLow(b)),
                  b);
        EXPECT_EQ(LogHistogram::bucketOf(LogHistogram::bucketHigh(b)),
                  b);
    }
}

TEST(LogHistogramTest, SummaryStatistics)
{
    LogHistogram h;
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), 0u);
    EXPECT_EQ(h.percentile(0.5), 0u);

    for (const std::uint64_t v : {0ULL, 1ULL, 2ULL, 3ULL, 100ULL})
        h.record(v);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 106u);
    EXPECT_EQ(h.minValue(), 0u);
    EXPECT_EQ(h.maxValue(), 100u);
    EXPECT_DOUBLE_EQ(h.meanValue(), 106.0 / 5.0);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(2), 2u);  // 2 and 3.
}

TEST(LogHistogramTest, PercentilesClampToRecordedRange)
{
    LogHistogram h;
    for (int i = 0; i < 4; ++i)
        h.record(1);
    h.record(1000);
    // Rank 3 of 5 lands in the value-1 bucket.
    EXPECT_EQ(h.percentile(0.5), 1u);
    // Rank 5 lands in [512, 1023]; the high edge clamps to max=1000.
    EXPECT_EQ(h.percentile(0.99), 1000u);
    // Smallest rank clamps to min.
    EXPECT_EQ(h.percentile(0.0), 1u);
}

TEST(LogHistogramTest, MergeAndClear)
{
    LogHistogram a;
    LogHistogram b;
    a.record(4);
    b.record(7);
    b.record(0);
    a.merge(b);
    EXPECT_EQ(a.count(), 3u);
    EXPECT_EQ(a.sum(), 11u);
    EXPECT_EQ(a.minValue(), 0u);
    EXPECT_EQ(a.maxValue(), 7u);
    a.clear();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_EQ(a.sum(), 0u);
    EXPECT_EQ(a.maxValue(), 0u);
}

EpochSnapshot
snapAt(std::uint64_t instructions, std::uint64_t misses = 0)
{
    EpochSnapshot snap;
    snap.instructions = instructions;
    snap.llc_demand_misses = misses;
    return snap;
}

TEST(EpochSeriesTest, BoundariesAndDeltas)
{
    EpochSeries series;
    series.beginPhase("warmup", 0, snapAt(0), 1000);
    EXPECT_FALSE(series.due(999));
    EXPECT_TRUE(series.due(1000));

    series.sample(400, snapAt(1005, 3));
    ASSERT_EQ(series.records().size(), 1u);
    const EpochRecord &first = series.records()[0];
    EXPECT_EQ(first.phase, "warmup");
    EXPECT_EQ(first.index, 0u);
    EXPECT_EQ(first.start_cycle, 0u);
    EXPECT_EQ(first.end_cycle, 400u);
    EXPECT_EQ(first.delta.instructions, 1005u);
    EXPECT_EQ(first.delta.llc_demand_misses, 3u);

    // The target advanced past the sampled instruction count.
    EXPECT_FALSE(series.due(1999));
    EXPECT_TRUE(series.due(2000));

    // endPhase flushes the partial epoch; a second endPhase is a no-op.
    series.endPhase(700, snapAt(1500, 5));
    ASSERT_EQ(series.records().size(), 2u);
    EXPECT_EQ(series.records()[1].delta.instructions, 495u);
    EXPECT_EQ(series.records()[1].delta.llc_demand_misses, 2u);
    series.endPhase(800, snapAt(1500, 5));
    EXPECT_EQ(series.records().size(), 2u);
    EXPECT_FALSE(series.due(~std::uint64_t{0}));
}

TEST(EpochSeriesTest, PhaseResetRebasesCounters)
{
    EpochSeries series;
    series.beginPhase("warmup", 0, snapAt(0), 100);
    series.endPhase(50, snapAt(120, 9));

    // The stats reset between phases: the measure base restarts at 0
    // even though warmup counted to 120.
    series.beginPhase("measure", 50, snapAt(0, 0), 100);
    EXPECT_FALSE(series.due(99));
    EXPECT_TRUE(series.due(100));
    series.sample(90, snapAt(101, 2));
    ASSERT_EQ(series.records().size(), 2u);
    const EpochRecord &measure = series.records()[1];
    EXPECT_EQ(measure.phase, "measure");
    EXPECT_EQ(measure.index, 0u);
    EXPECT_EQ(measure.start_cycle, 50u);
    EXPECT_EQ(measure.delta.instructions, 101u);
    EXPECT_EQ(measure.delta.llc_demand_misses, 2u);
}

TEST(EpochSeriesTest, ZeroEpochLengthIsClamped)
{
    EpochSeries series;
    series.beginPhase("measure", 0, snapAt(0), 0);
    EXPECT_TRUE(series.due(1));
    series.sample(10, snapAt(1));
    EXPECT_EQ(series.records().size(), 1u);
    // Must not wedge: the target advances by at least one instruction.
    EXPECT_FALSE(series.due(1));
}

TEST(PrefetchLifecycleTest, TimelyLateAndUnusedVerdicts)
{
    PrefetchLifecycle tracker;

    // Timely: issue -> fill -> first demand use.
    tracker.onIssue(0x100, 10);
    tracker.onFill(0x100, 110);
    tracker.onDemandHit(0x100, 150);
    EXPECT_EQ(tracker.timely(), 1u);
    EXPECT_EQ(tracker.issueToFill().count(), 1u);
    EXPECT_EQ(tracker.issueToFill().maxValue(), 100u);
    EXPECT_EQ(tracker.fillToFirstUse().count(), 1u);
    EXPECT_EQ(tracker.fillToFirstUse().maxValue(), 40u);

    // Late: the demand merged while the block was in flight. The fill
    // still records issue-to-fill, then retires the entry.
    tracker.onIssue(0x200, 10);
    tracker.onLateMerge(0x200, 60);
    tracker.onLateMerge(0x200, 70);  // Dedup: still one late block.
    tracker.onFill(0x200, 110);
    EXPECT_EQ(tracker.late(), 1u);
    EXPECT_EQ(tracker.issueToFill().count(), 2u);
    EXPECT_EQ(tracker.liveEntries(), 0u);
    tracker.onDemandHit(0x200, 200);  // Gone: must not count.
    EXPECT_EQ(tracker.timely(), 1u);

    // Unused: filled, never touched, evicted.
    tracker.onIssue(0x300, 10);
    tracker.onFill(0x300, 110);
    tracker.onEvictUnused(0x300);
    EXPECT_EQ(tracker.unused(), 1u);
    EXPECT_EQ(tracker.fillToFirstUse().count(), 1u);
}

TEST(PrefetchLifecycleTest, ResetKeepsInFlightState)
{
    PrefetchLifecycle tracker;
    tracker.onIssue(0x100, 10);
    tracker.onIssue(0x200, 10);
    tracker.onFill(0x200, 50);
    tracker.onDemandHit(0x200, 60);
    EXPECT_EQ(tracker.timely(), 1u);

    tracker.resetStats();
    EXPECT_EQ(tracker.timely(), 0u);
    EXPECT_EQ(tracker.issueToFill().count(), 0u);
    // The in-flight block from before the reset still resolves.
    EXPECT_EQ(tracker.liveEntries(), 1u);
    tracker.onFill(0x100, 120);
    tracker.onDemandHit(0x100, 130);
    EXPECT_EQ(tracker.timely(), 1u);
    EXPECT_EQ(tracker.fillToFirstUse().maxValue(), 10u);
}

/** Lifecycle events produced by a real cache. */
class CacheLifecycleTest : public ::testing::Test
{
  protected:
    CacheLifecycleTest()
        : lower_(events_, /*latency=*/100),
          cache_("test", smallConfig(), events_, lower_)
    {
        cache_.setLifecycleTracker(&tracker_);
    }

    static CacheConfig
    smallConfig()
    {
        CacheConfig config;
        config.size_bytes = 8 * 1024;  // 64 sets x 2 ways.
        config.ways = 2;
        config.hit_latency = 4;
        config.mshr_entries = 4;
        config.prefetch_queue = 4;
        return config;
    }

    void
    runTo(Cycle cycle)
    {
        for (Cycle c = now_; c <= cycle; ++c)
            events_.runDue(c);
        now_ = cycle;
    }

    MemAccess
    loadAccess(Addr block)
    {
        MemAccess access;
        access.block = blockAlign(block);
        access.pc = 0x400;
        access.type = AccessType::Load;
        return access;
    }

    EventQueue events_;
    FakeLower lower_;
    PrefetchLifecycle tracker_;
    Cache cache_;
    Cycle now_ = 0;
};

TEST_F(CacheLifecycleTest, DemandAfterFillIsTimely)
{
    cache_.prefetch(0x1000, 0x400, 0, 0);
    EXPECT_EQ(tracker_.liveEntries(), 1u);
    runTo(200);  // Fill completes (hit latency + 100).
    EXPECT_EQ(tracker_.issueToFill().count(), 1u);

    cache_.access(loadAccess(0x1000), 200, [](Cycle) {});
    runTo(300);
    EXPECT_EQ(tracker_.timely(), 1u);
    EXPECT_EQ(tracker_.late(), 0u);
    EXPECT_EQ(tracker_.liveEntries(), 0u);
    EXPECT_EQ(cache_.stats().late_useful_prefetches, 0u);
    EXPECT_EQ(cache_.stats().timelyUsefulPrefetches(), 1u);
}

TEST_F(CacheLifecycleTest, DemandDuringFlightIsLate)
{
    cache_.prefetch(0x1000, 0x400, 0, 0);
    // Demand arrives while the prefetch is still in flight.
    cache_.access(loadAccess(0x1000), 10, [](Cycle) {});
    EXPECT_EQ(tracker_.late(), 1u);
    EXPECT_EQ(cache_.stats().late_useful_prefetches, 1u);
    EXPECT_NEAR(cache_.stats().lateHitRate(), 1.0, 1e-12);
    runTo(300);
    // The fill retires the late entry without a timely verdict.
    EXPECT_EQ(tracker_.timely(), 0u);
    EXPECT_EQ(tracker_.liveEntries(), 0u);
}

TEST_F(CacheLifecycleTest, EvictedUntouchedIsUnused)
{
    // Fill the 2-way set of block 0x1000 with two prefetches, then
    // push two demands through the same set to evict them.
    const Addr set_stride = 64 * kBlockSize;  // 64 sets.
    cache_.prefetch(0x1000, 0x400, 0, 0);
    cache_.prefetch(0x1000 + set_stride, 0x400, 0, 0);
    runTo(300);
    cache_.access(loadAccess(0x1000 + 2 * set_stride), 300,
                  [](Cycle) {});
    cache_.access(loadAccess(0x1000 + 3 * set_stride), 300,
                  [](Cycle) {});
    runTo(600);
    EXPECT_EQ(tracker_.unused(), 2u);
    EXPECT_EQ(cache_.stats().useless_prefetches, 2u);
}

TEST(ExportTest, SanitizeFileStem)
{
    EXPECT_EQ(telemetry::sanitizeFileStem("Data Serving"),
              "Data_Serving");
    EXPECT_EQ(telemetry::sanitizeFileStem("a/b:c*d"), "a_b_c_d");
    EXPECT_EQ(telemetry::sanitizeFileStem(""), "run");
    EXPECT_EQ(telemetry::sanitizeFileStem("ok-1.2_x"), "ok-1.2_x");
}

TEST(ExportTest, EpochJsonLineFields)
{
    EpochRecord record;
    record.phase = "measure";
    record.index = 2;
    record.start_cycle = 1000;
    record.end_cycle = 2000;
    record.delta.instructions = 3000;
    record.delta.llc_demand_misses = 6;
    record.delta.dram_reads = 10;
    record.delta.dram_writes = 6;
    const std::string line = telemetry::epochJsonLine(record, 1.0);
    EXPECT_NE(line.find("\"phase\":\"measure\""), std::string::npos);
    EXPECT_NE(line.find("\"epoch\":2"), std::string::npos);
    EXPECT_NE(line.find("\"cycles\":1000"), std::string::npos);
    EXPECT_NE(line.find("\"ipc\":3"), std::string::npos);
    EXPECT_NE(line.find("\"llc_mpki\":2"), std::string::npos);
    // (10 + 6) requests x 64 B / 1000 cycles at 1 GHz = 1.024 GB/s.
    EXPECT_NE(line.find("\"dram_gbps\":1.024"), std::string::npos);
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
}

TEST(ExportTest, EmptyEpochAvoidsNonFiniteJson)
{
    EpochRecord record;
    record.phase = "measure";
    const std::string line = telemetry::epochJsonLine(record, 1.0);
    EXPECT_EQ(line.find("nan"), std::string::npos);
    EXPECT_EQ(line.find("inf"), std::string::npos);
}

TEST(ExportTest, HistogramJsonListsOccupiedBuckets)
{
    LogHistogram h;
    h.record(3);
    h.record(3);
    h.record(100);
    const std::string json = telemetry::histogramJson(h);
    EXPECT_NE(json.find("\"count\":3"), std::string::npos);
    EXPECT_NE(json.find("[2,2]"), std::string::npos);   // Bucket low 2.
    EXPECT_NE(json.find("[64,1]"), std::string::npos);  // Bucket low 64.

    LogHistogram empty;
    EXPECT_NE(telemetry::histogramJson(empty).find("\"buckets\":[]"),
              std::string::npos);
}

TEST(ExportTest, WriteRunTelemetryEmitsThreeFiles)
{
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() / "bingo_telemetry_test";
    fs::remove_all(dir);

    telemetry::Options options;
    options.epoch_instructions = 100;
    telemetry::Telemetry telemetry(options);
    telemetry.epochs().beginPhase("measure", 0, snapAt(0), 100);
    telemetry.epochs().sample(50, snapAt(120, 4));
    telemetry.epochs().endPhase(80, snapAt(180, 6));
    telemetry.lifecycle().onIssue(0x40, 0);
    telemetry.lifecycle().onFill(0x40, 90);
    telemetry.lifecycle().onDemandHit(0x40, 95);

    telemetry::RunMeta meta;
    meta.workload = "Data Serving";
    meta.prefetcher = "Bingo";
    meta.seed = 7;
    meta.frequency_ghz = 3.2;
    meta.base_name = "roundtrip";
    telemetry::writeRunTelemetry(dir.string(), meta, telemetry,
                                 {{"custom.counter", 9}});

    std::ifstream epochs(dir / "roundtrip.epochs.jsonl");
    ASSERT_TRUE(epochs.good());
    std::string line;
    std::size_t lines = 0;
    while (std::getline(epochs, line)) {
        ++lines;
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
    }
    EXPECT_EQ(lines, telemetry.epochs().records().size());

    std::ifstream run_file(dir / "roundtrip.run.json");
    ASSERT_TRUE(run_file.good());
    std::stringstream run_json;
    run_json << run_file.rdbuf();
    EXPECT_NE(run_json.str().find("\"workload\":\"Data Serving\""),
              std::string::npos);
    EXPECT_NE(run_json.str().find("\"custom.counter\":9"),
              std::string::npos);
    EXPECT_NE(run_json.str().find("\"timely\":1"), std::string::npos);

    std::ifstream trace(dir / "roundtrip.trace.json");
    ASSERT_TRUE(trace.good());
    std::stringstream trace_json;
    trace_json << trace.rdbuf();
    EXPECT_NE(trace_json.str().find("\"traceEvents\""),
              std::string::npos);
    EXPECT_NE(trace_json.str().find("\"ph\":\"C\""),
              std::string::npos);

    fs::remove_all(dir);
}

TEST(TelemetryEnvTest, Knobs)
{
    unsetenv("BINGO_EPOCH_INSTRS");
    unsetenv("BINGO_TELEMETRY_DIR");
    EXPECT_EQ(telemetry::optionsFromEnv().epoch_instructions,
              telemetry::Options{}.epoch_instructions);
    EXPECT_FALSE(telemetry::requested());
    EXPECT_TRUE(telemetry::outputDir().empty());

    setenv("BINGO_EPOCH_INSTRS", "12345", 1);
    EXPECT_EQ(telemetry::optionsFromEnv().epoch_instructions, 12345u);
    setenv("BINGO_EPOCH_INSTRS", "nonsense", 1);
    EXPECT_EQ(telemetry::optionsFromEnv().epoch_instructions,
              telemetry::Options{}.epoch_instructions);
    // A sign never wraps to a 2^64 - 1 instruction epoch.
    setenv("BINGO_EPOCH_INSTRS", "-1", 1);
    EXPECT_EQ(telemetry::optionsFromEnv().epoch_instructions,
              telemetry::Options{}.epoch_instructions);
    unsetenv("BINGO_EPOCH_INSTRS");

    setenv("BINGO_TELEMETRY_DIR", "/tmp/t-out", 1);
    EXPECT_TRUE(telemetry::requested());
    EXPECT_EQ(telemetry::outputDir(), "/tmp/t-out");
    unsetenv("BINGO_TELEMETRY_DIR");
}

/** End-to-end: a real run produces aligned per-phase epoch series. */
TEST(TelemetrySystemTest, EpochSeriesAlignsWithPhases)
{
    SystemConfig config = SystemConfig::singleCore();
    config.prefetcher.kind = PrefetcherKind::Bingo;
    config.seed = 7;
    System system(config, "Data Serving");
    telemetry::Options options;
    options.epoch_instructions = 2000;
    system.enableTelemetry(options);
    system.run(10000, 20000);

    ASSERT_NE(system.telemetry(), nullptr);
    const auto &records = system.telemetry()->epochs().records();
    ASSERT_FALSE(records.empty());

    std::uint64_t warmup = 0;
    std::uint64_t measure = 0;
    std::uint64_t warmup_index = 0;
    std::uint64_t measure_index = 0;
    Cycle prev_end = 0;
    for (const auto &record : records) {
        EXPECT_GE(record.end_cycle, record.start_cycle);
        EXPECT_GE(record.start_cycle, prev_end);
        prev_end = record.end_cycle;
        if (record.phase == "warmup") {
            EXPECT_EQ(record.index, warmup_index++);
            warmup += record.delta.instructions;
        } else {
            ASSERT_EQ(record.phase, "measure");
            EXPECT_EQ(record.index, measure_index++);
            measure += record.delta.instructions;
        }
    }
    // Per-core quotas are exact, so phase totals must be too.
    EXPECT_EQ(warmup, 10000u);
    EXPECT_EQ(measure, 20000u);
    EXPECT_GE(measure_index, 20000u / options.epoch_instructions);

    // run.json's metrics carry every counter of the components' lists
    // under their prefixes, with the components' values.
    const MetricMap metrics = system.metrics();
    const auto expectReported = [&metrics](const std::string &prefix,
                                           const auto &stats) {
        for (const auto &[name, value] : test::counterMap(stats)) {
            ASSERT_EQ(metrics.count(prefix + name), 1u) << prefix + name;
            EXPECT_EQ(metrics.at(prefix + name), value) << prefix + name;
        }
    };
    expectReported("LLC.", system.llc().stats());
    expectReported("L1D0.", system.l1d(0).stats());
    expectReported("dram.", system.dram().stats());
    expectReported("core0.", system.core(0).stats());
}

} // namespace
} // namespace bingo
