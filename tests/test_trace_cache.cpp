/**
 * @file
 * Trace cache tests: replay must be bit-identical to direct
 * generation (including across chunk boundaries), acquire must hit
 * and miss when it should, the byte budget must evict only
 * unreferenced buffers, a sweep's plan must keep single-use and
 * over-budget streams out of the cache for exactly the sweep's
 * lifetime and let a stream's buffer go at its last planned use, and a
 * whole simulation must not care whether the cache is on or off.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/metrics.hpp"
#include "sim/system.hpp"
#include "sim/translation.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"
#include "workload/trace_cache.hpp"

namespace bingo
{
namespace
{

/**
 * Every test runs in its own ctest process, but each still restores
 * the process-wide cache so in-binary filter runs compose too.
 */
class TraceCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        saved_budget_ = TraceCache::instance().budgetBytes();
        TraceCache::instance().clear();
    }

    void
    TearDown() override
    {
        TraceCache::instance().setBudgetBytes(saved_budget_);
        TraceCache::instance().clear();
    }

    std::uint64_t saved_budget_ = 0;
};

void
expectSameRecord(const TraceRecord &a, const TraceRecord &b,
                 std::size_t i)
{
    ASSERT_EQ(a.pc, b.pc) << "record " << i;
    ASSERT_EQ(a.addr, b.addr) << "record " << i;
    ASSERT_EQ(a.type, b.type) << "record " << i;
    ASSERT_EQ(a.dependent, b.dependent) << "record " << i;
}

TEST_F(TraceCacheTest, ReplayIsBitIdenticalAcrossChunkBoundaries)
{
    // Enough records to cross the first chunk boundary (64 Ki) and
    // exercise a read spanning two chunks.
    const std::size_t n = TraceBuffer::kChunkRecords + 5000;
    auto direct = makeWorkload("Data Serving", 0, 42);
    auto cached = TraceCache::instance().acquire("Data Serving", 0, 42);
    for (std::size_t i = 0; i < n; ++i)
        expectSameRecord(cached->next(), direct->next(), i);
}

TEST_F(TraceCacheTest, BatchReadSpanningChunksMatchesSingleSteps)
{
    auto stepper = TraceCache::instance().acquire("SAT Solver", 1, 9);
    auto batcher = TraceCache::instance().acquire("SAT Solver", 1, 9);
    // One batch deliberately straddling the first chunk boundary.
    const std::size_t n = TraceBuffer::kChunkRecords + 300;
    std::vector<TraceRecord> batch(n);
    batcher->nextBatch(batch.data(), n);
    for (std::size_t i = 0; i < n; ++i)
        expectSameRecord(batch[i], stepper->next(), i);
}

TEST_F(TraceCacheTest, SecondAcquireOfSameKeyHits)
{
    const TraceCacheStats before = TraceCache::instance().stats();
    auto first = TraceCache::instance().acquire("Streaming", 0, 3);
    auto again = TraceCache::instance().acquire("Streaming", 0, 3);
    auto other_core = TraceCache::instance().acquire("Streaming", 1, 3);
    auto other_seed = TraceCache::instance().acquire("Streaming", 0, 4);
    const TraceCacheStats after = TraceCache::instance().stats();
    EXPECT_EQ(after.hits - before.hits, 1u);
    EXPECT_EQ(after.misses - before.misses, 3u);
    EXPECT_EQ(after.buffers, 3u);
}

TEST_F(TraceCacheTest, BudgetZeroBypassesCaching)
{
    TraceCache::instance().setBudgetBytes(0);
    EXPECT_FALSE(TraceCache::instance().enabled());
    const TraceCacheStats before = TraceCache::instance().stats();
    auto a = TraceCache::instance().acquire("Zeus", 0, 5);
    auto b = TraceCache::instance().acquire("Zeus", 0, 5);
    const TraceCacheStats after = TraceCache::instance().stats();
    EXPECT_EQ(after.bypasses - before.bypasses, 2u);
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.buffers, 0u);
    // Bypass sources are still the real generators.
    auto direct = makeWorkload("Zeus", 0, 5);
    for (std::size_t i = 0; i < 1000; ++i)
        expectSameRecord(a->next(), direct->next(), i);
}

TEST_F(TraceCacheTest, EvictionRespectsBudgetAndPinning)
{
    const std::uint64_t chunk_bytes =
        TraceBuffer::kChunkRecords * sizeof(TraceRecord);
    // Budget fits one committed chunk but not two.
    TraceCache::instance().setBudgetBytes(chunk_bytes + chunk_bytes / 2);

    auto a = TraceCache::instance().acquire("Data Serving", 0, 1);
    auto b = TraceCache::instance().acquire("em3d", 0, 1);
    a->next();
    b->next();  // Both buffers now hold one ~1.5 MB chunk each.

    // Over budget, but both buffers are pinned by live sources:
    // nothing may be evicted.
    TraceCacheStats stats = TraceCache::instance().stats();
    EXPECT_GT(stats.bytes, TraceCache::instance().budgetBytes());
    EXPECT_EQ(stats.buffers, 2u);
    const std::uint64_t evictions_pinned = stats.evictions;

    // Release the pins; the next acquire reconciles the budget by
    // dropping LRU unreferenced buffers.
    a.reset();
    b.reset();
    auto c = TraceCache::instance().acquire("SAT Solver", 0, 1);
    stats = TraceCache::instance().stats();
    EXPECT_GT(stats.evictions, evictions_pinned);
    EXPECT_LE(stats.bytes, TraceCache::instance().budgetBytes());
}

/** One planned System of `cores` cores replaying (workload, seed). */
TraceDemand
demand(const char *workload, std::uint64_t seed, unsigned cores = 1,
       std::uint64_t records = 30000)
{
    TraceDemand d;
    d.workload = workload;
    d.seed = seed;
    d.cores = cores;
    d.records = records;
    return d;
}

TEST_F(TraceCacheTest, SinglePlannedUseBypassesCache)
{
    TraceCache &cache = TraceCache::instance();
    const TraceCache::Plan plan(cache, {demand("Zeus", 5)});
    auto planned = cache.acquire("Zeus", 0, 5, /*translated=*/true);
    const TraceCacheStats stats = cache.stats();
    EXPECT_EQ(stats.bypasses, 1u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.buffers, 0u);
    EXPECT_EQ(stats.bytes, 0u);
    // The private stream is the generator composed with the
    // seed-derived translation, exactly as a cached one would be.
    TranslatingSource direct(makeWorkload("Zeus", 0, 5),
                             AddressTranslator(5));
    for (std::size_t i = 0; i < 20000; ++i)
        expectSameRecord(planned->next(), direct.next(), i);
}

TEST_F(TraceCacheTest, TwoPlannedUsesMissThenHit)
{
    TraceCache &cache = TraceCache::instance();
    // A 2-core and a 1-core System: core 0's stream has two uses,
    // core 1's only one.
    const TraceCache::Plan plan(
        cache, {demand("Streaming", 3, 2), demand("Streaming", 3)});
    auto first = cache.acquire("Streaming", 0, 3, true);
    auto second = cache.acquire("Streaming", 0, 3, true);
    auto lone = cache.acquire("Streaming", 1, 3, true);
    const TraceCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.bypasses, 1u);
    // The hit was core 0's last planned use: the buffer left the
    // cache and lives on in the two sources.
    EXPECT_EQ(stats.buffers, 0u);
}

TEST_F(TraceCacheTest, LastPlannedUseLetsTheBufferGo)
{
    TraceCache &cache = TraceCache::instance();
    const TraceCache::Plan plan(cache, {demand("em3d", 2),
                                        demand("em3d", 2),
                                        demand("em3d", 2)});
    std::vector<std::unique_ptr<TraceSource>> sources;
    for (int system = 0; system < 3; ++system) {
        sources.push_back(cache.acquire("em3d", 0, 2, true));
        sources.back()->next();
        EXPECT_EQ(cache.stats().buffers, system < 2 ? 1u : 0u)
            << "after use " << system + 1;
    }
    TraceCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 2u);
    EXPECT_EQ(stats.bytes,
              TraceBuffer::kChunkRecords * TraceBuffer::kRecordBytes);

    // The last user still replays the shared records, past the point
    // the others reached.
    TranslatingSource direct(makeWorkload("em3d", 0, 2),
                             AddressTranslator(2));
    direct.next();
    for (std::size_t i = 1; i < 20000; ++i)
        expectSameRecord(sources.back()->next(), direct.next(), i);

    // Its chunks are freed with the last source, not kept for later.
    sources.clear();
    EXPECT_EQ(cache.stats().bytes, 0u);

    // A use past the planned three (a retried job) is served privately.
    auto retry = cache.acquire("em3d", 0, 2, true);
    stats = cache.stats();
    EXPECT_EQ(stats.bypasses, 1u);
    EXPECT_EQ(stats.misses + stats.hits, 3u);
    EXPECT_EQ(stats.buffers, 0u);
}

TEST_F(TraceCacheTest, PlanOverBudgetBypassesEveryAcquisition)
{
    TraceCache &cache = TraceCache::instance();
    // Each System would pin 2 cores x 100 k records x 24 B = 4.8 MB.
    cache.setBudgetBytes(std::uint64_t{1} << 20);
    const TraceCache::Plan plan(cache,
                                {demand("em3d", 1, 2, 100000),
                                 demand("em3d", 1, 2, 100000)});
    std::vector<std::unique_ptr<TraceSource>> held;
    for (int system = 0; system < 2; ++system) {
        for (CoreId c = 0; c < 2; ++c) {
            held.push_back(cache.acquire("em3d", c, 1, true));
            held.back()->next();
        }
    }
    const TraceCacheStats stats = cache.stats();
    EXPECT_EQ(stats.bypasses, 4u);
    EXPECT_EQ(stats.misses + stats.hits, 0u);
    EXPECT_EQ(stats.bytes, 0u);
}

/**
 * The sweep runner plans every System it builds, baselines included,
 * and nothing after the sweep: a single-use stream bypasses, a stream
 * two jobs share misses then hits (and leaves the cache with its last
 * use), and a 1-core job shares core 0 with its 4-core baseline while
 * cores 1-3 bypass. Once the sweep returns, the single-use stream
 * caches normally.
 */
TEST_F(TraceCacheTest, SweepPlanEndsWithTheSweep)
{
    std::vector<SweepJob> jobs;
    for (const auto &[workload, kind] :
         {std::pair{"Zeus", PrefetcherKind::None},
          std::pair{"em3d", PrefetcherKind::None},
          std::pair{"em3d", PrefetcherKind::Bingo},
          std::pair{"Streaming", PrefetcherKind::Bop}}) {
        SweepJob job;
        job.workload = workload;
        job.config = SystemConfig::singleCore();
        job.config.prefetcher.kind = kind;
        job.options.warmup_instructions = 2000;
        job.options.measure_instructions = 5000;
        job.options.seed = 11;
        job.compare_baseline = job.workload == "Streaming";
        jobs.push_back(job);
    }
    TraceCache &cache = TraceCache::instance();
    for (const JobOutcome &outcome : runSweepOutcomes(jobs, 2))
        ASSERT_TRUE(outcome.ok()) << outcome.error;
    TraceCacheStats stats = cache.stats();
    EXPECT_EQ(stats.bypasses, 4u);
    EXPECT_EQ(stats.misses, 2u);
    EXPECT_EQ(stats.hits, 2u);
    // Every shared stream met its last planned use inside the sweep.
    EXPECT_EQ(stats.buffers, 0u);
    EXPECT_EQ(stats.bytes, 0u);

    auto after = cache.acquire("Zeus", 0, 11, true);
    stats = cache.stats();
    EXPECT_EQ(stats.bypasses, 4u);
    EXPECT_EQ(stats.misses, 3u);
}

/** One short simulation with a given cache budget. */
RunResult
runServing(std::uint64_t budget)
{
    TraceCache::instance().clear();
    TraceCache::instance().setBudgetBytes(budget);
    SystemConfig config = SystemConfig::singleCore();
    config.prefetcher.kind = PrefetcherKind::Bingo;
    config.seed = 7;
    System system(config, "Data Serving");
    system.run(10000, 20000);
    return collectResult(system, "Data Serving");
}

TEST_F(TraceCacheTest, CacheOnOffRunsAreBitIdentical)
{
    const RunResult off = runServing(0);
    const RunResult on = runServing(512ull << 20);
    // A second cached run replays the shared buffer (a cache hit) and
    // must still agree.
    const TraceCacheStats mid = TraceCache::instance().stats();
    SystemConfig config = SystemConfig::singleCore();
    config.prefetcher.kind = PrefetcherKind::Bingo;
    config.seed = 7;
    System system(config, "Data Serving");
    system.run(10000, 20000);
    const RunResult replay = collectResult(system, "Data Serving");
    const TraceCacheStats after = TraceCache::instance().stats();

    test::expectSameRun(off, on);
    test::expectSameRun(on, replay);
    EXPECT_GT(after.hits, mid.hits);
}

/**
 * Chaos fault schedules are drawn above the replay layer, so sharing
 * one buffer across runs must not change a chaos run at all.
 */
TEST_F(TraceCacheTest, ChaosScheduleUnchangedByCaching)
{
    const auto runChaos = [](std::uint64_t budget) {
        TraceCache::instance().clear();
        TraceCache::instance().setBudgetBytes(budget);
        SystemConfig config = SystemConfig::singleCore();
        config.prefetcher.kind = PrefetcherKind::Bingo;
        config.seed = 7;
        config.chaos.enabled = true;
        config.chaos.seed = 99;
        config.chaos.rate = 0.002;
        config.chaos.site_mask = 0x1F;
        System system(config, "Data Serving");
        system.run(10000, 20000);
        return collectResult(system, "Data Serving");
    };
    test::expectSameRun(runChaos(0), runChaos(512ull << 20));
}

} // namespace
} // namespace bingo
