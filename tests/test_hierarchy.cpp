/**
 * @file
 * Two-level hierarchy plumbing tests: L1 -> (CacheLower) -> LLC ->
 * (DramLower) -> DRAM, exactly as System wires them, but standalone so
 * the propagation of misses, fills, writebacks and hooks is observable
 * level by level.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "cache/cache.hpp"
#include "mem/dram.hpp"
#include "sim/experiment.hpp"

namespace bingo
{
namespace
{

class HierarchyTest : public ::testing::Test
{
  protected:
    HierarchyTest()
        : dram_(DramConfig{}), dram_lower_(dram_, events_),
          llc_("LLC", llcConfig(), events_, dram_lower_),
          llc_lower_(llc_), l1_("L1", l1Config(), events_, llc_lower_)
    {
    }

    static CacheConfig
    l1Config()
    {
        return CacheConfig{4 * 1024, 4, 4, 8};
    }

    static CacheConfig
    llcConfig()
    {
        return CacheConfig{64 * 1024, 8, 15, 16, 32};
    }

    void
    runTo(Cycle cycle)
    {
        for (Cycle c = 0; c <= cycle; ++c)
            events_.runDue(c);
    }

    MemAccess
    loadAccess(Addr block, AccessType type = AccessType::Load)
    {
        MemAccess access;
        access.block = blockAlign(block);
        access.pc = 0x400;
        access.type = type;
        return access;
    }

    EventQueue events_;
    DramController dram_;
    DramLower dram_lower_;
    Cache llc_;
    CacheLower llc_lower_;
    Cache l1_;
};

TEST_F(HierarchyTest, ColdMissPropagatesToDram)
{
    Cycle done = 0;
    l1_.access(loadAccess(0x10000), 0, [&](Cycle c) { done = c; });
    runTo(1000);
    EXPECT_GT(done, 0u);
    EXPECT_TRUE(l1_.contains(0x10000));
    EXPECT_TRUE(llc_.contains(0x10000));
    EXPECT_EQ(dram_.stats().reads, 1u);
    // The L1 fill waited for LLC lookup + DRAM: well beyond both hit
    // latencies.
    EXPECT_GT(done, 100u);
}

TEST_F(HierarchyTest, L1HitNeverReachesLlc)
{
    l1_.access(loadAccess(0x10000), 0, [](Cycle) {});
    runTo(1000);
    const std::uint64_t llc_accesses = llc_.stats().demand_accesses;
    Cycle done = 0;
    l1_.access(loadAccess(0x10000), 1000, [&](Cycle c) { done = c; });
    runTo(1100);
    EXPECT_EQ(llc_.stats().demand_accesses, llc_accesses);
    EXPECT_EQ(done, 1000u + l1Config().hit_latency);
}

TEST_F(HierarchyTest, LlcHitServesL1MissWithoutDram)
{
    l1_.access(loadAccess(0x10000), 0, [](Cycle) {});
    runTo(1000);
    // Evict from L1 only: fill the L1 set (16 sets, 4 ways).
    for (Addr i = 1; i <= 4; ++i) {
        l1_.access(loadAccess(0x10000 + i * 16 * kBlockSize), 1000 + i,
                   [](Cycle) {});
    }
    runTo(3000);
    ASSERT_FALSE(l1_.contains(0x10000));
    ASSERT_TRUE(llc_.contains(0x10000));

    const std::uint64_t dram_reads = dram_.stats().reads;
    Cycle done = 0;
    l1_.access(loadAccess(0x10000), 3000, [&](Cycle c) { done = c; });
    runTo(3200);
    EXPECT_EQ(dram_.stats().reads, dram_reads);
    // L1 lookup + LLC hit latency.
    EXPECT_EQ(done, 3000u + l1Config().hit_latency +
                        llcConfig().hit_latency);
}

TEST_F(HierarchyTest, LlcPrefetchTurnsL1MissIntoLlcHit)
{
    llc_.prefetch(0x20000, 0x400, 0, 0);
    runTo(1000);
    ASSERT_TRUE(llc_.contains(0x20000));
    Cycle done = 0;
    l1_.access(loadAccess(0x20000), 1000, [&](Cycle c) { done = c; });
    runTo(1200);
    EXPECT_EQ(done, 1000u + l1Config().hit_latency +
                        llcConfig().hit_latency);
    EXPECT_EQ(llc_.stats().useful_prefetches, 1u);
}

TEST_F(HierarchyTest, LlcHookSeesL1MissesWithPcAndCore)
{
    std::vector<MemAccess> seen;
    llc_.setAccessHook([&](const MemAccess &access, bool, Cycle) {
        seen.push_back(access);
    });
    MemAccess access = loadAccess(0x30000);
    access.pc = 0xbeef;
    access.core = 2;
    l1_.access(access, 0, [](Cycle) {});
    runTo(1000);
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0].pc, 0xbeefu);
    EXPECT_EQ(seen[0].core, 2u);
    EXPECT_EQ(seen[0].block, 0x30000u);
}

TEST_F(HierarchyTest, DirtyL1EvictionStaysSilentDirtyLlcWritesToDram)
{
    // Store at the L1: the line is dirty in L1, clean in LLC.
    l1_.access(loadAccess(0x40000, AccessType::Store), 0, [](Cycle) {});
    runTo(1000);

    // Force LLC eviction of that block: stream 8 conflicting blocks
    // through its set (LLC: 128 sets).
    for (Addr i = 1; i <= 8; ++i) {
        llc_.prefetch(0x40000 + i * 128 * kBlockSize, 0x1, 0,
                      1000 + i);
    }
    runTo(3000);
    EXPECT_FALSE(llc_.contains(0x40000));
    // The LLC line was installed dirty (store-merged miss) and must
    // have been written back to DRAM on eviction.
    EXPECT_EQ(dram_.stats().writes, 1u);
}

TEST(ExperimentEnv, OptionsHonourEnvironment)
{
    setenv("BINGO_WARMUP_INSTRS", "1234", 1);
    setenv("BINGO_MEASURE_INSTRS", "5678", 1);
    setenv("BINGO_SEED", "99", 1);
    const ExperimentOptions options = defaultOptions();
    unsetenv("BINGO_WARMUP_INSTRS");
    unsetenv("BINGO_MEASURE_INSTRS");
    unsetenv("BINGO_SEED");
    EXPECT_EQ(options.warmup_instructions, 1234u);
    EXPECT_EQ(options.measure_instructions, 5678u);
    EXPECT_EQ(options.seed, 99u);
    // Garbage values fall back to defaults: anything but a whole
    // unsigned number, so a sign or trailing junk never reads as one.
    for (const char *bad : {"not-a-number", "-1", "4x"}) {
        setenv("BINGO_SEED", bad, 1);
        EXPECT_EQ(defaultOptions().seed, 42u) << bad;
    }
    unsetenv("BINGO_SEED");

    setenv("BINGO_JOBS", "4", 1);
    EXPECT_EQ(sweepJobCount(), 4u);
    const unsigned hw =
        std::max(1u, std::thread::hardware_concurrency());
    for (const char *bad : {"not-a-number", "-1", "4x"}) {
        setenv("BINGO_JOBS", bad, 1);
        EXPECT_EQ(sweepJobCount(), hw) << bad;
    }
    unsetenv("BINGO_JOBS");

    // A negative worker count must not wrap to the 256-process cap.
    setenv("BINGO_DIST_WORKERS", "-1", 1);
    EXPECT_EQ(sweepDistWorkers(), 0u);
    unsetenv("BINGO_DIST_WORKERS");
}

} // namespace
} // namespace bingo
