/**
 * @file
 * Tests for the MSHR file.
 */

#include <gtest/gtest.h>

#include "cache/mshr.hpp"
#include "common/sim_check.hpp"

namespace bingo
{
namespace
{

TEST(Mshr, AllocateFindRelease)
{
    MshrFile mshrs(2);
    EXPECT_EQ(mshrs.find(0x40), nullptr);
    MshrEntry &entry = mshrs.allocate(0x40, false, 1);
    EXPECT_EQ(entry.block, 0x40u);
    EXPECT_EQ(entry.core, 1u);
    EXPECT_FALSE(entry.prefetch_origin);
    ASSERT_NE(mshrs.find(0x40), nullptr);

    MshrEntry released = mshrs.release(0x40);
    EXPECT_EQ(released.block, 0x40u);
    EXPECT_EQ(mshrs.find(0x40), nullptr);
    EXPECT_EQ(mshrs.size(), 0u);
}

TEST(Mshr, FullAtCapacity)
{
    MshrFile mshrs(2);
    mshrs.allocate(0x40, false, 0);
    EXPECT_FALSE(mshrs.full());
    mshrs.allocate(0x80, true, 0);
    EXPECT_TRUE(mshrs.full());
    mshrs.release(0x40);
    EXPECT_FALSE(mshrs.full());
}

TEST(Mshr, CallbacksTravelWithRelease)
{
    MshrFile mshrs(1);
    MshrEntry &entry = mshrs.allocate(0x40, false, 0);
    int called = 0;
    entry.callbacks.emplace_back([&](Cycle) { ++called; });
    entry.callbacks.emplace_back([&](Cycle) { ++called; });

    MshrEntry released = mshrs.release(0x40);
    for (MshrCallback &cb : released.callbacks)
        cb.fn(10);
    EXPECT_EQ(called, 2);
}

TEST(Mshr, CallbackTrackingMetadata)
{
    // The converting constructor marks a callback untracked (replayed
    // demands); the two-argument form records the miss cycle for the
    // cache's latency accounting.
    MshrCallback untracked([](Cycle) {});
    EXPECT_FALSE(untracked.track);

    MshrCallback tracked([](Cycle) {}, 42);
    EXPECT_TRUE(tracked.track);
    EXPECT_EQ(tracked.start, 42u);
}

TEST(Mshr, RecycledEntriesStartClean)
{
    // release() frees the slot for reuse; a later allocate of a
    // different block lands in it and must hand back a fully reset
    // entry.
    MshrFile mshrs(2);
    MshrEntry &first = mshrs.allocate(0x40, true, 3);
    first.demand_merged = true;
    first.store_merged = true;
    first.callbacks.emplace_back([](Cycle) {});
    mshrs.release(0x40);

    MshrEntry &second = mshrs.allocate(0x80, false, 1);
    EXPECT_EQ(second.block, 0x80u);
    EXPECT_EQ(second.core, 1u);
    EXPECT_FALSE(second.prefetch_origin);
    EXPECT_FALSE(second.demand_merged);
    EXPECT_FALSE(second.store_merged);
    EXPECT_TRUE(second.callbacks.empty());
    ASSERT_NE(mshrs.find(0x80), nullptr);
    EXPECT_EQ(mshrs.find(0x40), nullptr);

    // Duplicate allocation of the block in the reused slot still
    // throws under the BINGO_CHECK layer and leaves the file
    // consistent.
    setSimCheckEnabled(true);
    EXPECT_THROW(mshrs.allocate(0x80, false, 0), SimError);
    setSimCheckEnabled(false);
    EXPECT_EQ(mshrs.size(), 1u);
}

TEST(Mshr, MergeFlagsPersist)
{
    MshrFile mshrs(1);
    MshrEntry &entry = mshrs.allocate(0x40, true, 0);
    entry.demand_merged = true;
    entry.store_merged = true;
    MshrEntry released = mshrs.release(0x40);
    EXPECT_TRUE(released.prefetch_origin);
    EXPECT_TRUE(released.demand_merged);
    EXPECT_TRUE(released.store_merged);
}

TEST(Mshr, ClearEmptiesFile)
{
    MshrFile mshrs(4);
    mshrs.allocate(0x40, false, 0);
    mshrs.allocate(0x80, false, 0);
    mshrs.clear();
    EXPECT_EQ(mshrs.size(), 0u);
    EXPECT_EQ(mshrs.find(0x40), nullptr);
}

} // namespace
} // namespace bingo
