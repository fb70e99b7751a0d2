/**
 * @file
 * Tests for the DRAM timing model: latency composition, row-buffer
 * state, bank/channel parallelism, and bandwidth limits.
 */

#include <gtest/gtest.h>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "mem/dram.hpp"

namespace bingo
{
namespace
{

DramConfig
smallConfig()
{
    DramConfig config;
    config.channels = 2;
    config.banks_per_channel = 4;
    return config;
}

TEST(Dram, FirstAccessIsRowMiss)
{
    DramController dram(smallConfig());
    const DramConfig &c = dram.config();
    const Cycle done = dram.read(0, 0);
    EXPECT_EQ(done, c.controller_latency + c.t_rcd + c.t_cas +
                        c.data_transfer);
    EXPECT_EQ(dram.stats().row_misses, 1u);
}

TEST(Dram, RowHitIsFasterThanConflict)
{
    DramController dram(smallConfig());
    const DramConfig &c = dram.config();

    dram.read(0, 0);  // Opens the row.
    const Cycle start = 10000;
    const Cycle hit_done = dram.read(kBlockSize * 2, start);
    EXPECT_EQ(hit_done - start,
              c.controller_latency + c.t_cas + c.data_transfer);
    EXPECT_EQ(dram.stats().row_hits, 1u);

    // An address in the same bank but a different row conflicts.
    DramController dram2(smallConfig());
    dram2.read(0, 0);
    // Same channel, same bank needs row distance of banks_per_channel.
    const Addr conflict_addr =
        c.row_size_bytes * c.channels * c.banks_per_channel;
    const Cycle conflict_done = dram2.read(conflict_addr, start);
    EXPECT_EQ(dram2.channelOf(conflict_addr), dram2.channelOf(0));
    EXPECT_EQ(dram2.bankOf(conflict_addr), dram2.bankOf(0));
    EXPECT_EQ(conflict_done - start,
              c.controller_latency + c.t_rp + c.t_rcd + c.t_cas +
                  c.data_transfer);
    EXPECT_EQ(dram2.stats().row_conflicts, 1u);
}

TEST(Dram, ConsecutiveBlocksAlternateChannels)
{
    DramController dram(smallConfig());
    EXPECT_NE(dram.channelOf(0), dram.channelOf(kBlockSize));
    EXPECT_EQ(dram.channelOf(0), dram.channelOf(2 * kBlockSize));
}

TEST(Dram, SameBankAccessesSerialize)
{
    DramController dram(smallConfig());
    // Two simultaneous row-conflicting accesses to one bank: the second
    // waits for the first's occupancy.
    const DramConfig &c = dram.config();
    const Addr same_bank =
        c.row_size_bytes * c.channels * c.banks_per_channel;
    const Cycle d1 = dram.read(0, 0);
    const Cycle d2 = dram.read(same_bank, 0);
    EXPECT_GT(d2, d1);
}

TEST(Dram, DifferentBanksOverlap)
{
    DramController dram(smallConfig());
    const DramConfig &c = dram.config();
    // Same channel, different banks: near-full overlap (bus staggering
    // only).
    const Addr other_bank = c.row_size_bytes * c.channels;
    ASSERT_EQ(dram.channelOf(other_bank), dram.channelOf(0));
    ASSERT_NE(dram.bankOf(other_bank), dram.bankOf(0));
    const Cycle d1 = dram.read(0, 0);
    const Cycle d2 = dram.read(other_bank, 0);
    EXPECT_LE(d2 - d1, c.data_transfer);
}

TEST(Dram, RowHitStreamIsBusLimited)
{
    DramController dram(smallConfig());
    const DramConfig &c = dram.config();
    // Stream within one row of one channel: after the first access the
    // bus transfer time dominates.
    const Addr base = 0;
    Cycle last = 0;
    for (int i = 0; i < 10; ++i)
        last = dram.read(base + 2 * kBlockSize * i, 0);
    const Cycle first =
        c.controller_latency + c.t_rcd + c.t_cas + c.data_transfer;
    EXPECT_EQ(last, first + 9 * c.data_transfer);
}

TEST(Dram, WritesCountAndOccupyBanks)
{
    DramController dram(smallConfig());
    dram.write(0, 0);
    EXPECT_EQ(dram.stats().writes, 1u);
    EXPECT_EQ(dram.stats().reads, 0u);
    // A read right behind the write to the same bank/row is a row hit
    // but queued behind the write's occupancy.
    const Cycle done = dram.read(2 * kBlockSize, 0);
    const DramConfig &c = dram.config();
    EXPECT_GT(done, c.controller_latency + c.t_cas + c.data_transfer);
}

TEST(Dram, ResetClearsRowState)
{
    DramController dram(smallConfig());
    dram.read(0, 0);
    dram.reset();
    EXPECT_EQ(dram.stats().reads, 0u);
    dram.read(2 * kBlockSize, 0);
    EXPECT_EQ(dram.stats().row_misses, 1u);  // Closed again.
}

TEST(Dram, ResetStatsOnlyKeepsTiming)
{
    DramController dram(smallConfig());
    dram.read(0, 0);
    dram.resetStatsOnly();
    EXPECT_EQ(dram.stats().reads, 0u);
    dram.read(2 * kBlockSize, 100000);
    EXPECT_EQ(dram.stats().row_hits, 1u);  // Row still open.
}

TEST(Dram, RowHitRateMetric)
{
    DramController dram(smallConfig());
    dram.read(0, 0);
    dram.read(2 * kBlockSize, 10000);
    dram.read(4 * kBlockSize, 20000);
    EXPECT_NEAR(dram.stats().rowHitRate(), 2.0 / 3.0, 1e-9);
}

TEST(Dram, ZeroLoadLatencyNearPaperTarget)
{
    // Table I: 60 ns zero-load at 4 GHz = 240 cycles. Our row-miss
    // zero-load path must land in that neighbourhood.
    DramConfig config;
    EXPECT_GE(config.zeroLoadRowMiss(), 200u);
    EXPECT_LE(config.zeroLoadRowMiss(), 260u);
}

/** Property: completion times never precede request arrival + minimum
 *  latency, and the self-check's counter identities hold, for random
 *  mixes of reads and writes. */
class DramRandomTrafficTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(DramRandomTrafficTest, CompletionsRespectMinimumLatency)
{
    DramController dram(DramConfig{});
    const DramConfig &c = dram.config();
    Rng rng(GetParam());
    const Cycle min_latency =
        c.controller_latency + c.t_cas + c.data_transfer;
    Cycle now = 0;
    for (int i = 0; i < 500; ++i) {
        now += rng.below(50);
        const Addr addr = blockAlign(rng.next() & 0xffffffffULL);
        if (rng.chance(0.2)) {
            dram.write(addr, now);
        } else {
            const Cycle done = dram.read(addr, now);
            EXPECT_GE(done, now + min_latency);
        }
    }
    EXPECT_EQ(dram.stats().reads + dram.stats().writes, 500u);
    EXPECT_NO_THROW(dram.checkInvariants(now));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DramRandomTrafficTest,
                         ::testing::Range(1u, 9u));

} // namespace
} // namespace bingo
