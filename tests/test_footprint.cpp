/**
 * @file
 * Unit and property tests for Footprint and FootprintVote — the data
 * structure at the heart of every PPH prefetcher.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/footprint.hpp"
#include "common/rng.hpp"

namespace bingo
{
namespace
{

TEST(Footprint, StartsEmpty)
{
    Footprint fp;
    EXPECT_TRUE(fp.empty());
    EXPECT_EQ(fp.count(), 0u);
    EXPECT_EQ(fp.raw(), 0u);
    EXPECT_EQ(fp.width(), kBlocksPerRegion);
}

TEST(Footprint, SetTestClear)
{
    Footprint fp;
    fp.set(3);
    EXPECT_TRUE(fp.test(3));
    EXPECT_FALSE(fp.test(2));
    EXPECT_EQ(fp.count(), 1u);
    fp.clear(3);
    EXPECT_FALSE(fp.test(3));
    EXPECT_TRUE(fp.empty());
}

TEST(Footprint, SetIsIdempotent)
{
    Footprint fp;
    fp.set(7);
    fp.set(7);
    EXPECT_EQ(fp.count(), 1u);
}

TEST(Footprint, FromRawMasksToWidth)
{
    Footprint fp = Footprint::fromRaw(~0ULL, 8);
    EXPECT_EQ(fp.count(), 8u);
    EXPECT_EQ(fp.raw(), 0xffULL);
}

TEST(Footprint, OffsetsAscending)
{
    Footprint fp;
    fp.set(9);
    fp.set(0);
    fp.set(31);
    const std::vector<unsigned> expected = {0, 9, 31};
    EXPECT_EQ(fp.offsets(), expected);
}

TEST(Footprint, AndOr)
{
    Footprint a = Footprint::fromRaw(0b1100);
    Footprint b = Footprint::fromRaw(0b1010);
    EXPECT_EQ((a & b).raw(), 0b1000u);
    EXPECT_EQ((a | b).raw(), 0b1110u);
}

TEST(Footprint, OverlapCountsSharedBlocks)
{
    Footprint predicted = Footprint::fromRaw(0b01111);
    Footprint actual = Footprint::fromRaw(0b11110);
    EXPECT_EQ(predicted.overlap(actual), 3u);
}

TEST(Footprint, EqualityIncludesWidth)
{
    Footprint a = Footprint::fromRaw(0b101, 8);
    Footprint b = Footprint::fromRaw(0b101, 8);
    Footprint c = Footprint::fromRaw(0b101, 16);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(Footprint, ToStringLsbFirst)
{
    Footprint fp = Footprint::fromRaw(0b101, 4);
    EXPECT_EQ(fp.toString(), "1010");
}

TEST(Footprint, FullWidth64)
{
    Footprint fp = Footprint::fromRaw(~0ULL, 64);
    EXPECT_EQ(fp.count(), 64u);
    fp.clear(63);
    EXPECT_EQ(fp.count(), 63u);
}

TEST(FootprintVote, EmptyResolvesEmpty)
{
    FootprintVote vote;
    EXPECT_TRUE(vote.resolve(0.2).empty());
    EXPECT_EQ(vote.voters(), 0u);
}

TEST(FootprintVote, SingleVoterPassesThrough)
{
    FootprintVote vote;
    Footprint fp = Footprint::fromRaw(0b1011);
    vote.add(fp);
    EXPECT_EQ(vote.resolve(0.2), fp);
    EXPECT_EQ(vote.resolve(1.0), fp);
}

TEST(FootprintVote, TwentyPercentRule)
{
    // The paper: "a cache block is prefetched if it is present in the
    // footprint of at least 20% of matching entries." With 10 voters,
    // blocks in >= 2 footprints survive.
    FootprintVote vote;
    for (int i = 0; i < 9; ++i)
        vote.add(Footprint::fromRaw(0b0001));
    vote.add(Footprint::fromRaw(0b0110));  // Blocks 1,2 appear once.
    Footprint result = vote.resolve(0.2);
    EXPECT_TRUE(result.test(0));
    EXPECT_FALSE(result.test(1));
    EXPECT_FALSE(result.test(2));
}

TEST(FootprintVote, ThresholdOneRequiresUnanimity)
{
    FootprintVote vote;
    vote.add(Footprint::fromRaw(0b11));
    vote.add(Footprint::fromRaw(0b01));
    Footprint result = vote.resolve(1.0);
    EXPECT_TRUE(result.test(0));
    EXPECT_FALSE(result.test(1));
}

TEST(FootprintVote, ThresholdZeroIsUnion)
{
    FootprintVote vote;
    vote.add(Footprint::fromRaw(0b01));
    vote.add(Footprint::fromRaw(0b10));
    EXPECT_EQ(vote.resolve(0.0).raw(), 0b11u);
}

TEST(FootprintVote, ThresholdExact)
{
    FootprintVote vote(8);
    // Three voters; blocks 0 and 3 get 3 votes, block 5 gets 1.
    vote.add(Footprint::fromRaw(0b00101001, 8));
    vote.add(Footprint::fromRaw(0b00001001, 8));
    vote.add(Footprint::fromRaw(0b00001001, 8));
    // Threshold 2/3 → min_votes = 2: blocks 0 and 3 survive.
    const Footprint cut = vote.resolve(0.66);
    EXPECT_EQ(cut.raw(), 0b00001001u);
}

/** Property sweep: resolve() respects the vote threshold exactly. */
class VoteThresholdTest
    : public ::testing::TestWithParam<std::tuple<unsigned, double>>
{
};

TEST_P(VoteThresholdTest, BlocksAboveThresholdSurvive)
{
    const auto [voters, threshold] = GetParam();
    Rng rng(voters * 7919 + static_cast<unsigned>(threshold * 100));

    FootprintVote vote;
    std::vector<unsigned> counts(kBlocksPerRegion, 0);
    for (unsigned v = 0; v < voters; ++v) {
        Footprint fp = Footprint::fromRaw(rng.next());
        for (unsigned b = 0; b < kBlocksPerRegion; ++b) {
            if (fp.test(b))
                ++counts[b];
        }
        vote.add(fp);
    }

    const Footprint result = vote.resolve(threshold);
    const auto needed = static_cast<unsigned>(
        std::ceil(threshold * voters));
    const unsigned min_votes = needed == 0 ? 1 : needed;
    for (unsigned b = 0; b < kBlocksPerRegion; ++b) {
        EXPECT_EQ(result.test(b), counts[b] >= min_votes)
            << "block " << b << " votes " << counts[b] << "/" << voters
            << " threshold " << threshold;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VoteThresholdTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 5u, 8u, 16u),
                       ::testing::Values(0.0, 0.2, 0.5, 0.75, 1.0)));

/** Property: AND/OR/overlap identities hold for random footprints. */
class FootprintAlgebraTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(FootprintAlgebraTest, Identities)
{
    Rng rng(GetParam());
    const Footprint a = Footprint::fromRaw(rng.next());
    const Footprint b = Footprint::fromRaw(rng.next());
    EXPECT_EQ((a & b).count(), a.overlap(b));
    EXPECT_EQ((a & b).count() + (a | b).count(), a.count() + b.count());
    EXPECT_EQ((a | b).overlap(a), a.count());
}

INSTANTIATE_TEST_SUITE_P(Seeds, FootprintAlgebraTest,
                         ::testing::Range(1u, 21u));

} // namespace
} // namespace bingo
