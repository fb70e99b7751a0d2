/**
 * @file
 * Tests for the generic set-associative table: tag matching, LRU
 * replacement, predicate scans, and capacity invariants under random
 * traffic.
 */

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "common/rng.hpp"
#include "common/sim_check.hpp"
#include "common/table.hpp"

namespace bingo
{
namespace
{

TEST(SetAssocTable, InsertAndFind)
{
    SetAssocTable<int> table(4, 2);
    table.insert(1, 0xaa, 7);
    auto *entry = table.find(1, 0xaa);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->data, 7);
    EXPECT_EQ(table.find(1, 0xbb), nullptr);
    EXPECT_EQ(table.find(0, 0xaa), nullptr);  // Wrong set.
}

TEST(SetAssocTable, UnwrittenTableReadsEmpty)
{
    // Storage is allocated on the first write; until then every read
    // sees an empty table, and set indices are still checked.
    SetAssocTable<int> table(4, 2);
    const auto any = [](const auto &) { return true; };
    EXPECT_EQ(table.capacity(), 8u);
    EXPECT_EQ(table.occupancy(), 0u);
    EXPECT_EQ(table.find(3, 0xaa), nullptr);
    EXPECT_FALSE(table.erase(3, 0xaa));
    EXPECT_EQ(table.countIf(3, any), 0u);
    EXPECT_FALSE(std::as_const(table).entryAt(7).valid);
    table.clear();
    EXPECT_THROW(table.find(4, 0xaa), SimError);
    EXPECT_THROW(table.countIf(4, any), SimError);

    // A write through entryAt() allocates the storage it writes to.
    auto &entry = table.entryAt(3);  // Set 1, way 1.
    entry.valid = true;
    entry.tag = 0xbb;
    ASSERT_NE(table.find(1, 0xbb), nullptr);
    EXPECT_EQ(table.occupancy(), 1u);
}

TEST(SetAssocTable, SameTagOverwritesInPlace)
{
    SetAssocTable<int> table(2, 2);
    table.insert(0, 5, 1);
    table.insert(0, 5, 2);
    EXPECT_EQ(table.occupancy(), 1u);
    EXPECT_EQ(table.find(0, 5)->data, 2);
}

TEST(SetAssocTable, LruVictimIsLeastRecentlyUsed)
{
    SetAssocTable<int> table(1, 2);
    table.insert(0, 1, 10);
    table.insert(0, 2, 20);
    table.find(0, 1);           // Touch 1 -> 2 becomes LRU.
    table.insert(0, 3, 30);     // Evicts 2.
    EXPECT_NE(table.find(0, 1), nullptr);
    EXPECT_EQ(table.find(0, 2), nullptr);
    EXPECT_NE(table.find(0, 3), nullptr);
}

TEST(SetAssocTable, FindWithoutTouchDoesNotPromote)
{
    SetAssocTable<int> table(1, 2);
    table.insert(0, 1, 10);
    table.insert(0, 2, 20);
    table.find(0, 1, /*touch=*/false);  // 1 stays LRU.
    table.insert(0, 3, 30);             // Evicts 1.
    EXPECT_EQ(table.find(0, 1), nullptr);
    EXPECT_NE(table.find(0, 2), nullptr);
}

TEST(SetAssocTable, ForEachIfVisitsEveryMatchOnce)
{
    SetAssocTable<int> table(1, 4);
    table.insert(0, 1, 1);
    table.insert(0, 2, 2);
    table.insert(0, 3, 3);
    table.erase(0, 2);
    int sum = 0;
    int visits = 0;
    table.forEachIf(
        0, [](const auto &) { return true; },
        [&](const auto &e) {
            sum += e.data;
            ++visits;
        });
    EXPECT_EQ(visits, 2);
    EXPECT_EQ(sum, 4);  // Erased entries are skipped.
}

TEST(SetAssocTable, EraseInvalidates)
{
    SetAssocTable<int> table(2, 2);
    table.insert(1, 9, 99);
    EXPECT_TRUE(table.erase(1, 9));
    EXPECT_FALSE(table.erase(1, 9));
    EXPECT_EQ(table.find(1, 9), nullptr);
    EXPECT_EQ(table.occupancy(), 0u);
}

TEST(SetAssocTable, ClearEmptiesEverything)
{
    SetAssocTable<int> table(2, 2);
    table.insert(0, 1, 1);
    table.insert(1, 2, 2);
    table.clear();
    EXPECT_EQ(table.occupancy(), 0u);
}

TEST(SetAssocTable, SetIndexMasksToSetCount)
{
    SetAssocTable<int> table(8, 1);
    for (std::uint64_t h = 0; h < 100; ++h)
        EXPECT_LT(table.setIndex(h * 0x9e3779b9ULL), 8u);
}

/** Property: under random traffic the table never exceeds capacity
 *  and an inserted entry is findable until `ways` newer distinct tags
 *  hit its set. */
class TableGeometryTest
    : public ::testing::TestWithParam<std::tuple<std::size_t,
                                                 std::size_t>>
{
};

TEST_P(TableGeometryTest, CapacityInvariants)
{
    const auto [sets, ways] = GetParam();
    SetAssocTable<std::uint64_t> table(sets, ways);
    Rng rng(sets * 31 + ways);

    std::map<std::pair<std::size_t, std::uint64_t>, std::uint64_t>
        shadow;
    for (int i = 0; i < 2000; ++i) {
        const std::uint64_t tag = rng.below(sets * ways * 4);
        const std::size_t set = table.setIndex(mix64(tag));
        table.insert(set, tag, tag * 3);
        shadow[{set, tag}] = tag * 3;

        EXPECT_LE(table.occupancy(), sets * ways);
        // Freshly inserted entries are always findable.
        auto *entry = table.find(set, tag, false);
        ASSERT_NE(entry, nullptr);
        EXPECT_EQ(entry->data, tag * 3);
    }
    // Every valid entry holds the value we last inserted under its tag.
    for (const auto &[key, value] : shadow) {
        auto *entry = table.find(key.first, key.second, false);
        if (entry != nullptr) {
            EXPECT_EQ(entry->data, value);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TableGeometryTest,
    ::testing::Combine(::testing::Values(1u, 2u, 8u, 64u),
                       ::testing::Values(1u, 2u, 4u, 16u, 128u)));

} // namespace
} // namespace bingo
