/**
 * @file
 * Tests for the generic set-associative table: tag matching, LRU
 * replacement, predicate scans, and capacity invariants under random
 * traffic; and for the ZeroedArray under it: zero until written, and
 * a large one costs memory only for written pages, returned on
 * destruction.
 */

#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <utility>

#include "common/rng.hpp"
#include "common/sim_check.hpp"
#include "common/table.hpp"
#include "common/zeroed_array.hpp"

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
    EXPECT_EQ(table.find(0, 1), nullptr);
    // A cleared table allocates fresh storage on its next write.
    table.insert(1, 2, 5);
    ASSERT_NE(table.find(1, 2), nullptr);
    EXPECT_EQ(table.find(1, 2)->data, 5);
    EXPECT_EQ(table.occupancy(), 1u);
}

TEST(ZeroedArray, StartsZeroAndMoves)
{
    // One array from the heap, one on pages of its own.
    for (const std::size_t size :
         {std::size_t{1} << 10, std::size_t{1} << 18}) {
        ZeroedArray<std::uint64_t> a(size);
        ASSERT_EQ(a.size(), size);
        EXPECT_EQ(a.ownsPages(),
                  size * 8 >= ZeroedArray<int>::kOwnPagesBytes);
        for (std::size_t i = 0; i < a.size(); i += 511)
            ASSERT_EQ(a[i], 0u) << i;
        a[123] = 7;

        ZeroedArray<std::uint64_t> b(std::move(a));
        EXPECT_TRUE(a.empty());
        EXPECT_EQ(a.data(), nullptr);
        EXPECT_EQ(b[123], 7u);

        ZeroedArray<std::uint64_t> c;
        EXPECT_TRUE(c.empty());
        c = std::move(b);
        EXPECT_TRUE(b.empty());
        EXPECT_EQ(c[123], 7u);
        EXPECT_EQ(c.end() - c.begin(), static_cast<long>(c.size()));
    }
}

/** Resident set of this process in bytes, from /proc/self/statm. */
std::uint64_t
residentBytes()
{
    unsigned long long size = 0, resident = 0;
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr)
        return 0;
    const int got = std::fscanf(f, "%llu %llu", &size, &resident);
    std::fclose(f);
    return got == 2 ? resident * static_cast<std::uint64_t>(
                                     ::sysconf(_SC_PAGESIZE))
                    : 0;
}

TEST(ZeroedArray, LargeArrayCostsOnlyWrittenPages)
{
    if (residentBytes() == 0)
        GTEST_SKIP() << "no /proc/self/statm";
    constexpr std::uint64_t kMiB = 1024 * 1024;
    constexpr std::size_t kBytes = 64 * kMiB;
    const std::uint64_t base = residentBytes();
    {
        ZeroedArray<unsigned char> pages(kBytes);
        // Reading unwritten pages costs nothing either.
        unsigned sum = 0;
        for (std::size_t i = 0; i < kBytes; i += 4096)
            sum += pages[i];
        EXPECT_EQ(sum, 0u);
        EXPECT_LT(residentBytes(), base + 4 * kMiB);

        for (std::size_t i = 0; i < kBytes / 2; i += 4096)
            pages[i] = 1;
        EXPECT_GE(residentBytes(), base + 28 * kMiB);
    }
    EXPECT_LT(residentBytes(), base + 4 * kMiB);
}

/** Minor page faults this process has taken so far. */
long
minorFaults()
{
    struct rusage usage = {};
    ::getrusage(RUSAGE_SELF, &usage);
    return usage.ru_minflt;
}

TEST(SetAssocTable, LookupsStayOffUnwrittenSets)
{
    // 2^16 sets x 16 ways: 32 MB of entries and an 8 MB tag mirror on
    // pages of their own. With one set written, scanning every other
    // set must not touch their pages (each first read of a page is a
    // page fault that maps a zero page).
    constexpr std::size_t kSets = std::size_t{1} << 16;
    SetAssocTable<std::uint64_t> table(kSets, 16);
    table.insert(5, 0xaa, 1);
    const auto any = [](const auto &) { return true; };
    const long before = minorFaults();
    std::size_t found = 0;
    for (std::size_t set = 0; set < kSets; ++set) {
        found += table.find(set, 0xaa, false) != nullptr;
        found += table.countIf(set, any);
    }
    EXPECT_EQ(table.occupancy(), 1u);
    EXPECT_LT(minorFaults() - before, 64);
    EXPECT_EQ(found, 2u);

    // A fresh set takes way 0; later inserts scan as usual.
    table.insert(9, 0xbb, 2);
    table.insert(9, 0xcc, 3);
    table.insert(9, 0xbb, 4);
    EXPECT_EQ(table.countIf(9, any), 2u);
    EXPECT_EQ(table.find(9, 0xbb)->data, 4u);
    EXPECT_EQ(&std::as_const(table).entryAt(9 * 16),
              table.find(9, 0xbb));
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
