/**
 * @file
 * Tests for the cache model: hit/miss accounting, MSHR merging,
 * write-allocate and writeback, prefetch-bit bookkeeping, pending-fetch
 * replay, the prefetch queue, eviction listeners, and LRU/SRRIP victim
 * choice against a naive reference model.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "cache/cache.hpp"
#include "common/rng.hpp"
#include "test_util.hpp"

namespace bingo
{
namespace
{

using test::FakeLower;

class CacheTest : public ::testing::Test
{
  protected:
    CacheTest()
        : lower_(events_, /*latency=*/100),
          cache_("test", smallConfig(), events_, lower_)
    {
    }

    static CacheConfig
    smallConfig()
    {
        CacheConfig config;
        config.size_bytes = 8 * 1024;  // 16 sets x 2 ways.
        config.ways = 2;
        config.hit_latency = 4;
        config.mshr_entries = 4;
        config.prefetch_queue = 4;
        return config;
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

    /** Run the clock until `cycle`, draining events. */
    void
    runTo(Cycle cycle)
    {
        for (Cycle c = now_; c <= cycle; ++c)
            events_.runDue(c);
        now_ = cycle;
    }

    EventQueue events_;
    FakeLower lower_;
    Cache cache_;
    Cycle now_ = 0;
};

TEST_F(CacheTest, ColdMissFetchesAndFills)
{
    Cycle done_at = 0;
    cache_.access(loadAccess(0), 0, [&](Cycle c) { done_at = c; });
    EXPECT_EQ(cache_.stats().demand_misses, 1u);
    runTo(200);
    EXPECT_GT(done_at, 0u);
    EXPECT_TRUE(cache_.contains(0));
    EXPECT_EQ(lower_.fetches.size(), 1u);
}

TEST_F(CacheTest, HitAfterFill)
{
    cache_.access(loadAccess(0), 0, [](Cycle) {});
    runTo(200);
    Cycle done_at = 0;
    cache_.access(loadAccess(0), 200, [&](Cycle c) { done_at = c; });
    runTo(210);
    EXPECT_EQ(cache_.stats().demand_hits, 1u);
    EXPECT_EQ(done_at, 200u + cache_.config().hit_latency);
}

TEST_F(CacheTest, MissLatencyIncludesLookupAndLower)
{
    Cycle done_at = 0;
    cache_.access(loadAccess(0), 0, [&](Cycle c) { done_at = c; });
    runTo(300);
    // Tag lookup (hit_latency) + lower latency (100).
    EXPECT_EQ(done_at, cache_.config().hit_latency + 100u);
    EXPECT_NEAR(cache_.stats().avgDemandMissLatency(),
                static_cast<double>(done_at), 1e-9);
}

TEST_F(CacheTest, SecondaryMissMergesIntoMshr)
{
    int fills = 0;
    cache_.access(loadAccess(0), 0, [&](Cycle) { ++fills; });
    cache_.access(loadAccess(0), 1, [&](Cycle) { ++fills; });
    EXPECT_EQ(cache_.stats().mshr_merges, 1u);
    EXPECT_EQ(cache_.stats().demand_misses, 2u);
    runTo(300);
    EXPECT_EQ(fills, 2);
    EXPECT_EQ(lower_.fetches.size(), 1u);  // One fetch for both.
}

TEST_F(CacheTest, StoreMissInstallsDirtyAndWritesBackOnEviction)
{
    MemAccess st = loadAccess(0);
    st.type = AccessType::Store;
    cache_.access(st, 0, [](Cycle) {});
    runTo(200);

    // 64 sets: blocks 64 apart share a set; fill it to evict block 0.
    const Addr stride = 64 * kBlockSize;
    cache_.access(loadAccess(stride), 200, [](Cycle) {});
    cache_.access(loadAccess(2 * stride), 201, [](Cycle) {});
    runTo(500);
    EXPECT_FALSE(cache_.contains(0));
    ASSERT_EQ(lower_.writebacks.size(), 1u);
    EXPECT_EQ(lower_.writebacks[0], 0u);
}

TEST_F(CacheTest, CleanEvictionDoesNotWriteBack)
{
    cache_.access(loadAccess(0), 0, [](Cycle) {});
    runTo(200);
    const Addr stride = 64 * kBlockSize;
    cache_.access(loadAccess(stride), 200, [](Cycle) {});
    cache_.access(loadAccess(2 * stride), 201, [](Cycle) {});
    runTo(500);
    EXPECT_TRUE(lower_.writebacks.empty());
    EXPECT_EQ(cache_.stats().evictions, 1u);
}

TEST_F(CacheTest, LruEvictionOrder)
{
    const Addr stride = 64 * kBlockSize;  // Same set.
    cache_.access(loadAccess(0), 0, [](Cycle) {});
    cache_.access(loadAccess(stride), 1, [](Cycle) {});
    runTo(200);
    // Touch block 0 so `stride` is LRU.
    cache_.access(loadAccess(0), 200, [](Cycle) {});
    runTo(210);
    cache_.access(loadAccess(2 * stride), 210, [](Cycle) {});
    runTo(400);
    EXPECT_TRUE(cache_.contains(0));
    EXPECT_FALSE(cache_.contains(stride));
}

TEST_F(CacheTest, PrefetchFillsWithPrefetchBit)
{
    cache_.prefetch(0, 0x400, 0, 0);
    runTo(200);
    EXPECT_TRUE(cache_.contains(0));
    EXPECT_EQ(cache_.stats().prefetch_fills, 1u);

    // Demand hit on the prefetched block counts as useful.
    cache_.access(loadAccess(0), 200, [](Cycle) {});
    runTo(210);
    EXPECT_EQ(cache_.stats().useful_prefetches, 1u);

    // A second hit does not double-count.
    cache_.access(loadAccess(0), 210, [](Cycle) {});
    runTo(220);
    EXPECT_EQ(cache_.stats().useful_prefetches, 1u);
}

TEST_F(CacheTest, UnusedPrefetchEvictionCountsUseless)
{
    cache_.prefetch(0, 0x400, 0, 0);
    runTo(200);
    const Addr stride = 64 * kBlockSize;
    cache_.access(loadAccess(stride), 200, [](Cycle) {});
    cache_.access(loadAccess(2 * stride), 201, [](Cycle) {});
    runTo(500);
    EXPECT_EQ(cache_.stats().useless_prefetches, 1u);
    EXPECT_EQ(cache_.stats().useful_prefetches, 0u);
}

TEST_F(CacheTest, DemandMergingIntoPrefetchIsLateUseful)
{
    cache_.prefetch(0, 0x400, 0, 0);
    int done = 0;
    cache_.access(loadAccess(0), 1, [&](Cycle) { ++done; });
    EXPECT_EQ(cache_.stats().late_prefetch_hits, 1u);
    EXPECT_EQ(cache_.stats().useful_prefetches, 1u);
    EXPECT_EQ(cache_.stats().demand_misses, 0u);
    runTo(300);
    EXPECT_EQ(done, 1);
    // The block is installed without the prefetch bit (already used).
    const Addr stride = 64 * kBlockSize;
    cache_.access(loadAccess(stride), 300, [](Cycle) {});
    cache_.access(loadAccess(2 * stride), 301, [](Cycle) {});
    runTo(600);
    EXPECT_EQ(cache_.stats().useless_prefetches, 0u);
}

TEST_F(CacheTest, PrefetchToPresentBlockDrops)
{
    cache_.access(loadAccess(0), 0, [](Cycle) {});
    runTo(200);
    cache_.prefetch(0, 0x400, 0, 200);
    EXPECT_EQ(cache_.stats().prefetch_drop_present, 1u);
}

TEST_F(CacheTest, PrefetchToInflightBlockDrops)
{
    cache_.access(loadAccess(0), 0, [](Cycle) {});
    cache_.prefetch(0, 0x400, 0, 1);
    EXPECT_EQ(cache_.stats().prefetch_drop_inflight, 1u);
}

TEST_F(CacheTest, PrefetchQueueBuffersThenIssues)
{
    // Fill MSHRs up to the demand reserve (4 MSHRs, reserve 1 -> 3
    // prefetches allowed in flight).
    cache_.prefetch(0 * kBlockSize, 0x400, 0, 0);
    cache_.prefetch(1 * kBlockSize, 0x400, 0, 0);
    cache_.prefetch(2 * kBlockSize, 0x400, 0, 0);
    cache_.prefetch(3 * kBlockSize, 0x400, 0, 0);  // Queued.
    EXPECT_EQ(lower_.fetches.size(), 3u);
    EXPECT_EQ(cache_.stats().prefetch_drops, 0u);
    runTo(300);  // Fills release MSHRs; queue drains.
    EXPECT_EQ(lower_.fetches.size(), 4u);
    EXPECT_TRUE(cache_.contains(3 * kBlockSize));
}

TEST_F(CacheTest, PrefetchQueueOverflowDrops)
{
    // 3 in flight + 4 queued = 7; the 8th is dropped.
    for (Addr b = 0; b < 8; ++b)
        cache_.prefetch(b * kBlockSize, 0x400, 0, 0);
    EXPECT_EQ(cache_.stats().prefetch_drop_mshr, 1u);
}

TEST_F(CacheTest, DemandsParkWhenMshrsFull)
{
    int done = 0;
    for (Addr b = 0; b < 6; ++b) {
        cache_.access(loadAccess(b * kBlockSize), 0,
                      [&](Cycle) { ++done; });
    }
    EXPECT_EQ(cache_.stats().mshr_stall_fetches, 2u);
    runTo(500);
    EXPECT_EQ(done, 6);  // Parked fetches replay and complete.
    for (Addr b = 0; b < 6; ++b)
        EXPECT_TRUE(cache_.contains(b * kBlockSize));
}

TEST_F(CacheTest, EvictionListenerFires)
{
    std::vector<Addr> evicted;
    cache_.addEvictionListener([&](Addr block) {
        evicted.push_back(block);
    });
    const Addr stride = 64 * kBlockSize;
    cache_.access(loadAccess(0), 0, [](Cycle) {});
    cache_.access(loadAccess(stride), 1, [](Cycle) {});
    runTo(200);
    cache_.access(loadAccess(2 * stride), 200, [](Cycle) {});
    runTo(400);
    ASSERT_EQ(evicted.size(), 1u);
    EXPECT_EQ(evicted[0], 0u);
}

TEST_F(CacheTest, AccessHookSeesHitsAndMisses)
{
    std::vector<bool> hits;
    cache_.setAccessHook([&](const MemAccess &, bool hit, Cycle) {
        hits.push_back(hit);
    });
    cache_.access(loadAccess(0), 0, [](Cycle) {});
    runTo(200);
    cache_.access(loadAccess(0), 200, [](Cycle) {});
    runTo(210);
    ASSERT_EQ(hits.size(), 2u);
    EXPECT_FALSE(hits[0]);
    EXPECT_TRUE(hits[1]);
}

TEST_F(CacheTest, ResidentBlocksTracksFills)
{
    EXPECT_EQ(cache_.residentBlocks(), 0u);
    cache_.access(loadAccess(0), 0, [](Cycle) {});
    cache_.access(loadAccess(kBlockSize), 1, [](Cycle) {});
    runTo(300);
    EXPECT_EQ(cache_.residentBlocks(), 2u);
}

TEST_F(CacheTest, ResetStatsZeroesCounters)
{
    cache_.access(loadAccess(0), 0, [](Cycle) {});
    runTo(200);
    cache_.resetStats();
    EXPECT_EQ(cache_.stats().demand_accesses, 0u);
    EXPECT_EQ(cache_.stats().demand_misses, 0u);
    EXPECT_TRUE(cache_.contains(0));  // Content survives.
}

/** Property: under random traffic, occupancy never exceeds capacity
 *  and every completed access's block was fetched exactly once per
 *  distinct miss. */
class CacheRandomTrafficTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CacheRandomTrafficTest, Invariants)
{
    EventQueue events;
    FakeLower lower(events, 50);
    CacheConfig config;
    config.size_bytes = 4 * 1024;
    config.ways = 4;
    config.mshr_entries = 8;
    config.prefetch_queue = 8;
    Cache cache("rand", config, events, lower);

    Rng rng(GetParam());
    std::uint64_t completions = 0;
    Cycle now = 0;
    for (int i = 0; i < 3000; ++i) {
        now += rng.below(3);
        events.runDue(now);
        const Addr block = rng.below(64) * kBlockSize;
        if (rng.chance(0.2)) {
            cache.prefetch(block, 0x1, 0, now);
        } else {
            MemAccess access;
            access.block = block;
            access.type = rng.chance(0.3) ? AccessType::Store
                                          : AccessType::Load;
            cache.access(access, now,
                         [&completions](Cycle) { ++completions; });
        }
        ASSERT_LE(cache.residentBlocks(), config.numBlocks());
    }
    for (Cycle c = now; c < now + 2000; ++c)
        events.runDue(c);

    const CacheStats &s = cache.stats();
    EXPECT_EQ(completions, s.demand_accesses);
    EXPECT_EQ(s.demand_accesses,
              s.demand_hits + s.demand_misses + s.late_prefetch_hits);
    EXPECT_EQ(s.prefetch_requests,
              s.prefetch_drops + s.prefetch_fills);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheRandomTrafficTest,
                         ::testing::Range(1u, 11u));

/**
 * Deliberately naive replacement model, written from the policy
 * definitions rather than from Cache's packed per-way arrays. Per set,
 * LRU keeps its blocks in a list in recency order (front = most
 * recent); SRRIP keeps a tag and a 2-bit RRPV per way, where a hit
 * sets 0, a fill sets 2, and the victim is the first way at 3 after
 * ageing the set until one exists. Both fill invalid ways first.
 */
class ReplacementModel
{
  public:
    ReplacementModel(ReplacementKind kind, std::size_t sets,
                     std::size_t ways)
        : kind_(kind), ways_(ways), recency_(sets),
          rrip_(sets, std::vector<RripWay>(ways))
    {
    }

    /** A block leaving the cache, and whether it must be written back. */
    struct Eviction
    {
        Addr block = 0;
        bool dirty = false;
    };

    /** One demand access; returns the eviction it causes, if any. */
    std::optional<Eviction>
    access(Addr block, bool store)
    {
        const std::size_t set = blockNumber(block) % recency_.size();
        const std::optional<Addr> victim =
            kind_ == ReplacementKind::Lru
                ? accessLru(recency_[set], block)
                : accessSrrip(rrip_[set], block);
        std::optional<Eviction> eviction;
        if (victim)
            eviction = Eviction{*victim, dirty_.erase(*victim) != 0};
        if (store)
            dirty_.insert(block);
        return eviction;
    }

    bool
    contains(Addr block) const
    {
        const std::size_t set = blockNumber(block) % recency_.size();
        if (kind_ == ReplacementKind::Lru) {
            const std::list<Addr> &order = recency_[set];
            return std::find(order.begin(), order.end(), block) !=
                   order.end();
        }
        const std::vector<RripWay> &ways = rrip_[set];
        return std::any_of(ways.begin(), ways.end(),
                           [block](const RripWay &way) {
                               return way.valid && way.tag == block;
                           });
    }

  private:
    struct RripWay
    {
        bool valid = false;
        Addr tag = 0;
        unsigned rrpv = 3;
    };

    std::optional<Addr>
    accessLru(std::list<Addr> &order, Addr block)
    {
        const auto hit = std::find(order.begin(), order.end(), block);
        if (hit != order.end()) {
            order.splice(order.begin(), order, hit);
            return std::nullopt;
        }
        std::optional<Addr> victim;
        if (order.size() == ways_) {
            victim = order.back();
            order.pop_back();
        }
        order.push_front(block);
        return victim;
    }

    static std::optional<Addr>
    accessSrrip(std::vector<RripWay> &ways, Addr block)
    {
        for (RripWay &way : ways) {
            if (way.valid && way.tag == block) {
                way.rrpv = 0;
                return std::nullopt;
            }
        }
        std::optional<Addr> victim;
        auto slot = std::find_if(ways.begin(), ways.end(),
                                 [](const RripWay &way) {
                                     return !way.valid;
                                 });
        if (slot == ways.end()) {
            for (;;) {
                slot = std::find_if(ways.begin(), ways.end(),
                                    [](const RripWay &way) {
                                        return way.rrpv == 3;
                                    });
                if (slot != ways.end())
                    break;
                for (RripWay &way : ways)
                    ++way.rrpv;
            }
            victim = slot->tag;
        }
        *slot = RripWay{true, block, 2};
        return victim;
    }

    ReplacementKind kind_;
    std::size_t ways_;
    std::vector<std::list<Addr>> recency_;
    std::vector<std::vector<RripWay>> rrip_;
    std::set<Addr> dirty_;
};

class CacheReplacementModelTest
    : public ::testing::TestWithParam<
          std::tuple<ReplacementKind, unsigned>>
{
};

/**
 * The cache's victim choice agrees with the reference model access by
 * access: every eviction (or its absence), every writeback of a dirty
 * victim, and the resident set.
 */
TEST_P(CacheReplacementModelTest, VictimsMatchNaiveModel)
{
    const auto [kind, seed] = GetParam();
    EventQueue events;
    FakeLower lower(events, 20);
    CacheConfig config;
    config.size_bytes = 16 * kBlockSize;  // 4 sets x 4 ways.
    config.ways = 4;
    config.replacement = kind;
    Cache cache("model", config, events, lower);
    std::vector<Addr> evicted;
    cache.addEvictionListener(
        [&evicted](Addr block) { evicted.push_back(block); });
    ReplacementModel model(kind, config.numSets(), config.ways);

    // 12 blocks per set, three times the associativity: hits, fills
    // into invalid ways and evictions all stay common.
    constexpr Addr kBlocks = 48;
    Rng rng(seed);
    Cycle now = 0;
    for (int i = 0; i < 4000; ++i) {
        MemAccess access;
        access.block = rng.below(kBlocks) * kBlockSize;
        access.type =
            rng.chance(0.3) ? AccessType::Store : AccessType::Load;
        const bool store = access.type == AccessType::Store;
        const auto expect = model.access(access.block, store);
        const std::size_t writebacks = lower.writebacks.size();

        evicted.clear();
        bool done = false;
        cache.access(access, now, [&done](Cycle) { done = true; });
        while (!done)
            events.runDue(now++);
        cache.checkInvariants(now);

        ASSERT_EQ(evicted.size(), expect ? 1u : 0u) << "access " << i;
        if (expect) {
            ASSERT_EQ(evicted.front(), expect->block) << "access " << i;
        }
        ASSERT_EQ(lower.writebacks.size(),
                  writebacks + (expect && expect->dirty ? 1 : 0))
            << "access " << i;
        for (Addr b = 0; b < kBlocks; ++b) {
            ASSERT_EQ(cache.contains(b * kBlockSize),
                      model.contains(b * kBlockSize))
                << "access " << i << ", block " << b;
        }
    }
    // The stream must have exercised both sides of the policy.
    EXPECT_GT(cache.stats().demand_hits, 500u);
    EXPECT_GT(cache.stats().evictions, 500u);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, CacheReplacementModelTest,
    ::testing::Combine(::testing::Values(ReplacementKind::Lru,
                                         ReplacementKind::Srrip),
                       ::testing::Range(1u, 6u)),
    [](const auto &info) {
        return std::string(std::get<0>(info.param) ==
                                   ReplacementKind::Lru
                               ? "Lru"
                               : "Srrip") +
               "_seed" + std::to_string(std::get<1>(info.param));
    });

} // namespace
} // namespace bingo
