/**
 * @file
 * Tests for the small common utilities: address geometry, hashing,
 * RNG, saturating counters, stats helpers, the event queue, and the
 * environment-integer parser.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "common/event_queue.hpp"
#include "common/hash.hpp"
#include "common/periodic_gate.hpp"
#include "common/rng.hpp"
#include "common/sat_counter.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace bingo
{
namespace
{

TEST(Geometry, BlockHelpers)
{
    const Addr addr = 0x12345;
    EXPECT_EQ(blockAlign(addr), 0x12340u);
    EXPECT_EQ(blockNumber(addr), 0x12345u >> 6);
    EXPECT_EQ(blockAlign(blockAlign(addr)), blockAlign(addr));
}

TEST(Geometry, RegionHelpers)
{
    EXPECT_EQ(kRegionSize, 2048u);
    EXPECT_EQ(kBlocksPerRegion, 32u);
    const Addr addr = 3 * kRegionSize + 5 * kBlockSize + 7;
    EXPECT_EQ(regionNumber(addr), 3u);
    EXPECT_EQ(regionOffset(addr), 5u);
    EXPECT_EQ(regionAlign(addr), 3 * kRegionSize);
}

TEST(Geometry, RegionInsideOsPage)
{
    // Spatial regions must never straddle OS pages, or translation
    // would tear them apart.
    EXPECT_EQ(kOsPageSize % kRegionSize, 0u);
}

TEST(Hash, Mix64IsDeterministicAndSpreads)
{
    EXPECT_EQ(mix64(42), mix64(42));
    EXPECT_NE(mix64(42), mix64(43));
    // Nearby inputs should produce far-apart outputs (avalanche).
    std::set<std::uint64_t> lows;
    for (std::uint64_t i = 0; i < 1000; ++i)
        lows.insert(mix64(i) & 0xfff);
    EXPECT_GT(lows.size(), 700u);
}

TEST(Hash, FoldBitsStaysInRange)
{
    for (unsigned bits = 1; bits <= 32; ++bits) {
        const std::uint64_t folded = foldBits(0xdeadbeefcafebabeULL,
                                              bits);
        EXPECT_LT(folded, 1ULL << bits) << "bits=" << bits;
    }
    EXPECT_EQ(foldBits(0x1234, 64), 0x1234u);
}

TEST(Hash, CombineIsOrderSensitive)
{
    EXPECT_NE(hashCombine(1, 2), hashCombine(2, 1));
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(7);
    Rng b(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_EQ(same, 0);
}

TEST(Rng, BelowIsBounded)
{
    Rng rng(3);
    for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
        for (int i = 0; i < 200; ++i)
            EXPECT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, RangeIsInclusive)
{
    Rng rng(5);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.range(3, 6);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 6u);
        saw_lo |= v == 3;
        saw_hi |= v == 6;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(Rng, ZipfBoundedAndSkewed)
{
    Rng rng(17);
    std::uint64_t rank0 = 0;
    std::uint64_t tail = 0;
    for (int i = 0; i < 20000; ++i) {
        const auto r = rng.zipf(100, 0.8);
        ASSERT_LT(r, 100u);
        rank0 += r == 0;
        tail += r >= 50;
    }
    // Rank 0 must be far more popular than the tail half combined is
    // per-rank.
    EXPECT_GT(rank0, 1000u);
    EXPECT_LT(tail, 10000u);
}

TEST(SatCounter, SaturatesBothEnds)
{
    SatCounter c(2);
    EXPECT_EQ(c.max(), 3u);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3u);
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0u);
}

TEST(SatCounter, TakenAboveMidpoint)
{
    SatCounter c(2);
    EXPECT_FALSE(c.taken());
    c.increment();
    EXPECT_FALSE(c.taken());  // 1 of 3.
    c.increment();
    EXPECT_TRUE(c.taken());   // 2 of 3.
}

TEST(SatCounter, FractionSpansUnitInterval)
{
    SatCounter c(3, 7);
    EXPECT_DOUBLE_EQ(c.fraction(), 1.0);
    c.reset();
    EXPECT_DOUBLE_EQ(c.fraction(), 0.0);
}

TEST(Stats, MeanAndGeomean)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Stats, PercentFormatting)
{
    EXPECT_EQ(percent(0.634), "63.4%");
    EXPECT_EQ(percent(1.0, 0), "100%");
}

TEST(Stats, StatSetAccumulatesAndMerges)
{
    StatSet a;
    a.add("x");
    a.add("x", 2);
    a.set("y", 10);
    EXPECT_EQ(a.get("x"), 3u);
    EXPECT_EQ(a.get("missing"), 0u);

    StatSet b;
    b.add("x", 5);
    a.merge(b);
    EXPECT_EQ(a.get("x"), 8u);
    EXPECT_EQ(a.get("y"), 10u);
}

TEST(EventQueue, RunsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(2); });
    q.schedule(5, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(3); });
    q.runDue(15);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    q.runDue(20);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, FifoWithinSameCycle)
{
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule(7, [&order, i] { order.push_back(i); });
    q.runDue(7);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, EventsMayScheduleEvents)
{
    EventQueue q;
    int fired = 0;
    q.schedule(1, [&] {
        ++fired;
        q.schedule(1, [&] { ++fired; });
    });
    q.runDue(1);
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, NextEventCycle)
{
    EventQueue q;
    EXPECT_EQ(q.nextEventCycle(), kNeverCycle);
    q.schedule(42, [] {});
    EXPECT_EQ(q.nextEventCycle(), 42u);
    EXPECT_EQ(q.size(), 1u);
    q.runDue(42);
    EXPECT_TRUE(q.empty());
}

/**
 * Drives an EventQueue beside a naive reference: a set of pending
 * (cycle, insertion number) pairs that fires in sorted order, each
 * event receiving its own cycle.
 */
class QueueModel
{
  public:
    // Queued events capture `this`.
    QueueModel() = default;
    QueueModel(const QueueModel &) = delete;
    QueueModel &operator=(const QueueModel &) = delete;

    /** Top-level insert: ahead of the cursor or, sometimes, behind. */
    void
    scheduleFromOutside()
    {
        if (cursor_ > 0 && rng_.below(6) == 0)
            add(cursor_ - rng_.below(std::min<Cycle>(cursor_, 500) + 1));
        else
            add(ahead(cursor_));
    }

    /** runDue(now) on the queue; compare against the model. */
    void
    runDue(Cycle now)
    {
        fired_.clear();
        queue_.runDue(now);
        cursor_ = std::max(cursor_, now);
        std::vector<std::pair<std::uint64_t, Cycle>> expected;
        while (!pending_.empty() && pending_.begin()->first <= now) {
            expected.emplace_back(pending_.begin()->second,
                                  pending_.begin()->first);
            pending_.erase(pending_.begin());
        }
        ASSERT_EQ(fired_, expected) << "runDue(" << now << ")";
        ASSERT_EQ(queue_.size(), pending_.size());
        ASSERT_EQ(queue_.nextEventCycle(), pending_.empty()
                                               ? kNeverCycle
                                               : pending_.begin()->first);
    }

    Cycle cursor() const { return cursor_; }
    bool empty() const { return queue_.empty(); }
    Cycle next() const { return queue_.nextEventCycle(); }
    Rng &rng() { return rng_; }

  private:
    /**
     * A cycle at or after `base` on a 64-cycle grid reaching 6000
     * cycles out, so many events share a cycle and some wait across
     * many runDue() calls.
     */
    Cycle
    ahead(Cycle base)
    {
        return (base + rng_.below(6000) + 63) / 64 * 64;
    }

    void
    add(Cycle when)
    {
        const std::uint64_t id = next_id_++;
        pending_.emplace(when, id);
        queue_.schedule(when, [this, id](Cycle at) { fire(id, at); });
    }

    /** A firing event may schedule a child at or after its cycle. */
    void
    fire(std::uint64_t id, Cycle at)
    {
        fired_.emplace_back(id, at);
        const std::uint64_t kind = rng_.below(8);
        if (kind == 0)
            add(at);  // Same cycle, appended during the drain.
        else if (kind == 1)
            add(at + rng_.below(40));
        else if (kind == 2)
            add(ahead(at));
    }

    EventQueue queue_;
    std::set<std::pair<Cycle, std::uint64_t>> pending_;
    std::vector<std::pair<std::uint64_t, Cycle>> fired_;
    Rng rng_{0x5eed};
    std::uint64_t next_id_ = 0;
    Cycle cursor_ = 0;
};

TEST(EventQueue, MatchesASortedReference)
{
    QueueModel model;
    for (int round = 0; round < 3000; ++round) {
        for (std::uint64_t i = model.rng().below(4); i > 0; --i)
            model.scheduleFromOutside();
        const Cycle step =
            model.rng().below(4) == 0 ? 0 : model.rng().below(700);
        ASSERT_NO_FATAL_FAILURE(model.runDue(model.cursor() + step));
    }
    while (!model.empty())
        ASSERT_NO_FATAL_FAILURE(model.runDue(model.next()));
}

TEST(PeriodicGate, MatchesMaskTestUnderUnitStride)
{
    // Stepping one cycle at a time, crossed() must fire on exactly the
    // cycles where the old `(now & mask) == 0` test held.
    constexpr Cycle kMask = 0xF;
    PeriodicGate gate(kMask, 0);
    for (Cycle now = 0; now < 100; ++now)
        EXPECT_EQ(gate.crossed(now), (now & kMask) == 0) << now;
}

TEST(PeriodicGate, StartOffBoundaryArmsAtNextBoundary)
{
    constexpr Cycle kMask = 0xFF;
    PeriodicGate gate(kMask, 300);
    EXPECT_EQ(gate.nextBoundary(), 512u);
    EXPECT_FALSE(gate.crossed(300));
    EXPECT_FALSE(gate.crossed(511));
    EXPECT_TRUE(gate.crossed(512));
    EXPECT_FALSE(gate.crossed(513));
}

TEST(PeriodicGate, StartOnBoundaryFiresImmediately)
{
    PeriodicGate gate(0xFF, 512);
    EXPECT_TRUE(gate.crossed(512));
    EXPECT_EQ(gate.nextBoundary(), 768u);
}

TEST(PeriodicGate, IrregularStridesMissNoBoundary)
{
    // Advance by irregular strides (including jumps spanning several
    // periods) and check against a reference that enumerates every
    // boundary: the gate must fire exactly once per crossed span and
    // re-arm at the first boundary after the landing cycle.
    constexpr Cycle kMask = 0xFF;
    constexpr Cycle kPeriod = kMask + 1;
    PeriodicGate gate(kMask, 0);
    const Cycle strides[] = {1, 3, 255, 256, 257, 1, 1023, 2048,
                             5,  64, 191, 513, 2,  300,  4096, 7};
    Cycle now = 0;
    Cycle next_boundary = 0;  // First boundary not yet fired.
    std::uint64_t fired = 0;
    std::uint64_t boundaries_crossed = 0;
    for (const Cycle stride : strides) {
        const bool expect_fire = now >= next_boundary;
        if (expect_fire) {
            ++boundaries_crossed;
            next_boundary = (now / kPeriod + 1) * kPeriod;
        }
        EXPECT_EQ(gate.crossed(now), expect_fire) << "at " << now;
        fired += expect_fire ? 1 : 0;
        EXPECT_EQ(gate.nextBoundary(), next_boundary) << "at " << now;
        now += stride;
    }
    EXPECT_EQ(fired, boundaries_crossed);
    EXPECT_GT(fired, 4u);  // The strides cross many boundaries.
}

TEST(Env, U64AcceptsOnlyWholeUnsignedDecimals)
{
    constexpr const char *kName = "BINGO_TEST_ENV_U64";
    constexpr std::uint64_t kFallback = 7;
    struct Case
    {
        const char *value;  ///< nullptr = unset.
        std::uint64_t expected;
    };
    const Case cases[] = {
        {nullptr, kFallback},
        {"", kFallback},
        {"42", 42},
        {"0", 0},
        {"-1", kFallback},
        {"+3", kFallback},
        {"4x", kFallback},
        {" 4", kFallback},
        {"18446744073709551615", 18446744073709551615u},
        {"18446744073709551616", kFallback},  // 2^64 overflows.
    };
    for (const Case &c : cases) {
        if (c.value == nullptr)
            ::unsetenv(kName);
        else
            ::setenv(kName, c.value, 1);
        EXPECT_EQ(envU64(kName, kFallback), c.expected)
            << "value \"" << (c.value ? c.value : "(unset)") << "\"";
    }
    ::unsetenv(kName);
}

TEST(Env, SecondsAcceptsOnlyWholeFiniteNonNegativeDecimals)
{
    constexpr const char *kName = "BINGO_TEST_ENV_SECONDS";
    constexpr double kFallback = 7.0;
    struct Case
    {
        const char *value;  ///< nullptr = unset.
        double expected;
    };
    const Case cases[] = {
        {nullptr, kFallback}, {"", kFallback},     {"2", 2.0},
        {"0.5", 0.5},         {"0", 0.0},          {"-1", kFallback},
        {"5x", kFallback},    {" 5", kFallback},   {"inf", kFallback},
        {"nan", kFallback},   {"1e400", kFallback},
    };
    for (const Case &c : cases) {
        if (c.value == nullptr)
            ::unsetenv(kName);
        else
            ::setenv(kName, c.value, 1);
        EXPECT_EQ(envSeconds(kName, kFallback), c.expected)
            << "value \"" << (c.value ? c.value : "(unset)") << "\"";
    }
    ::unsetenv(kName);
}

TEST(Env, RejectedValueIsNamedOnStderrOnce)
{
    // A typo such as 30s must not turn a watchdog off unnoticed.
    // Warned names are remembered process-wide, so each run (under
    // --gtest_repeat) checks a variable of its own.
    static unsigned run = 0;
    const std::string typo = "BINGO_TEST_ENV_TYPO_" + std::to_string(run);
    const std::string empty = "BINGO_TEST_ENV_EMPTY_" + std::to_string(run);
    ++run;
    ::setenv(typo.c_str(), "30s", 1);
    ::setenv(empty.c_str(), "", 1);
    testing::internal::CaptureStderr();
    EXPECT_EQ(envSeconds(typo.c_str(), 0.0), 0.0);
    EXPECT_EQ(envSeconds(typo.c_str(), 0.0), 0.0);
    EXPECT_EQ(envU64(empty.c_str(), 3), 3u);
    const std::string err = testing::internal::GetCapturedStderr();
    ::unsetenv(typo.c_str());
    ::unsetenv(empty.c_str());

    const std::string named = typo + "=\"30s\"";
    const std::size_t first = err.find(named);
    ASSERT_NE(first, std::string::npos) << err;
    EXPECT_EQ(err.find(named, first + 1), std::string::npos) << err;
    EXPECT_EQ(err.find(empty), std::string::npos) << err;
}

} // namespace
} // namespace bingo
