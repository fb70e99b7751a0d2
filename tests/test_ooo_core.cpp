/**
 * @file
 * Tests for the out-of-order core model: retire width, load latency
 * exposure, LSQ and ROB occupancy limits, dependent-load
 * serialization, measurement bookkeeping, and the wake/replay protocol
 * the run loop skips cycles by, against the per-cycle step().
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "common/rng.hpp"
#include "core/ooo_core.hpp"
#include "test_util.hpp"

namespace bingo
{
namespace
{

using test::FakeLower;
using test::ScriptedSource;
using test::alu;
using test::load;

class CoreTest : public ::testing::Test
{
  protected:
    /** Run `cycles` cycles of one core over `script`. */
    std::unique_ptr<OooCore>
    makeCore(std::vector<TraceRecord> script, Cycle mem_latency = 50,
             CoreConfig config = CoreConfig{})
    {
        source_ = std::make_unique<ScriptedSource>(std::move(script));
        lower_ = std::make_unique<FakeLower>(events_, mem_latency);
        CacheConfig l1;
        l1.size_bytes = 4 * 1024;
        l1.ways = 4;
        l1.mshr_entries = 8;
        l1_ = std::make_unique<Cache>("L1", l1, events_, *lower_);
        return std::make_unique<OooCore>(0, config, *l1_, *source_);
    }

    void
    run(OooCore &core, Cycle cycles)
    {
        for (Cycle c = 0; c < cycles; ++c) {
            events_.runDue(c);
            core.step(c);
        }
    }

    EventQueue events_;
    std::unique_ptr<ScriptedSource> source_;
    std::unique_ptr<FakeLower> lower_;
    std::unique_ptr<Cache> l1_;
};

TEST_F(CoreTest, AluOnlyRetiresAtFullWidth)
{
    auto core = makeCore({});
    core->startMeasurement(4000, 0);
    run(*core, 1100);
    EXPECT_TRUE(core->measurementDone());
    // 4000 instructions at width 4 take ~1001 cycles (1-cycle ramp).
    EXPECT_NEAR(core->ipc(), 4.0, 0.1);
}

TEST_F(CoreTest, LoadMissStallsRetirement)
{
    std::vector<TraceRecord> script = {load(0x400, 0x1000)};
    for (int i = 0; i < 100; ++i)
        script.push_back(alu());
    auto core = makeCore(std::move(script), /*mem_latency=*/200);
    core->startMeasurement(101, 0);
    run(*core, 1000);
    ASSERT_TRUE(core->measurementDone());
    // The load's ~200-cycle miss dominates: 101 instructions can only
    // retire after its data returns.
    EXPECT_GT(core->completionCycle(), 200u);
}

TEST_F(CoreTest, IndependentLoadsOverlap)
{
    // Eight independent loads to distinct blocks: completion near one
    // latency, not eight.
    std::vector<TraceRecord> script;
    for (int i = 0; i < 8; ++i)
        script.push_back(load(0x400, 0x1000 + i * kBlockSize));
    auto core = makeCore(std::move(script), 200);
    core->startMeasurement(8, 0);
    run(*core, 4000);
    ASSERT_TRUE(core->measurementDone());
    EXPECT_LT(core->completionCycle(), 2 * 210u);
}

TEST_F(CoreTest, DependentLoadsSerialize)
{
    // Four chained loads: completion ~4 latencies.
    std::vector<TraceRecord> script;
    script.push_back(load(0x400, 0x1000));
    for (int i = 1; i < 4; ++i) {
        script.push_back(
            load(0x400, 0x1000 + i * kBlockSize, /*dependent=*/true));
    }
    auto core = makeCore(std::move(script), 200);
    core->startMeasurement(4, 0);
    run(*core, 4000);
    ASSERT_TRUE(core->measurementDone());
    EXPECT_GT(core->completionCycle(), 4 * 200u);
}

TEST_F(CoreTest, DependentLoadOnCompletedPredecessorIssuesNow)
{
    // If the previous load already finished, a dependent load must not
    // wait forever.
    std::vector<TraceRecord> script;
    script.push_back(load(0x400, 0x1000));
    for (int i = 0; i < 400; ++i)
        script.push_back(alu());
    script.push_back(load(0x400, 0x2000, /*dependent=*/true));
    auto core = makeCore(std::move(script), 50);
    core->startMeasurement(402, 0);
    run(*core, 2000);
    EXPECT_TRUE(core->measurementDone());
}

TEST_F(CoreTest, StoresRetireWithoutWaiting)
{
    std::vector<TraceRecord> script = {test::store(0x400, 0x1000)};
    for (int i = 0; i < 20; ++i)
        script.push_back(alu());
    auto core = makeCore(std::move(script), 500);
    core->startMeasurement(21, 0);
    run(*core, 200);
    // All 21 instructions retire long before the store's 500-cycle
    // write completes.
    EXPECT_TRUE(core->measurementDone());
    EXPECT_LT(core->completionCycle(), 100u);
}

TEST_F(CoreTest, LsqLimitsOutstandingMemOps)
{
    CoreConfig config;
    config.lsq_entries = 2;
    std::vector<TraceRecord> script;
    for (int i = 0; i < 16; ++i)
        script.push_back(load(0x400, 0x1000 + i * kBlockSize));
    auto core = makeCore(std::move(script), 100, config);
    core->startMeasurement(16, 0);
    run(*core, 5000);
    ASSERT_TRUE(core->measurementDone());
    // 16 loads at <=2 outstanding and 100-cycle latency: at least
    // 8 serialized rounds.
    EXPECT_GT(core->completionCycle(), 700u);
    EXPECT_GT(core->stats().lsq_full_cycles, 0u);
}

TEST_F(CoreTest, RobLimitsInFlightInstructions)
{
    CoreConfig config;
    config.rob_entries = 8;
    // A long-latency load followed by many ALUs: the ROB fills behind
    // the load.
    std::vector<TraceRecord> script = {load(0x400, 0x1000)};
    for (int i = 0; i < 100; ++i)
        script.push_back(alu());
    auto core = makeCore(std::move(script), 300, config);
    core->startMeasurement(101, 0);
    run(*core, 2000);
    EXPECT_GT(core->stats().rob_full_cycles, 0u);
}

TEST_F(CoreTest, L1HitIsFast)
{
    std::vector<TraceRecord> script = {
        load(0x400, 0x1000),  // Miss: warms the block.
        load(0x400, 0x1000),  // Hit.
    };
    auto core = makeCore(std::move(script), 100);
    core->startMeasurement(2, 0);
    run(*core, 1000);
    ASSERT_TRUE(core->measurementDone());
    // Both loads complete around one miss latency: the second hits or
    // merges.
    EXPECT_LT(core->completionCycle(), 150u);
    EXPECT_EQ(core->stats().loads, 2u);
}

TEST_F(CoreTest, MeasurementCountsExactly)
{
    auto core = makeCore({});
    core->startMeasurement(100, 0);
    run(*core, 100);
    EXPECT_TRUE(core->measurementDone());
    EXPECT_GE(core->measuredInstructions(), 100u);
    // Restarting the measurement resets the counters.
    core->startMeasurement(50, 100);
    EXPECT_FALSE(core->measurementDone());
}

/**
 * TraceSource lending a fixed script in windows of up to `window`
 * records (then ALU padding), counting its borrows.
 */
class WindowedSource : public TraceSource
{
  public:
    WindowedSource(std::vector<TraceRecord> script, std::size_t window)
        : script_(std::move(script)), window_(window),
          padding_(kWindowRecords, alu())
    {
    }

    const TraceRecord *
    borrowBatch(std::size_t want, std::size_t &got) override
    {
        ++borrows;
        if (pos_ >= script_.size()) {
            got = std::min({want, window_, padding_.size()});
            return padding_.data();
        }
        got = std::min({want, window_, script_.size() - pos_});
        const TraceRecord *window = script_.data() + pos_;
        pos_ += got;
        return window;
    }

    std::uint64_t borrows = 0;

  private:
    std::vector<TraceRecord> script_;
    std::size_t window_;
    std::size_t pos_ = 0;
    std::vector<TraceRecord> padding_;
};

TEST_F(CoreTest, NextWakeIsTheWindowEndInAComputeRun)
{
    // A 64-record ALU window at width 4 with an empty ROB: dispatch
    // runs at full width, so the next thing anyone can observe is the
    // borrow of the next window, 16 dispatch cycles after the first.
    WindowedSource source({}, 64);
    lower_ = std::make_unique<FakeLower>(events_, 50);
    CacheConfig l1;
    l1_ = std::make_unique<Cache>("L1", l1, events_, *lower_);
    OooCore core(0, CoreConfig{}, *l1_, source);
    core.startMeasurement(1000, 0);
    core.step(0);
    EXPECT_EQ(source.borrows, 1u);
    EXPECT_EQ(core.nextWakeCycle(0), 16u);

    // Replaying the window retires and dispatches without borrowing;
    // the step at the wake borrows.
    core.syncTo(15);
    EXPECT_EQ(source.borrows, 1u);
    EXPECT_EQ(core.stats().cycles, 16u);
    EXPECT_EQ(core.stats().instructions, 60u);
    core.step(16);
    EXPECT_EQ(source.borrows, 2u);
}

TEST_F(CoreTest, NextWakeIsTheNextMemoryDispatch)
{
    // Fourteen ALUs, then a load: cycles 0-2 dispatch four ALUs each,
    // and cycle 3 the last two and the load.
    std::vector<TraceRecord> script(14, alu());
    script.push_back(load(0x400, 0x1000));
    WindowedSource source(std::move(script), TraceSource::kWindowRecords);
    lower_ = std::make_unique<FakeLower>(events_, 50);
    CacheConfig l1;
    l1_ = std::make_unique<Cache>("L1", l1, events_, *lower_);
    OooCore core(0, CoreConfig{}, *l1_, source);
    core.startMeasurement(1000, 0);
    core.step(0);
    EXPECT_EQ(core.nextWakeCycle(0), 3u);
    core.step(3);
    EXPECT_EQ(core.stats().loads, 1u);
    EXPECT_EQ(lower_->fetches.size(), 1u);
}

TEST_F(CoreTest, NextWakeIsTheQuotaRetirement)
{
    // Plenty of window and ROB left, but the quota's last instruction
    // retires at cycle 3 (alu_latency 1: cycles 1-3 each retire four).
    WindowedSource source({}, TraceSource::kWindowRecords);
    lower_ = std::make_unique<FakeLower>(events_, 50);
    CacheConfig l1;
    l1_ = std::make_unique<Cache>("L1", l1, events_, *lower_);
    OooCore core(0, CoreConfig{}, *l1_, source);
    core.startMeasurement(12, 0);
    core.step(0);
    EXPECT_EQ(core.nextWakeCycle(0), 3u);
    core.step(3);
    EXPECT_TRUE(core.measurementDone());
    EXPECT_EQ(core.completionCycle(), 3u);
}

TEST_F(CoreTest, NextWakeNeverOnceMeasurementDone)
{
    auto core = makeCore({});
    core->startMeasurement(10, 0);
    run(*core, 20);
    ASSERT_TRUE(core->measurementDone());
    EXPECT_EQ(core->nextWakeCycle(20), kNeverCycle);
}

TEST_F(CoreTest, NextWakeWaitsOnEventBehindMissWithRobFull)
{
    CoreConfig config;
    config.rob_entries = 4;
    std::vector<TraceRecord> script = {load(0x400, 0x1000)};
    for (int i = 0; i < 50; ++i)
        script.push_back(alu());
    auto core = makeCore(std::move(script), /*mem_latency=*/300,
                         config);
    core->startMeasurement(51, 0);
    run(*core, 5);
    // ROB is full behind the incomplete load at its head: only the
    // fill callback — an event — can unblock the core, so the wake
    // must defer entirely to the event queue.
    EXPECT_GT(core->stats().rob_full_cycles, 0u);
    EXPECT_EQ(core->nextWakeCycle(4), kNeverCycle);
}

TEST_F(CoreTest, NextWakeIsTimedRetirementWhenHeadIsCompleted)
{
    CoreConfig config;
    config.rob_entries = 4;
    config.alu_latency = 20;
    auto core = makeCore({}, 50, config);
    core->startMeasurement(100, 0);
    events_.runDue(0);
    core->step(0);
    // Four ALUs fill the ROB with completion time 20: nothing can
    // happen until the head's timed retirement.
    EXPECT_EQ(core->nextWakeCycle(0), 20u);
}

TEST_F(CoreTest, SyncToMirrorsSteppedStallWindow)
{
    CoreConfig config;
    config.rob_entries = 4;
    config.alu_latency = 20;

    // Reference: step through the ROB-full window cycle by cycle,
    // including the wake cycle 20 where the head finally retires.
    CoreStats ref_window;
    CoreStats ref_after;
    {
        auto stepped = makeCore({}, 50, config);
        stepped->startMeasurement(100, 0);
        run(*stepped, 20);  // Cycles 0..19: dispatch burst + stall.
        ref_window = stepped->stats();
        events_.runDue(20);
        stepped->step(20);
        ref_after = stepped->stats();
    }

    // Same machine, but the window is applied in one syncTo.
    // (makeCore rebuilt the L1/source, so the first core is gone.)
    auto jumped = makeCore({}, 50, config);
    jumped->startMeasurement(100, 0);
    events_.runDue(0);
    jumped->step(0);
    ASSERT_EQ(jumped->nextWakeCycle(0), 20u);
    jumped->syncTo(19);
    EXPECT_EQ(jumped->stats().cycles, ref_window.cycles);
    EXPECT_EQ(jumped->stats().rob_full_cycles,
              ref_window.rob_full_cycles);
    EXPECT_EQ(jumped->stats().lsq_full_cycles,
              ref_window.lsq_full_cycles);
    EXPECT_EQ(jumped->stats().instructions, ref_window.instructions);

    // It resumes exactly as the stepped core did at the wake cycle.
    events_.runDue(20);
    jumped->step(20);
    EXPECT_EQ(jumped->stats().instructions, ref_after.instructions);
    EXPECT_EQ(jumped->stats().cycles, ref_after.cycles);
}

TEST_F(CoreTest, SyncToAttributesLsqStalls)
{
    CoreConfig config;
    config.lsq_entries = 2;
    std::vector<TraceRecord> script;
    for (int i = 0; i < 16; ++i)
        script.push_back(load(0x400, 0x1000 + i * kBlockSize));
    auto core = makeCore(std::move(script), /*mem_latency=*/100,
                         config);
    core->startMeasurement(16, 0);
    run(*core, 3);
    // Two loads in flight, a third parked on the full LSQ: freed only
    // by a completion callback, so the wake defers to the event queue.
    EXPECT_EQ(core->nextWakeCycle(2), kNeverCycle);
    const std::uint64_t before = core->stats().lsq_full_cycles;
    core->syncTo(7);
    EXPECT_EQ(core->stats().lsq_full_cycles, before + 5);
}

TEST_F(CoreTest, CompletionOnAnAccountedCycleThrows)
{
    // The run loop fires every event before it steps any core at that
    // cycle, so a fill landing on a cycle the core has accounted means
    // the core was jumped past an event.
    auto core = makeCore({load(0x400, 0x1000)}, /*mem_latency=*/50);
    core->startMeasurement(100, 0);
    events_.runDue(0);
    core->step(0);
    core->step(80);  // Accounts cycles 1-80; the fill is still queued.
    EXPECT_THROW(events_.runDue(80), SimError);
}

TEST_F(CoreTest, TypeCountersTrack)
{
    std::vector<TraceRecord> script = {
        load(0x400, 0x1000),
        test::store(0x401, 0x2000),
        TraceRecord{0x402, 0, InstrType::Branch},
        alu(),
    };
    auto core = makeCore(std::move(script));
    core->startMeasurement(4, 0);
    run(*core, 500);
    EXPECT_EQ(core->stats().loads, 1u);
    EXPECT_EQ(core->stats().stores, 1u);
    EXPECT_EQ(core->stats().branches, 1u);
}

/**
 * MemoryLower returning each fill after a random latency (1-300
 * cycles) drawn in fetch order: two cores that fetch the same blocks
 * in the same order see the same latencies.
 */
class RandomLatencyLower : public MemoryLower
{
  public:
    RandomLatencyLower(EventQueue &events, std::uint64_t seed)
        : events_(events), rng_(seed)
    {
    }

    void
    fetch(const MemAccess &, Cycle now, FillCallback done) override
    {
        const Cycle fill = now + rng_.range(1, 300);
        events_.schedule(fill, std::move(done));
    }

    void writeback(Addr, CoreId, Cycle) override {}

  private:
    EventQueue &events_;
    Rng rng_;
};

/**
 * A random script, one record per instruction: runs of 0-300 ALU and
 * branch instructions (in stretches of one type, as a trace file's
 * branch runs come) between loads, stores and dependent loads over a
 * small block pool (so L1 hits, misses and MSHR merges all occur).
 */
std::vector<TraceRecord>
randomScript(Rng &rng, std::size_t records)
{
    std::vector<TraceRecord> script;
    while (script.size() < records) {
        const std::uint64_t run = rng.chance(0.3) ? 0 : rng.range(0, 300);
        bool branch = false;
        for (std::uint64_t i = 0; i < run; ++i) {
            if (rng.chance(0.1))
                branch = !branch;
            script.push_back(branch
                                 ? TraceRecord{0x500, 0, InstrType::Branch}
                                 : alu());
        }
        const Addr addr = 0x10000 + rng.below(512) * kBlockSize;
        switch (rng.below(4)) {
          case 0:
            script.push_back(test::store(0x600, addr));
            break;
          case 1:
            script.push_back(load(0x700, addr, /*dependent=*/true));
            break;
          default:
            script.push_back(load(0x800, addr));
            break;
        }
    }
    return script;
}

/** What the reference test compares between two cores' runs. */
struct CoreRun
{
    /// Every L1D demand access as (cycle, block, is-store).
    std::vector<std::tuple<Cycle, Addr, bool>> accesses;
    std::vector<MetricMap> stats;  ///< Per phase: counters, occupancy.
    std::vector<Cycle> completions;  ///< Per phase.
    std::uint64_t borrows = 0;
    std::uint64_t steps = 0;  ///< step() calls.
};

/**
 * One core over `script` through two measurement phases, either
 * stepped every cycle or run as System::runPhase runs it: stepped only
 * at its wake, which a callback makes it recompute, jumping to the next
 * wake or event. The skipping run also lands on random cycles short of
 * the target and syncs the core at random points, as epoch sampling
 * does.
 */
CoreRun
runCore(const CoreConfig &config, const std::vector<TraceRecord> &script,
        std::size_t window, std::uint64_t seed, bool skip)
{
    EventQueue events;
    RandomLatencyLower lower(events, seed);
    CacheConfig l1;
    l1.size_bytes = 4 * 1024;
    l1.ways = 4;
    l1.mshr_entries = 4;
    Cache cache("L1", l1, events, lower);
    WindowedSource source(script, window);
    OooCore core(0, config, cache, source);
    CoreRun out;
    cache.setAccessHook([&](const MemAccess &access, bool, Cycle now) {
        out.accesses.emplace_back(now, access.block,
                                  access.type == AccessType::Store);
    });
    Rng jitter(seed ^ 0x5eed);
    Cycle now = 0;
    for (const std::uint64_t quota : {3000u, 5000u}) {
        core.startMeasurement(quota, now);
        Cycle wake = 0;
        while (!core.measurementDone()) {
            if (skip && now > 0 && jitter.chance(0.05))
                core.syncTo(now - 1);
            events.runDue(now);
            if (skip && core.wakeDirty() && now > 0) {
                // A callback synced the core through now - 1.
                core.clearWakeDirty();
                wake = core.nextWakeCycle(now - 1);
            }
            if (!skip || wake <= now || core.wakeDirty()) {
                core.clearWakeDirty();
                core.step(now);
                ++out.steps;
                wake = core.nextWakeCycle(now);
            }
            Cycle target = now + 1;
            if (skip && !core.measurementDone()) {
                target = std::max(target,
                                  std::min(wake, events.nextEventCycle()));
                if (target == kNeverCycle)
                    throw std::runtime_error("core deadlocked");
                if (target > now + 1 && jitter.chance(0.1))
                    target = jitter.range(now + 1, target);
            }
            now = target;
        }
        MetricMap stats;
        core.metrics(stats);
        out.stats.push_back(stats);
        out.completions.push_back(core.completionCycle());
    }
    out.borrows = source.borrows;
    return out;
}

TEST(CoreReference, WakeAndReplayMatchPerCycleStepping)
{
    Rng rng(2024);
    std::uint64_t stepped_steps = 0;
    std::uint64_t skipped_steps = 0;
    for (int trial = 0; trial < 60; ++trial) {
        CoreConfig config;
        config.width = 1u << rng.below(4);  // 1, 2, 4, 8.
        config.rob_entries = static_cast<unsigned>(rng.range(4, 256));
        config.lsq_entries = static_cast<unsigned>(rng.range(1, 64));
        config.alu_latency = static_cast<unsigned>(rng.range(1, 4));
        const std::size_t window =
            rng.chance(0.3) ? TraceSource::kWindowRecords
                            : rng.range(1, TraceSource::kWindowRecords);
        const std::vector<TraceRecord> script = randomScript(rng, 12000);
        // The same instructions in counted records, cut at random
        // points, lent in windows of the same record count.
        const std::vector<TraceRecord> counted = test::countRuns(script, rng);
        const std::uint64_t seed = rng.next();
        SCOPED_TRACE("trial " + std::to_string(trial) + ": width " +
                     std::to_string(config.width) + ", rob " +
                     std::to_string(config.rob_entries) + ", lsq " +
                     std::to_string(config.lsq_entries) + ", alu " +
                     std::to_string(config.alu_latency) + ", window " +
                     std::to_string(window));

        const CoreRun stepped = runCore(config, script, window, seed, false);
        const CoreRun skipped = runCore(config, script, window, seed, true);
        const CoreRun counted_stepped =
            runCore(config, counted, window, seed, false);
        const CoreRun counted_skipped =
            runCore(config, counted, window, seed, true);
        for (const auto &[run, label] :
             {std::pair{&skipped, "skipping"},
              std::pair{&counted_stepped, "counted, stepped"},
              std::pair{&counted_skipped, "counted, skipping"}}) {
            SCOPED_TRACE(label);
            ASSERT_EQ(stepped.accesses.size(), run->accesses.size());
            EXPECT_TRUE(stepped.accesses == run->accesses);
            EXPECT_EQ(stepped.stats, run->stats);
            EXPECT_EQ(stepped.completions, run->completions);
        }
        EXPECT_EQ(stepped.borrows, skipped.borrows);
        EXPECT_EQ(counted_stepped.borrows, counted_skipped.borrows);
        stepped_steps += stepped.steps + counted_stepped.steps;
        skipped_steps += skipped.steps + counted_skipped.steps;
    }
    // The protocol must actually skip, or the comparison shows nothing.
    EXPECT_LT(skipped_steps * 2, stepped_steps);
}

} // namespace
} // namespace bingo
