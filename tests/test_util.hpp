/**
 * @file
 * Shared test fixtures: a scriptable trace source, a controllable
 * fake memory level, small builders for common configurations, and
 * the two ways tests compare runs.
 */

#ifndef BINGO_TESTS_TEST_UTIL_HPP
#define BINGO_TESTS_TEST_UTIL_HPP

#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <vector>

#include "cache/cache.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/ooo_core.hpp"
#include "sim/journal.hpp"
#include "sim/metrics.hpp"

namespace bingo::test
{

/** TraceSource replaying a fixed script, then padding with ALU ops. */
class ScriptedSource : public TraceSource
{
  public:
    explicit ScriptedSource(std::vector<TraceRecord> script)
        : script_(std::move(script))
    {
    }

    const TraceRecord *
    borrowBatch(std::size_t, std::size_t &got) override
    {
        got = 1;
        current_ = pos_ < script_.size()
                       ? script_[pos_++]
                       : TraceRecord{0x1000, 0, InstrType::Alu};
        return &current_;
    }

    /** Whether the script has been fully consumed. */
    bool exhausted() const { return pos_ >= script_.size(); }

  private:
    std::vector<TraceRecord> script_;
    std::size_t pos_ = 0;
    TraceRecord current_;
};

/**
 * MemoryLower with a fixed latency that remembers every fetch and
 * writeback, for driving a Cache directly.
 */
class FakeLower : public MemoryLower
{
  public:
    explicit FakeLower(EventQueue &events, Cycle latency = 100)
        : events_(events), latency_(latency)
    {
    }

    void
    fetch(const MemAccess &access, Cycle now, FillCallback done) override
    {
        fetches.push_back(access);
        const Cycle fill = now + latency_;
        events_.schedule(fill, [done = std::move(done), fill] {
            done(fill);
        });
    }

    void
    writeback(Addr block, CoreId core, Cycle now) override
    {
        (void)core;
        (void)now;
        writebacks.push_back(block);
    }

    std::vector<MemAccess> fetches;
    std::vector<Addr> writebacks;

  private:
    EventQueue &events_;
    Cycle latency_;
};

/** Load record helper. */
inline TraceRecord
load(Addr pc, Addr addr, bool dependent = false)
{
    return TraceRecord{pc, addr, InstrType::Load, dependent};
}

/** Store record helper. */
inline TraceRecord
store(Addr pc, Addr addr)
{
    return TraceRecord{pc, addr, InstrType::Store};
}

/** ALU record helper. */
inline TraceRecord
alu()
{
    return TraceRecord{0x1000, 0, InstrType::Alu};
}

/** Byte address of block `n` within region `region`. */
inline Addr
regionBlock(Addr region, unsigned offset)
{
    return region * kRegionSize + static_cast<Addr>(offset) * kBlockSize;
}

/**
 * Two runs agree bit for bit: their journal records, the bytes the
 * journal oracles `diff -r`, are equal. That covers every counter,
 * each core's IPC bits, the storage and the degraded verdict.
 */
inline void
expectSameRun(const RunResult &a, const RunResult &b)
{
    EXPECT_EQ(journalEncode("run", a), journalEncode("run", b));
}

/**
 * A stats struct's counters by name, through its visitCounters list;
 * compare two with EXPECT_EQ to see any differing counter by name.
 */
template <typename Stats>
MetricMap
counterMap(const Stats &stats)
{
    MetricMap out;
    addCounters(out, "", stats);
    return out;
}

} // namespace bingo::test

#endif // BINGO_TESTS_TEST_UTIL_HPP
