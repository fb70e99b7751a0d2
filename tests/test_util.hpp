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
#include "common/rng.hpp"
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

/**
 * `records` with every counted record written out as `count`
 * one-instruction records: the stream a pre-counting generator made.
 */
inline std::vector<TraceRecord>
expandCounts(const std::vector<TraceRecord> &records)
{
    std::vector<TraceRecord> out;
    for (const TraceRecord &rec : records) {
        TraceRecord one = rec;
        one.count = 1;
        out.insert(out.end(), rec.count, one);
    }
    return out;
}

/**
 * The same instructions as `records` in counted records: each run of
 * one compute type is cut at random points (one in ten instructions
 * starts a new record).
 */
inline std::vector<TraceRecord>
countRuns(const std::vector<TraceRecord> &records, Rng &rng)
{
    std::vector<TraceRecord> out;
    for (const TraceRecord &rec : records) {
        if (!out.empty() && !isMemory(rec.type) &&
            out.back().type == rec.type && !rng.chance(0.1))
            out.back().count += rec.count;
        else
            out.push_back(rec);
    }
    return out;
}

/**
 * Whether two one-instruction records are the same instruction as the
 * simulator sees it: type and dependent flag, and a memory
 * instruction's PC and address (nothing reads a compute PC).
 */
inline bool
sameInstruction(const TraceRecord &a, const TraceRecord &b)
{
    return a.type == b.type && a.dependent == b.dependent &&
           (!isMemory(a.type) || (a.pc == b.pc && a.addr == b.addr));
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
