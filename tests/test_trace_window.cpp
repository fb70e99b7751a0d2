/**
 * @file
 * The trace read contract: a source lends the next 1..want records
 * through borrowBatch(), valid until its next call, and next() and
 * nextBatch() are copies through it. How a source cuts its stream
 * into windows must never show: a core fed through windows of any
 * size ends in the same state, and every read path yields the same
 * records from every kind of source. Nor may how compute runs are cut
 * into counted records: the core, the interleaver and the chaos layer
 * treat a counted record as the instructions it stands for.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "chaos/chaos.hpp"
#include "common/event_queue.hpp"
#include "common/rng.hpp"
#include "core/ooo_core.hpp"
#include "mem/dram.hpp"
#include "sim/translation.hpp"
#include "test_util.hpp"
#include "workload/generator.hpp"
#include "workload/trace_cache.hpp"

namespace bingo
{
namespace
{

/**
 * Lends one fixed record stream, cyclically, in windows of at most
 * `window` records. Each window is a fresh heap copy that the next
 * call frees, so a reader that touches a window after its next call
 * reads freed memory, which AddressSanitizer reports.
 */
class WindowedSource : public TraceSource
{
  public:
    WindowedSource(const std::vector<TraceRecord> &stream,
                   std::size_t window)
        : stream_(stream), window_(window)
    {
    }

    const TraceRecord *
    borrowBatch(std::size_t want, std::size_t &got) override
    {
        got = std::min({want, window_, stream_.size() - pos_});
        lent_ = std::make_unique<TraceRecord[]>(got);
        std::copy_n(stream_.begin() + static_cast<std::ptrdiff_t>(pos_),
                    got, lent_.get());
        pos_ = (pos_ + got) % stream_.size();
        return lent_.get();
    }

  private:
    const std::vector<TraceRecord> &stream_;
    std::size_t window_;
    std::size_t pos_ = 0;
    std::unique_ptr<TraceRecord[]> lent_;
};

/**
 * A seeded stream of compute runs (ALU records of random length) each
 * followed by a branch, a missing load, a hitting load, a dependent
 * load or a store. Misses stall the ROB behind them, so dispatch meets
 * compute runs at every ROB occupancy.
 */
std::vector<TraceRecord>
mixedStream(std::size_t records, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<TraceRecord> out;
    out.reserve(records + 32);
    while (out.size() < records) {
        for (std::uint64_t i = rng.below(24); i > 0; --i)
            out.push_back(TraceRecord{0x7f0000 + i * 4, 0,
                                      InstrType::Alu});
        const Addr far = (Addr{1} << 40) + rng.below(1 << 24) * 64;
        const Addr hot = (Addr{1} << 30) + rng.below(256) * 64;
        const Addr pc = 0x400000 + rng.below(16) * 4;
        switch (rng.below(5)) {
          case 0:
            out.push_back(TraceRecord{pc, 0, InstrType::Branch});
            break;
          case 1:
            out.push_back(TraceRecord{pc, far, InstrType::Load});
            break;
          case 2:
            out.push_back(TraceRecord{pc, hot, InstrType::Load});
            break;
          case 3:
            out.push_back(TraceRecord{pc, far, InstrType::Load,
                                      /*dependent=*/true});
            break;
          default:
            out.push_back(TraceRecord{pc, hot, InstrType::Store});
            break;
        }
    }
    return out;
}

/** Everything a single-core run leaves behind that the test compares. */
struct RunState
{
    CoreStats core;
    Cycle now = 0;
    CacheStats l1d;
    CacheStats llc;
};

/**
 * One core over `stream` lent in windows of `window` records, on the
 * single-core System's L1D, LLC and DRAM, stepped cycle by cycle like
 * System's stepped loop. Built from the components rather than through
 * System, because System wraps caller-provided sources in a
 * TranslatingSource, which fills a window of its own: the core would
 * see kWindowRecords-record windows whatever the source lends.
 */
RunState
runWindowed(const std::vector<TraceRecord> &stream, std::size_t window)
{
    SystemConfig config = SystemConfig::singleCore();
    // Small enough that memory records also wait on a full LSQ, held
    // in the lent window across cycles.
    config.core.lsq_entries = 12;
    EventQueue events;
    DramController dram(config.dram);
    DramLower dram_lower(dram, events);
    Cache llc("LLC", config.llc, events, dram_lower);
    CacheLower llc_lower(llc);
    Cache l1d("L1D0", config.l1d, events, llc_lower);
    WindowedSource source(stream, window);
    OooCore core(0, config.core, l1d, source);
    core.startMeasurement(45000, 0);
    Cycle now = 0;
    for (; !core.measurementDone(); ++now) {
        events.runDue(now);
        core.step(now);
    }
    return RunState{core.stats(), now, l1d.stats(), llc.stats()};
}

TEST(TraceWindow, WindowSizeNeverChangesASimulation)
{
    const std::vector<TraceRecord> stream = mixedStream(60000, 17);
    const RunState reference = runWindowed(stream, 64);
    // The stream really exercises every dispatch path.
    EXPECT_GT(reference.core.branches, 0u);
    EXPECT_GT(reference.core.loads, 0u);
    EXPECT_GT(reference.core.stores, 0u);
    EXPECT_GT(reference.core.rob_full_cycles, 0u);
    EXPECT_GT(reference.core.lsq_full_cycles, 0u);
    EXPECT_GT(reference.l1d.demand_hits, 0u);
    EXPECT_GT(reference.llc.demand_misses, 0u);
    EXPECT_GT(reference.llc.writebacks + reference.l1d.writebacks, 0u);

    // The same instructions with compute runs in counted records.
    Rng cut(23);
    const std::vector<TraceRecord> counted = test::countRuns(stream, cut);
    ASSERT_LT(counted.size() * 2, stream.size());
    for (const auto &[records, label] :
         {std::pair{&stream, "one record per instruction"},
          std::pair{&counted, "counted"}}) {
        for (const std::size_t window : {1, 3, 7, 64}) {
            if (records == &stream && window == 64)
                continue;  // The reference itself.
            const RunState run = runWindowed(*records, window);
            SCOPED_TRACE(std::string(label) + ", window " +
                         std::to_string(window));
            EXPECT_EQ(test::counterMap(run.core),
                      test::counterMap(reference.core));
            EXPECT_EQ(run.now, reference.now);
            EXPECT_EQ(test::counterMap(run.l1d),
                      test::counterMap(reference.l1d));
            EXPECT_EQ(test::counterMap(run.llc),
                      test::counterMap(reference.llc));
        }
    }
}

/**
 * The instructions of the first `records` records `source` lends in
 * windows of random size (1..kWindowRecords), one record each.
 */
std::vector<TraceRecord>
readInstructions(TraceSource &source, std::size_t records, Rng &rng)
{
    std::vector<TraceRecord> lent;
    while (lent.size() < records) {
        std::size_t got = 0;
        const TraceRecord *window = source.borrowBatch(
            std::min<std::size_t>(rng.range(1, TraceSource::kWindowRecords),
                                  records - lent.size()),
            got);
        lent.insert(lent.end(), window, window + got);
    }
    return test::expandCounts(lent);
}

/** Index of the first instruction `a` and `b` differ in, or n. */
std::size_t
firstDifferentInstruction(const std::vector<TraceRecord> &a,
                          const std::vector<TraceRecord> &b,
                          std::size_t n)
{
    std::size_t i = 0;
    while (i < n && test::sameInstruction(a[i], b[i]))
        ++i;
    return i;
}

/**
 * Three sub-streams for the interleaver: mixed streams in counted
 * records and their one-record-per-instruction expansions.
 */
struct SubStreams
{
    std::vector<std::vector<TraceRecord>> counted;
    std::vector<std::vector<TraceRecord>> expanded;

    explicit SubStreams(Rng &rng)
    {
        for (std::uint64_t s = 0; s < 3; ++s) {
            expanded.push_back(mixedStream(20000, 100 + s));
            counted.push_back(test::countRuns(expanded.back(), rng));
        }
    }

    /** An interleaver over lenders of `streams` in `window`s. */
    static InterleavedSource
    interleave(const std::vector<std::vector<TraceRecord>> &streams,
               std::size_t window, unsigned min_run, unsigned max_run)
    {
        std::vector<std::unique_ptr<TraceSource>> subs;
        for (const std::vector<TraceRecord> &stream : streams)
            subs.push_back(std::make_unique<WindowedSource>(stream, window));
        return InterleavedSource(std::move(subs), min_run, max_run, 77);
    }
};

TEST(TraceWindow, InterleaverCountsRunsInInstructions)
{
    Rng rng(31);
    const SubStreams subs(rng);
    for (const auto &[min_run, max_run] :
         {std::pair{1u, 1u}, std::pair{1u, 40u}, std::pair{30u, 400u}}) {
        SCOPED_TRACE("runs " + std::to_string(min_run) + "-" +
                     std::to_string(max_run));
        InterleavedSource counted = SubStreams::interleave(
            subs.counted, rng.range(1, 64), min_run, max_run);
        InterleavedSource expanded = SubStreams::interleave(
            subs.expanded, rng.range(1, 64), min_run, max_run);
        const std::vector<TraceRecord> a =
            readInstructions(counted, 4000, rng);
        const std::vector<TraceRecord> b =
            readInstructions(expanded, a.size(), rng);
        ASSERT_GE(b.size(), a.size());
        EXPECT_EQ(firstDifferentInstruction(a, b, a.size()), a.size());

        // Record boundaries are the stream's, not the reader's: window
        // sizes change neither where records end nor their counts.
        InterleavedSource one_by_one = SubStreams::interleave(
            subs.counted, 1, min_run, max_run);
        InterleavedSource again = SubStreams::interleave(
            subs.counted, 5, min_run, max_run);
        std::vector<TraceRecord> windows(3000);
        again.nextBatch(windows.data(), windows.size());
        for (std::size_t i = 0; i < windows.size(); ++i) {
            const TraceRecord rec = one_by_one.next();
            ASSERT_TRUE(test::sameInstruction(rec, windows[i]) &&
                        rec.count == windows[i].count)
                << "record " << i;
            // Compute records are maximal runs of their type.
            if (i > 0 && !isMemory(rec.type)) {
                EXPECT_NE(windows[i - 1].type, rec.type) << "record " << i;
            }
        }
    }
}

TEST(TraceWindow, ChaosDrawsPerInstruction)
{
    Rng rng(37);
    const std::vector<TraceRecord> expanded = mixedStream(60000, 41);
    const std::vector<TraceRecord> counted = test::countRuns(expanded, rng);
    for (int trial = 0; trial < 4; ++trial) {
        std::uint64_t counted_faults = 0;
        std::uint64_t expanded_faults = 0;
        chaos::ChaosTraceSource a(
            std::make_unique<WindowedSource>(counted, rng.range(1, 300)),
            0.01, 5 + trial, &counted_faults);
        chaos::ChaosTraceSource b(
            std::make_unique<WindowedSource>(expanded, rng.range(1, 300)),
            0.01, 5 + trial, &expanded_faults);
        const std::vector<TraceRecord> got_a =
            readInstructions(a, 5000 + 3000 * trial, rng);
        const std::vector<TraceRecord> got_b =
            readInstructions(b, got_a.size(), rng);
        SCOPED_TRACE("trial " + std::to_string(trial));
        EXPECT_EQ(firstDifferentInstruction(got_a, got_b, got_a.size()),
                  got_a.size());
        EXPECT_EQ(counted_faults, expanded_faults);
        EXPECT_GT(counted_faults, 0u);
    }
}

enum class ReadPath
{
    Next,       ///< One next() per record.
    NextBatch,  ///< nextBatch() in odd-sized blocks.
    Borrow,     ///< borrowBatch() with odd wants, copied out.
};

/** The first `n` records of `source`, read along `path`. */
std::vector<TraceRecord>
readAlong(TraceSource &source, std::size_t n, ReadPath path)
{
    static constexpr std::size_t kOdd[] = {1, 3, 7, 13, 63, 65, 127, 4097};
    std::vector<TraceRecord> out;
    out.reserve(n);
    for (std::size_t step = 0; out.size() < n; ++step) {
        const std::size_t want =
            std::min(kOdd[step % std::size(kOdd)], n - out.size());
        if (path == ReadPath::Next) {
            out.push_back(source.next());
        } else if (path == ReadPath::NextBatch) {
            out.resize(out.size() + want);
            source.nextBatch(out.data() + out.size() - want, want);
        } else {
            std::size_t got = 0;
            const TraceRecord *window = source.borrowBatch(want, got);
            if (got < 1 || got > want) {
                ADD_FAILURE() << "borrowBatch(" << want << ") lent "
                              << got << " records";
                break;
            }
            out.insert(out.end(), window, window + got);
        }
    }
    return out;
}

/** First index at which `a` and `b` differ, or their common size. */
std::size_t
firstDifference(const std::vector<TraceRecord> &a,
                const std::vector<TraceRecord> &b)
{
    std::size_t i = 0;
    for (; i < a.size() && i < b.size(); ++i) {
        if (a[i].pc != b[i].pc || a[i].addr != b[i].addr ||
            a[i].type != b[i].type || a[i].dependent != b[i].dependent ||
            a[i].count != b[i].count)
            break;
    }
    return i;
}

/** Restores the process-wide trace cache like TraceCacheTest. */
class TraceWindowCacheTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        saved_budget_ = TraceCache::instance().budgetBytes();
        TraceCache::instance().clear();
        TraceCache::instance().setBudgetBytes(std::uint64_t{512} << 20);
    }

    void
    TearDown() override
    {
        TraceCache::instance().setBudgetBytes(saved_budget_);
        TraceCache::instance().clear();
    }

    std::uint64_t saved_budget_ = 0;
};

TEST_F(TraceWindowCacheTest, EveryReadPathYieldsTheSameRecords)
{
    // Past the first chunk, so cached windows meet a chunk end.
    const std::size_t n = TraceBuffer::kChunkRecords + 1001;
    constexpr std::uint64_t kSeed = 5;
    for (const std::string &workload : workloadNames()) {
        std::uint64_t corruptions[3] = {0, 0, 0};
        const auto privateChain = [&](ReadPath) {
            return std::make_unique<TranslatingSource>(
                makeWorkload(workload, 0, kSeed),
                AddressTranslator(kSeed));
        };
        const auto cachedStream = [&](ReadPath) {
            return TraceCache::instance().acquire(workload, 0, kSeed,
                                                  /*translated=*/true);
        };
        const auto chaosWrapped = [&](ReadPath path) {
            return std::make_unique<TranslatingSource>(
                std::make_unique<chaos::ChaosTraceSource>(
                    makeWorkload(workload, 0, kSeed), 0.01, kSeed,
                    &corruptions[static_cast<int>(path)]),
                AddressTranslator(kSeed));
        };
        const auto readAll = [&](const auto &make) {
            std::vector<std::vector<TraceRecord>> out;
            for (const ReadPath path :
                 {ReadPath::Next, ReadPath::NextBatch, ReadPath::Borrow})
                out.push_back(readAlong(*make(path), n, path));
            return out;
        };

        const auto chain = readAll(privateChain);
        const auto cached = readAll(cachedStream);
        const auto chaos = readAll(chaosWrapped);
        for (std::size_t p = 0; p < 3; ++p) {
            const std::string label =
                workload + ", read path " + std::to_string(p);
            ASSERT_EQ(chain[p].size(), n) << label;
            EXPECT_EQ(firstDifference(chain[p], chain[0]), n)
                << label << ", private chain";
            EXPECT_EQ(firstDifference(cached[p], chain[0]), n)
                << label << ", cached stream";
            EXPECT_EQ(firstDifference(chaos[p], chaos[0]), n)
                << label << ", chaos-wrapped";
            EXPECT_EQ(corruptions[p], corruptions[0]) << label;
        }
        EXPECT_GT(corruptions[0], 0u) << workload;
    }
}

} // namespace
} // namespace bingo
