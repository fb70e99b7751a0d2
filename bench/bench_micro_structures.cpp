/**
 * @file
 * google-benchmark microbenchmarks of the simulator's hot structures:
 * Bingo history lookup/insert, footprint voting, cache access, DRAM
 * service, and trace generation. These guard the simulation throughput
 * that makes the figure sweeps cheap.
 */

#include <array>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "cache/cache.hpp"
#include "cache/mshr.hpp"
#include "common/event_queue.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "mem/dram.hpp"
#include "prefetch/bingo.hpp"
#include "sim/experiment.hpp"
#include "sim/journal.hpp"
#include "sim/system.hpp"
#include "telemetry/export.hpp"
#include "telemetry/histogram.hpp"
#include "workload/generator.hpp"
#include "workload/trace_cache.hpp"

namespace
{

using namespace bingo;

void
BM_BingoHistoryInsert(benchmark::State &state)
{
    PrefetcherConfig config;
    config.kind = PrefetcherKind::Bingo;
    BingoPrefetcher prefetcher(config);
    Rng rng(7);
    Footprint fp = Footprint::fromRaw(0x00ff00ff00ff00ffULL &
                                      ((1ULL << kBlocksPerRegion) - 1));
    for (auto _ : state) {
        const Addr pc = 0x400000 + rng.below(64) * 4;
        const Addr block = blockAlign(rng.next() & 0xffffffffffULL);
        prefetcher.insertHistory(pc, block, fp);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BingoHistoryInsert);

void
BM_BingoHistoryLookup(benchmark::State &state)
{
    PrefetcherConfig config;
    config.kind = PrefetcherKind::Bingo;
    BingoPrefetcher prefetcher(config);
    Rng rng(7);
    Footprint fp = Footprint::fromRaw(0xaaaaaaaaULL &
                                      ((1ULL << kBlocksPerRegion) - 1));
    for (unsigned i = 0; i < 16 * 1024; ++i) {
        prefetcher.insertHistory(0x400000 + rng.below(64) * 4,
                                 blockAlign(rng.next() & 0xffffffffULL),
                                 fp);
    }
    for (auto _ : state) {
        const Addr pc = 0x400000 + rng.below(64) * 4;
        const Addr block = blockAlign(rng.next() & 0xffffffffULL);
        benchmark::DoNotOptimize(prefetcher.lookup(pc, block));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BingoHistoryLookup);

void
BM_FootprintVote(benchmark::State &state)
{
    Rng rng(11);
    std::vector<Footprint> footprints;
    for (int i = 0; i < 12; ++i) {
        footprints.push_back(Footprint::fromRaw(
            rng.next() & ((1ULL << kBlocksPerRegion) - 1)));
    }
    for (auto _ : state) {
        FootprintVote vote;
        for (const Footprint &fp : footprints)
            vote.add(fp);
        benchmark::DoNotOptimize(vote.resolve(0.2));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FootprintVote);

void
BM_TableShortEventScan(benchmark::State &state)
{
    // The Bingo phase-2 pattern: scan a PHT set with a partial-tag
    // predicate and fold every match, via the template scan that
    // replaced the std::function + std::vector findIf.
    SetAssocTable<std::uint64_t> table(1024, 16);
    Rng rng(23);
    for (unsigned i = 0; i < 16 * 1024; ++i) {
        const std::uint64_t short_key = rng.below(1024 * 64);
        table.insert(table.setIndex(short_key), rng.next(), short_key);
    }
    std::uint64_t folded = 0;
    for (auto _ : state) {
        const std::uint64_t short_key = rng.below(1024 * 64);
        const std::size_t set = table.setIndex(short_key);
        table.forEachIf(
            set,
            [short_key](const auto &e) { return e.data == short_key; },
            [&folded](const auto &e) { folded += e.tag; });
        benchmark::DoNotOptimize(folded);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableShortEventScan);

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    // The cache fill/completion pattern: completions scheduled a few
    // cycles out, drained in order. The records are empty, so the time
    // is the queue's own.
    EventQueue events;
    Cycle now = 0;
    for (auto _ : state) {
        events.schedule(now + 4, Completion{});
        events.schedule(now + 2, Completion{});
        ++now;
        events.runDue(now);
        benchmark::DoNotOptimize(events.size());
    }
    events.runDue(now + 8);
    state.SetItemsProcessed(state.iterations() * 2);
}
BENCHMARK(BM_EventQueueScheduleRun);

void
BM_DramService(benchmark::State &state)
{
    DramConfig config;
    DramController dram(config);
    Rng rng(13);
    Cycle now = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            dram.read(blockAlign(rng.next() & 0xfffffffULL), now));
        now += 20;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramService);

void
BM_CacheAccess(benchmark::State &state)
{
    // A leaf cache over a no-op lower level.
    class NullLower : public MemoryLower
    {
      public:
        void
        fetch(const MemAccess &, Cycle now, FillCallback done) override
        {
            done(now + 100);
        }
        void writeback(Addr, CoreId, Cycle) override {}
    };

    EventQueue events;
    NullLower lower;
    CacheConfig config{64 * 1024, 8, 4, 8};
    Cache cache("bench", config, events, lower);
    Rng rng(17);
    Cycle now = 0;
    for (auto _ : state) {
        MemAccess access;
        access.block = blockAlign(rng.next() & 0xfffffULL);
        access.pc = 0x1000;
        access.type = AccessType::Load;
        cache.access(access, now, [](Cycle) {});
        events.runDue(now + 10);
        now += 1;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

/** Generation per record; items count instructions (a compute
 *  record stands for a run of them). */
void
BM_WorkloadGeneration(benchmark::State &state)
{
    auto source = makeWorkload("Data Serving", 0, 42);
    std::int64_t instructions = 0;
    for (auto _ : state) {
        const TraceRecord rec = source->next();
        benchmark::DoNotOptimize(rec);
        instructions += rec.count;
    }
    state.SetItemsProcessed(instructions);
}
BENCHMARK(BM_WorkloadGeneration);

/**
 * Replaying an already-generated trace from the shared cache — the
 * per-job cost a sweep pays after the first run of a workload.
 * Compare against BM_WorkloadGeneration for the memoization win; both
 * count instructions as items.
 */
void
BM_TraceCacheHit(benchmark::State &state)
{
    TraceCache &cache = TraceCache::instance();
    auto source = cache.acquire("Data Serving", 0, 42);
    std::array<TraceRecord, 256> batch;
    source->nextBatch(batch.data(), batch.size());  // Commit chunk 0.
    std::size_t reads = 1;
    std::int64_t instructions = 0;
    for (auto _ : state) {
        source->nextBatch(batch.data(), batch.size());
        benchmark::DoNotOptimize(batch);
        for (const TraceRecord &rec : batch)
            instructions += rec.count;
        // Wrap within the committed chunk so the buffer never grows:
        // re-acquiring (a cache hit) rewinds the replay cursor.
        if (++reads * batch.size() >=
            TraceBuffer::kChunkRecords - batch.size()) {
            source = cache.acquire("Data Serving", 0, 42);
            reads = 0;
        }
    }
    state.SetItemsProcessed(instructions);
    state.SetLabel(cache.enabled() ? "cached" : "bypass");
}
BENCHMARK(BM_TraceCacheHit);

void
BM_MshrAllocateRelease(benchmark::State &state)
{
    // The demand-miss fast path now tagged with cycle context for
    // SimError reporting; this guards the added bookkeeping.
    MshrFile mshrs(64, "bench.mshr");
    Rng rng(31);
    Cycle now = 0;
    for (auto _ : state) {
        const Addr block = blockAlign(rng.next() & 0xffffffULL);
        if (mshrs.find(block) == nullptr && !mshrs.full())
            mshrs.allocate(block, false, 0, now);
        else if (const MshrEntry *hit = mshrs.find(block);
                 hit != nullptr)
            mshrs.release(block, now);
        ++now;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MshrAllocateRelease);

void
BM_JobFingerprint(benchmark::State &state)
{
    // Journal fingerprinting runs once per sweep job at resume time;
    // it should stay far below a simulation's cost.
    SweepJob job;
    job.workload = "Data Serving";
    job.config.prefetcher.kind = PrefetcherKind::Bingo;
    job.options = ExperimentOptions{};
    std::uint64_t salt = 0;
    for (auto _ : state) {
        job.options.seed = 42 + (salt++ & 7);
        benchmark::DoNotOptimize(jobFingerprint(job));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_JobFingerprint);

void
BM_LogHistogramRecord(benchmark::State &state)
{
    // Telemetry histograms sit on the LLC fill path when enabled;
    // a record must stay a handful of cycles.
    telemetry::LogHistogram histogram;
    Rng rng(42);
    std::array<std::uint64_t, 1024> values;
    for (auto &v : values)
        v = rng.next() & 0xFFFFF;  // Latency-sized magnitudes.
    std::size_t i = 0;
    for (auto _ : state) {
        histogram.record(values[i++ & 1023]);
        benchmark::DoNotOptimize(histogram);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LogHistogramRecord);

/**
 * One tiny single-core System run for `instructions`, with the
 * fast-forward path toggled per `skip`. Returns the finishing cycle so
 * callers can assert bit-identity across the toggle.
 */
Cycle
runMainLoop(const char *workload, bool skip,
            std::uint64_t instructions)
{
    SystemConfig config = SystemConfig::singleCore();
    config.prefetcher.kind = PrefetcherKind::None;
    System system(config, workload);
    system.setCycleSkipping(skip);
    system.run(0, instructions);
    return system.now();
}

/**
 * The run loop on a stall-dominated workload (em3d pointer chasing,
 * no prefetcher): most cycles are ROB-full windows behind demand
 * misses, exactly where event-driven cycle skipping should pay.
 * Arg(0) steps every cycle (BINGO_NO_SKIP behaviour), Arg(1)
 * fast-forwards; the ratio of the two is the loop speedup.
 */
void
BM_MainLoopStallHeavy(benchmark::State &state)
{
    const bool skip = state.range(0) != 0;
    Cycle last = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            last = runMainLoop("em3d", skip, 20000));
    state.counters["sim_cycles"] =
        benchmark::Counter(static_cast<double>(last));
    state.SetItemsProcessed(state.iterations() * 20000);
}
BENCHMARK(BM_MainLoopStallHeavy)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * The run loop on a compute-dominated workload (SAT Solver, mostly
 * L1-resident): cores rarely stall, so skipping pays here only because
 * a core jumps over its compute runs and replays them in bulk
 * (OooCore::syncTo). The skip/step ratio measures that.
 */
void
BM_MainLoopComputeHeavy(benchmark::State &state)
{
    const bool skip = state.range(0) != 0;
    Cycle last = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            last = runMainLoop("SAT Solver", skip, 100000));
    state.counters["sim_cycles"] =
        benchmark::Counter(static_cast<double>(last));
    state.SetItemsProcessed(state.iterations() * 100000);
}
BENCHMARK(BM_MainLoopComputeHeavy)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * Time `repeat` back-to-back runs of the loop microbench config and
 * return wall seconds, accumulating the simulated cycles into
 * `cycles`.
 */
double
timeMainLoop(const char *workload, bool skip,
             std::uint64_t instructions, unsigned repeat,
             std::uint64_t &cycles)
{
    const auto start = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < repeat; ++i)
        cycles += runMainLoop(workload, skip, instructions);
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Wall seconds of `fn()` repeated `iters` times. */
template <typename Fn>
double
timeIt(unsigned iters, const Fn &fn)
{
    const auto start = std::chrono::steady_clock::now();
    for (unsigned i = 0; i < iters; ++i)
        fn();
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Generation vs cached-replay wall time over one chunk of records,
 * plus the cache's own counters, as a JSON fragment.
 */
std::string
traceCacheSummary()
{
    TraceCache &cache = TraceCache::instance();
    const std::size_t n = TraceBuffer::kChunkRecords;
    std::vector<TraceRecord> sink(n);

    const double generate = timeIt(3, [&sink, n] {
        auto source = makeWorkload("Data Serving", 1, 4242);
        source->nextBatch(sink.data(), n);
    });
    auto primer = cache.acquire("Data Serving", 1, 4242);
    primer->nextBatch(sink.data(), n);
    const double replay = timeIt(3, [&cache, &sink, n] {
        auto source = cache.acquire("Data Serving", 1, 4242);
        source->nextBatch(sink.data(), n);
    });

    const TraceCacheStats stats = cache.stats();
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        ",\"trace_cache\":{\"enabled\":%s,"
        "\"generate_chunk_seconds\":%.6f,"
        "\"replay_chunk_seconds\":%.6f,\"replay_speedup\":%.3f,"
        "\"hits\":%llu,\"misses\":%llu,\"evictions\":%llu,"
        "\"bytes\":%llu,\"records_generated\":%llu}",
        cache.enabled() ? "true" : "false", generate, replay,
        replay > 0.0 ? generate / replay : 0.0,
        static_cast<unsigned long long>(stats.hits),
        static_cast<unsigned long long>(stats.misses),
        static_cast<unsigned long long>(stats.evictions),
        static_cast<unsigned long long>(stats.bytes),
        static_cast<unsigned long long>(stats.records_generated));
    return buf;
}

/**
 * BENCH_mainloop.json: skip-off vs skip-on wall time of the stall- and
 * compute-heavy loop configurations over warm trace streams, with the
 * speedup ratios — the machine-readable record the figure-bench
 * BENCH_*.json files are compared against in EXPERIMENTS.md — plus
 * the trace-cache micro numbers the perf-smoke CI step tracks.
 */
void
writeMainLoopSummary()
{
    struct Case
    {
        const char *key;
        const char *workload;
        std::uint64_t instructions;
    };
    const Case cases[] = {{"stall_heavy", "em3d", 20000},
                          {"compute_heavy", "SAT Solver", 100000}};
    constexpr unsigned kRepeat = 3;

    std::string json = "{\"bench\":\"mainloop\"";
    for (const Case &c : cases) {
        // One untimed run first generates and caches the case's trace
        // streams, so both timed passes replay them: otherwise the
        // first pass alone pays for generation and the ratio credits
        // skipping with it.
        runMainLoop(c.workload, true, c.instructions);
        std::uint64_t cycles_step = 0;
        std::uint64_t cycles_skip = 0;
        const double step = timeMainLoop(c.workload, false,
                                         c.instructions, kRepeat,
                                         cycles_step);
        const double skip = timeMainLoop(c.workload, true,
                                         c.instructions, kRepeat,
                                         cycles_skip);
        const double speedup = skip > 0.0 ? step / skip : 0.0;
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      ",\"%s\":{\"workload\":\"%s\","
                      "\"instructions\":%llu,\"runs\":%u,"
                      "\"wall_seconds_step\":%.6f,"
                      "\"wall_seconds_skip\":%.6f,"
                      "\"speedup\":%.3f,\"identical_cycles\":%s}",
                      c.key, c.workload,
                      static_cast<unsigned long long>(c.instructions),
                      kRepeat, step, skip, speedup,
                      cycles_step == cycles_skip ? "true" : "false");
        json += buf;
    }
    json += traceCacheSummary();
    json += "}\n";
    try {
        telemetry::atomicWrite("BENCH_mainloop.json", json);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s\n", e.what());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    writeMainLoopSummary();
    return 0;
}
