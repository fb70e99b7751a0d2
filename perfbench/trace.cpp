#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "cache/cache.hpp"
#include "common/event_queue.hpp"
#include "prefetch/prefetcher.hpp"
#include "sim/metrics.hpp"
#include "sim/system.hpp"
#include "workload/generator.hpp"
#include "workload/trace_cache.hpp"

namespace perfbench
{

using namespace bingo;

namespace
{

using Clock = std::chrono::steady_clock;

/** Trace records prefilled per core stream, as a share of the run. */
constexpr std::uint64_t kPrefillNum = 5;
constexpr std::uint64_t kPrefillDen = 4;

/** None-prefetcher jobs whose streams are captured for replay. */
constexpr std::size_t kCaptureJobs = 4;

/** Latency of the replay caches' memory stub below the LLC. */
constexpr Cycle kReplayMemoryLatency = 200;

/** Engines whose LLC hook share is measured in place, by metric name. */
const std::vector<std::pair<const char *, PrefetcherKind>> kInSituEngines =
    {{"bop", PrefetcherKind::Bop},     {"spp", PrefetcherKind::Spp},
     {"vldp", PrefetcherKind::Vldp},   {"ampm", PrefetcherKind::Ampm},
     {"sms", PrefetcherKind::Sms},     {"bingo", PrefetcherKind::Bingo},
     {"hybrid", PrefetcherKind::Hybrid}};

/**
 * Engines replayed stand-alone from the captured LLC stream: the
 * in-place engines plus the hybrid's temporal components, so every
 * engine's cost per access is measured on every workload.
 */
const std::vector<std::pair<const char *, PrefetcherKind>> kReplayEngines =
    [] {
        auto engines = kInSituEngines;
        engines.insert(engines.end(), {{"isb", PrefetcherKind::Isb},
                                       {"domino", PrefetcherKind::Domino}});
        return engines;
    }();

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Host cost of one Clock::now() call, subtracted per hook span. */
double
clockCallSeconds()
{
    constexpr int kCalls = 200000;
    const Clock::time_point start = Clock::now();
    Clock::time_point last = start;
    for (int i = 0; i < kCalls; ++i)
        last = Clock::now();
    return seconds(start, last) / kCalls;
}

/** Spans and counters of one traced simulation. */
struct JobTrace
{
    bool ok = false;
    RunResult result;
    double run_s = 0.0;
    double hook_s = 0.0;             ///< Inside onAccess, as measured.
    std::uint64_t hook_calls = 0;
    std::uint64_t candidates = 0;
    std::uint64_t cycles = 0;        ///< System::now() at the end.
    std::uint64_t skipped = 0;
    std::uint64_t core_cycles = 0;   ///< Measured, summed over cores.
    std::uint64_t rob_full = 0;
    std::uint64_t lsq_full = 0;
};

/**
 * Simulate `job` with a span around System::run and one around every
 * prefetcher onAccess call. The LLC hook is the benchmark's copy of
 * the one System::build installs (chaos is off): time the quarantine
 * wrapper's onAccess, then issue the candidates into the LLC.
 */
void
traceJob(const SweepJob &job, JobTrace &out)
{
    try {
        SystemConfig config = job.config;
        config.seed = job.options.seed;
        config.validate();
        System system(config, job.workload);
        std::vector<Addr> candidates;
        system.llc().setAccessHook([&system, &candidates, &out](
                                       const MemAccess &access, bool hit,
                                       Cycle now) {
            Prefetcher *pf = system.guard(access.core);
            if (pf == nullptr)
                return;
            PrefetchAccess pa;
            pa.pc = access.pc;
            pa.block = access.block;
            pa.core = access.core;
            pa.hit = hit;
            pa.type = access.type;
            pa.cycle = now;
            candidates.clear();
            const Clock::time_point start = Clock::now();
            pf->onAccess(pa, candidates);
            out.hook_s += seconds(start, Clock::now());
            ++out.hook_calls;
            out.candidates += candidates.size();
            for (Addr candidate : candidates) {
                const Addr block = blockAlign(candidate);
                if (block == access.block)
                    continue;
                system.llc().prefetch(block, access.pc, access.core, now);
            }
        });
        const Clock::time_point start = Clock::now();
        system.run(job.options.warmup_instructions,
                   job.options.measure_instructions);
        out.run_s = seconds(start, Clock::now());
        out.result = collectResult(system, job.workload);
        out.cycles = system.now();
        out.skipped = system.skippedCycles();
        for (CoreId c = 0; c < system.numCores(); ++c) {
            const CoreStats &stats = system.core(c).stats();
            out.core_cycles += stats.cycles;
            out.rob_full += stats.rob_full_cycles;
            out.lsq_full += stats.lsq_full_cycles;
        }
        out.ok = !system.anyQuarantined();
    } catch (const std::exception &) {
        out.ok = false;
    }
}

/** Jobs sharing one trace stream identity, in first-seen order. */
struct Group
{
    std::string workload;
    std::uint64_t seed = 0;
    unsigned cores = 0;
    std::uint64_t records = 0;       ///< Prefill length per core.
    std::vector<std::size_t> jobs;
};

std::vector<Group>
groupByStream(const std::vector<SweepJob> &jobs)
{
    std::vector<Group> groups;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SweepJob &job = jobs[i];
        auto it = std::find_if(groups.begin(), groups.end(),
                               [&job](const Group &g) {
                                   return g.workload == job.workload &&
                                          g.seed == job.options.seed;
                               });
        if (it == groups.end()) {
            Group g;
            g.workload = job.workload;
            g.seed = job.options.seed;
            g.cores = job.config.num_cores;
            g.records = (job.options.warmup_instructions +
                         job.options.measure_instructions) *
                        kPrefillNum / kPrefillDen;
            groups.push_back(std::move(g));
            it = groups.end() - 1;
        }
        it->jobs.push_back(i);
    }
    return groups;
}

/** Pull `records` records through a borrowing (trace-cache) source. */
void
drainBorrowed(TraceSource &source, std::uint64_t records)
{
    while (records > 0) {
        std::size_t got = 0;
        source.borrowBatch(std::min<std::uint64_t>(records, 4096), got);
        if (got == 0)
            throw std::runtime_error("trace source does not borrow");
        records -= got;
    }
}

/** Pull `records` records through a plain generator. */
void
drainGenerated(TraceSource &source, std::uint64_t records)
{
    std::vector<TraceRecord> block(4096);
    while (records > 0) {
        const std::size_t n =
            static_cast<std::size_t>(std::min<std::uint64_t>(
                records, block.size()));
        source.nextBatch(block.data(), n);
        records -= n;
    }
}

/** Run `indices` of `jobs` on up to `threads` threads. */
void
traceJobs(const std::vector<SweepJob> &jobs,
          const std::vector<std::size_t> &indices, unsigned threads,
          std::vector<JobTrace> &out)
{
    std::atomic<std::size_t> next{0};
    const auto worker = [&] {
        for (std::size_t k = next++; k < indices.size(); k = next++)
            traceJob(jobs[indices[k]], out[indices[k]]);
    };
    std::vector<std::thread> pool;
    for (unsigned t = 1; t < threads; ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &thread : pool)
        thread.join();
}

/** One LLC event of a captured stream: a demand access or eviction. */
struct LlcEvent
{
    MemAccess access;
    Cycle cycle = 0;
    bool hit = false;
    bool eviction = false;
};

/** Demand streams of one simulation, in simulation order. */
struct Capture
{
    std::vector<std::pair<MemAccess, Cycle>> l1d;
    std::vector<LlcEvent> llc;
    std::uint64_t llc_accesses = 0;
};

/** Simulate no-prefetcher `job` recording its L1D and LLC streams. */
void
captureStreams(const SweepJob &job, Capture &cap)
{
    SystemConfig config = job.config;
    config.seed = job.options.seed;
    config.validate();
    System system(config, job.workload);
    for (CoreId c = 0; c < system.numCores(); ++c) {
        system.l1d(c).setAccessHook(
            [&cap](const MemAccess &access, bool, Cycle now) {
                cap.l1d.emplace_back(access, now);
            });
    }
    // Without a prefetcher System's own LLC hook does nothing, so
    // replacing it leaves the simulation unchanged.
    system.llc().setAccessHook(
        [&cap](const MemAccess &access, bool hit, Cycle now) {
            cap.llc.push_back({access, now, hit, false});
            ++cap.llc_accesses;
        });
    system.llc().addEvictionListener([&cap](Addr block) {
        LlcEvent event;
        event.access.block = block;
        event.eviction = true;
        cap.llc.push_back(event);
    });
    system.run(job.options.warmup_instructions,
               job.options.measure_instructions);
}

/** Host seconds to feed `cap`'s LLC stream to per-core `kind` engines. */
double
replayPrefetcher(const Capture &cap, PrefetcherKind kind, unsigned cores)
{
    PrefetcherConfig config;
    config.kind = kind;
    std::vector<std::unique_ptr<Prefetcher>> engines;
    for (unsigned c = 0; c < cores; ++c)
        engines.push_back(makePrefetcher(config));
    std::vector<Addr> candidates;
    const Clock::time_point start = Clock::now();
    for (const LlcEvent &event : cap.llc) {
        if (event.eviction) {
            for (auto &engine : engines)
                engine->onEviction(event.access.block);
            continue;
        }
        PrefetchAccess pa;
        pa.pc = event.access.pc;
        pa.block = event.access.block;
        pa.core = event.access.core;
        pa.hit = event.hit;
        pa.type = event.access.type;
        pa.cycle = event.cycle;
        candidates.clear();
        engines[event.access.core]->onAccess(pa, candidates);
    }
    return seconds(start, Clock::now());
}

/** The level below a replay cache: every fetch takes a fixed time. */
class FixedLatencyLower : public MemoryLower
{
  public:
    FixedLatencyLower(EventQueue &events, Cycle latency)
        : events_(events), latency_(latency)
    {
    }

    void
    fetch(const MemAccess &, Cycle now, FillCallback done) override
    {
        const Cycle when = now + latency_;
        events_.schedule(when,
                         [done = std::move(done), when] { done(when); });
    }

    void writeback(Addr, CoreId, Cycle) override {}

  private:
    EventQueue &events_;
    Cycle latency_;
};

/**
 * Host seconds to replay `stream` into stand-alone caches of `config`
 * (one per core when `per_core`), over an event queue and a
 * fixed-latency stub.
 */
double
replayCache(const CacheConfig &config,
            const std::vector<std::pair<MemAccess, Cycle>> &stream,
            unsigned cores, bool per_core, Cycle lower_latency)
{
    EventQueue events;
    FixedLatencyLower lower(events, lower_latency);
    std::vector<std::unique_ptr<Cache>> caches;
    for (unsigned c = 0; c < (per_core ? cores : 1u); ++c) {
        caches.push_back(std::make_unique<Cache>(
            "replay" + std::to_string(c), config, events, lower));
    }
    const Clock::time_point start = Clock::now();
    for (const auto &[access, cycle] : stream) {
        events.runDue(cycle);
        caches[per_core ? access.core : 0]->access(access, cycle,
                                                    FillCallback{});
    }
    while (!events.empty())
        events.runDue(events.nextEventCycle());
    return seconds(start, Clock::now());
}

} // namespace

TraceReport
runTraced(const Workload &workload)
{
    const std::vector<SweepJob> jobs = simulatedJobs(workload.jobs);
    const unsigned threads = std::max(
        1u, workload.threads > 0 ? workload.threads
                                 : workload.dist_workers);
    const double clock_call_s = clockCallSeconds();
    std::vector<JobTrace> traces(jobs.size());

    // Per stream group: fill the trace cache first (timed as the
    // workload layer's fill), then simulate the group's jobs.
    double fill_s = 0.0, generate_s = 0.0;
    std::uint64_t fill_records = 0, generate_records = 0;
    std::uint64_t tail_records = 0;
    TraceReport report;
    TraceCache &cache = TraceCache::instance();
    for (const Group &group : groupByStream(jobs)) {
        cache.clear();
        std::vector<std::unique_ptr<TraceSource>> held;
        const Clock::time_point fill_start = Clock::now();
        for (CoreId c = 0; c < group.cores; ++c) {
            held.push_back(acquireWorkloadSource(group.workload, c,
                                                 group.seed, true));
            drainBorrowed(*held.back(), group.records);
        }
        const Clock::time_point fill_end = Clock::now();
        fill_s += seconds(fill_start, fill_end);
        fill_records += group.records * group.cores;
        const std::uint64_t generated = cache.stats().records_generated;

        traceJobs(jobs, group.jobs,
                  std::min<unsigned>(
                      threads,
                      static_cast<unsigned>(group.jobs.size())),
                  traces);
        report.traced_wall_s += seconds(fill_start, Clock::now());
        tail_records += cache.stats().records_generated - generated;
        held.clear();

        // Outside the traced wall: the bare generator, for the
        // translation + sidecar share of the fill.
        const std::unique_ptr<TraceSource> generator =
            bingo::makeWorkload(group.workload, 0, group.seed);
        const Clock::time_point gen_start = Clock::now();
        drainGenerated(*generator, group.records);
        generate_s += seconds(gen_start, Clock::now());
        generate_records += group.records;
    }
    cache.clear();

    const double fill_ns_per_rec = 1e9 * ratio(fill_s, fill_records);
    double run_s = 0.0, hook_s = 0.0;
    double cycles = 0.0, skipped = 0.0, instructions = 0.0;
    double core_cycles = 0.0, rob_full = 0.0, lsq_full = 0.0;
    double ipc_sum = 0.0, ipc_count = 0.0;
    double hook_calls = 0.0, candidates = 0.0;
    double measured = 0.0, l1d_misses = 0.0;
    CacheStats llc;
    DramStats dram;
    std::map<PrefetcherKind, std::pair<double, double>> engine_hook;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobTrace &t = traces[i];
        if (!t.ok) {
            ++report.failed;
            report.digests.push_back("failed");
            continue;
        }
        report.digests.push_back(digest(t.result));
        const double hook = std::max(
            0.0, t.hook_s - clock_call_s * static_cast<double>(
                                               t.hook_calls));
        run_s += t.run_s;
        hook_s += hook;
        hook_calls += static_cast<double>(t.hook_calls);
        candidates += static_cast<double>(t.candidates);
        auto &[engine_hook_s, engine_run_s] =
            engine_hook[t.result.kind];
        engine_hook_s += hook;
        engine_run_s += t.run_s;
        cycles += static_cast<double>(t.cycles);
        skipped += static_cast<double>(t.skipped);
        instructions +=
            static_cast<double>(nominalInstructions(jobs[i]));
        core_cycles += static_cast<double>(t.core_cycles);
        rob_full += static_cast<double>(t.rob_full);
        lsq_full += static_cast<double>(t.lsq_full);
        for (double ipc : t.result.core_ipc) {
            ipc_sum += ipc;
            ipc_count += 1.0;
        }
        measured += static_cast<double>(t.result.instructions);
        l1d_misses += static_cast<double>(t.result.l1d.demand_misses);
        const CacheStats &s = t.result.llc;
        llc.demand_misses += s.demand_misses;
        llc.mshr_merges += s.mshr_merges;
        llc.mshr_stall_fetches += s.mshr_stall_fetches;
        llc.demand_miss_latency += s.demand_miss_latency;
        llc.prefetch_requests += s.prefetch_requests;
        llc.prefetch_drops += s.prefetch_drops;
        llc.prefetch_fills += s.prefetch_fills;
        llc.useful_prefetches += s.useful_prefetches;
        llc.late_useful_prefetches += s.late_useful_prefetches;
        const DramStats &d = t.result.dram;
        dram.reads += d.reads;
        dram.row_hits += d.row_hits;
        dram.row_misses += d.row_misses;
        dram.row_conflicts += d.row_conflicts;
        dram.queue_delay_cycles += d.queue_delay_cycles;
    }

    // Simulator time: the run spans minus the prefetch spans and the
    // two clock reads around each, minus trace records generated past
    // the prefill, at the measured fill rate.
    const double sim_s =
        run_s - hook_s - 2.0 * clock_call_s * hook_calls -
        1e-9 * fill_ns_per_rec * static_cast<double>(tail_records);

    std::map<std::string, double> &m = report.metrics;
    m["workload.fill_ns_per_rec"] = fill_ns_per_rec;
    m["workload.generate_ns_per_rec"] =
        1e9 * ratio(generate_s, generate_records);
    m["sim.host_ns_per_cycle"] = 1e9 * ratio(sim_s, cycles);
    m["sim.host_ns_per_instr"] = 1e9 * ratio(sim_s, instructions);
    m["sim.skip_ratio"] = ratio(skipped, cycles);
    m["core.ipc"] = ratio(ipc_sum, ipc_count);
    m["core.rob_full_ratio"] = ratio(rob_full, core_cycles);
    m["core.lsq_full_ratio"] = ratio(lsq_full, core_cycles);
    m["cache.l1d.mpki"] = 1000.0 * ratio(l1d_misses, measured);
    m["cache.llc.mpki"] =
        1000.0 * ratio(static_cast<double>(llc.demand_misses), measured);
    m["cache.llc.mshr_merge_ratio"] =
        ratio(static_cast<double>(llc.mshr_merges),
              static_cast<double>(llc.demand_misses));
    m["cache.llc.mshr_stall_ratio"] =
        ratio(static_cast<double>(llc.mshr_stall_fetches),
              static_cast<double>(llc.demand_misses));
    m["cache.llc.avg_miss_latency_cycles"] = llc.avgDemandMissLatency();
    m["cache.llc.pf_drop_ratio"] =
        ratio(static_cast<double>(llc.prefetch_drops),
              static_cast<double>(llc.prefetch_requests));
    m["prefetch.share"] = ratio(hook_s, run_s);
    for (const auto &[name, kind] : kInSituEngines) {
        const auto &[engine_hook_s, engine_run_s] = engine_hook[kind];
        m[std::string("prefetch.") + name + ".share"] =
            ratio(engine_hook_s, engine_run_s);
    }
    m["prefetch.candidates_per_access"] = ratio(candidates, hook_calls);
    m["prefetch.useful_ratio"] =
        ratio(static_cast<double>(llc.useful_prefetches),
              static_cast<double>(llc.prefetch_fills));
    m["prefetch.late_ratio"] = llc.lateHitRate();
    m["mem.dram.row_hit_ratio"] = dram.rowHitRate();
    m["mem.dram.queue_delay_per_read"] =
        ratio(static_cast<double>(dram.queue_delay_cycles),
              static_cast<double>(dram.reads));

    // Stand-alone replays of captured no-prefetcher streams: per-engine
    // cost per access on every workload (the hybrid's hook cannot be
    // split from outside) and cache host time, which the run spans
    // above fold into sim.*.
    std::map<std::string, double> replay_s;
    double replay_llc_accesses = 0.0, replay_l1d_accesses = 0.0;
    std::size_t captured = 0;
    std::vector<std::string> seen;
    for (const SweepJob &job : jobs) {
        if (captured == kCaptureJobs ||
            job.config.prefetcher.kind != PrefetcherKind::None ||
            std::find(seen.begin(), seen.end(), job.workload) != seen.end())
            continue;
        seen.push_back(job.workload);
        ++captured;
        Capture cap;
        try {
            captureStreams(job, cap);
        } catch (const std::exception &) {
            ++report.failed;
            continue;
        }
        const unsigned cores = job.config.num_cores;
        for (const auto &[name, kind] : kReplayEngines)
            replay_s[name] += replayPrefetcher(cap, kind, cores);
        replay_llc_accesses += static_cast<double>(cap.llc_accesses);
        std::vector<std::pair<MemAccess, Cycle>> llc_stream;
        llc_stream.reserve(cap.llc_accesses);
        for (const LlcEvent &event : cap.llc) {
            if (!event.eviction)
                llc_stream.emplace_back(event.access, event.cycle);
        }
        replay_s["l1d"] +=
            replayCache(job.config.l1d, cap.l1d, cores, true,
                        job.config.llc.hit_latency);
        replay_s["llc"] += replayCache(job.config.llc, llc_stream, cores,
                                       false, kReplayMemoryLatency);
        replay_l1d_accesses += static_cast<double>(cap.l1d.size());
    }
    cache.clear();
    for (const auto &[name, kind] : kReplayEngines) {
        m[std::string("prefetch.") + name + ".replay_ns"] =
            1e9 * ratio(replay_s[name], replay_llc_accesses);
    }
    m["cache.l1d.replay_ns_per_access"] =
        1e9 * ratio(replay_s["l1d"], replay_l1d_accesses);
    m["cache.llc.replay_ns_per_access"] =
        1e9 * ratio(replay_s["llc"], replay_llc_accesses);
    return report;
}

} // namespace perfbench
