#include "workloads.hpp"

#include <bit>
#include <cstdio>
#include <set>
#include <stdexcept>

#include "workload/generator.hpp"

namespace perfbench
{

using namespace bingo;

namespace
{

/** The ROADMAP's reduced-fidelity run length (per core). */
constexpr std::uint64_t kWarmupInstructions = 200 * 1000;
constexpr std::uint64_t kMeasureInstructions = 500 * 1000;

/** Distinct streams per cold-compute application. */
constexpr std::uint64_t kColdSeedsPerApp = 4;

ExperimentOptions
optionsFor(std::uint64_t seed)
{
    ExperimentOptions options;
    options.warmup_instructions = kWarmupInstructions;
    options.measure_instructions = kMeasureInstructions;
    options.seed = seed;
    return options;
}

SystemConfig
configFor(PrefetcherKind kind)
{
    SystemConfig config;
    config.prefetcher.kind = kind;
    return config;
}

/** bench_fig8_speedup's job list: Table II x the six competitors. */
Workload
fig8(std::uint64_t seed)
{
    Workload w;
    w.name = "fig8";
    for (const std::string &app : bingo::workloadNames()) {
        for (PrefetcherKind kind :
             {PrefetcherKind::Bop, PrefetcherKind::Spp,
              PrefetcherKind::Vldp, PrefetcherKind::Ampm,
              PrefetcherKind::Sms, PrefetcherKind::Bingo}) {
            w.jobs.push_back({app, configFor(kind), optionsFor(seed),
                              /*compare_baseline=*/true});
        }
    }
    return w;
}

/**
 * Compute-bound applications without a prefetcher; every job replays
 * its own stream, so each one pays a cold trace fill.
 */
Workload
coldCompute(std::uint64_t seed)
{
    Workload w;
    w.name = "cold-compute";
    for (std::uint64_t k = 0; k < kColdSeedsPerApp; ++k) {
        for (const char *app :
             {"SAT Solver", "Streaming", "Data Serving", "Zeus"}) {
            w.jobs.push_back({app, configFor(PrefetcherKind::None),
                              optionsFor(seed * kColdSeedsPerApp + k)});
        }
    }
    return w;
}

/** Stall-heavy applications under the temporal hybrid and Bingo. */
Workload
hybridStall(std::uint64_t seed)
{
    Workload w;
    w.name = "hybrid-stall";
    w.threads = 2;
    for (const char *app : {"Markov Chase", "em3d", "Mix 3"}) {
        for (PrefetcherKind kind :
             {PrefetcherKind::None, PrefetcherKind::Bingo,
              PrefetcherKind::Hybrid}) {
            w.jobs.push_back({app, configFor(kind), optionsFor(seed)});
        }
    }
    return w;
}

/** FNV-1a over 64-bit words. */
class Fnv
{
  public:
    void
    add(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            hash_ ^= (value >> (8 * i)) & 0xFF;
            hash_ *= 0x100000001B3ULL;
        }
    }

    void
    add(const CacheStats &s)
    {
        for (std::uint64_t v :
             {s.demand_accesses, s.demand_hits, s.demand_misses,
              s.late_prefetch_hits, s.mshr_merges, s.mshr_stall_fetches,
              s.prefetch_requests, s.prefetch_drops,
              s.prefetch_drop_present, s.prefetch_drop_inflight,
              s.prefetch_drop_mshr, s.prefetch_fills,
              s.useful_prefetches, s.useless_prefetches,
              s.late_useful_prefetches, s.writebacks, s.evictions,
              s.demand_miss_latency})
            add(v);
    }

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"fig8", "cold-compute",
                                                   "hybrid-stall"};
    return names;
}

Workload
buildWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "fig8")
        return fig8(seed);
    if (name == "cold-compute")
        return coldCompute(seed);
    if (name == "hybrid-stall")
        return hybridStall(seed);
    throw std::invalid_argument("unknown workload: " + name);
}

std::vector<SweepJob>
simulatedJobs(const std::vector<SweepJob> &jobs)
{
    std::vector<SweepJob> all = jobs;
    std::set<std::pair<std::string, std::uint64_t>> seen;
    for (const SweepJob &job : jobs) {
        if (!job.compare_baseline ||
            !seen.emplace(job.workload, job.options.seed).second)
            continue;
        SweepJob baseline;
        baseline.workload = job.workload;
        baseline.options = job.options;
        all.push_back(baseline);
    }
    for (SweepJob &job : all)
        job.compare_baseline = false;
    return all;
}

std::uint64_t
nominalInstructions(const SweepJob &job)
{
    return job.config.num_cores * (job.options.warmup_instructions +
                                   job.options.measure_instructions);
}

std::string
digest(const RunResult &result)
{
    Fnv fnv;
    fnv.add(static_cast<std::uint64_t>(result.kind));
    for (double ipc : result.core_ipc)
        fnv.add(std::bit_cast<std::uint64_t>(ipc));
    fnv.add(result.instructions);
    fnv.add(result.llc);
    fnv.add(result.l1d);
    const DramStats &d = result.dram;
    for (std::uint64_t v :
         {d.reads, d.writes, d.row_hits, d.row_misses, d.row_conflicts,
          d.bus_busy_cycles, d.queue_delay_cycles})
        fnv.add(v);
    fnv.add(result.degraded ? 1 : 0);
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(fnv.value()));
    return buf;
}

double
paperMpki(const std::string &workload)
{
    if (workload == "Data Serving") return 6.7;
    if (workload == "SAT Solver") return 1.7;
    if (workload == "Streaming") return 3.9;
    if (workload == "Zeus") return 5.2;
    if (workload == "em3d") return 32.4;
    if (workload == "Mix 1") return 15.7;
    if (workload == "Mix 2") return 12.5;
    if (workload == "Mix 3") return 12.7;
    if (workload == "Mix 4") return 14.7;
    if (workload == "Mix 5") return 12.6;
    return 0.0;
}

} // namespace perfbench
