/**
 * @file
 * Seeded, deterministic fault injection for the simulated machine.
 *
 * The chaos layer perturbs a run at five sites — trace records at the
 * reader, DRAM response timing, prefetcher metadata bits, MSHR
 * occupancy, and the prefetcher model itself — on an exact schedule
 * derived from per-site RNG streams. Every draw happens at a fixed
 * *opportunity* (per trace record pulled, per prefetch request, per
 * DRAM fetch, per LLC demand access), never per cycle, so the schedule
 * is bit-identical across thread counts and with cycle skipping on or
 * off: the same `BINGO_CHAOS` spec replays the same faults at the same
 * points of the same run.
 *
 * Spec format: `BINGO_CHAOS=seed:rate[:sites]` where `sites` is a
 * comma list of {trace,dram,meta,mshr,pf} or `all` (the default).
 * Malformed specs throw — a chaos experiment with a silently-dropped
 * plan would masquerade as a clean run.
 */

#ifndef BINGO_CHAOS_CHAOS_HPP
#define BINGO_CHAOS_CHAOS_HPP

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>

#include "common/config.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"
#include "core/ooo_core.hpp"

namespace bingo::chaos
{

/** Injection sites; bit positions in ChaosConfig::site_mask. */
enum class ChaosSite : unsigned
{
    Trace = 0,       ///< Bit-flip virtual addr/pc of trace records.
    Dram = 1,        ///< Delay or drop-and-retry DRAM responses.
    Metadata = 2,    ///< Flip bits in prefetcher metadata entries.
    Mshr = 3,        ///< Spike MSHR occupancy seen by prefetches.
    Prefetcher = 4,  ///< Inject a fault into the prefetcher model.
    Transport = 5,   ///< Sever distributed-sweep links.
};

/**
 * Number of *simulation* sites — the ones ChaosEngine draws for and
 * that contribute to a job's fingerprint. The transport site lives
 * outside the simulated machine: it perturbs the coordinator/worker
 * byte stream, must never change what any job computes, and so is
 * deliberately excluded from this count, from `all`, and from the
 * chaos identity that applyEnvChaos overlays onto a SystemConfig.
 */
constexpr unsigned kNumChaosSites = 5;

/** Mask of every simulation site (what `all` expands to). */
constexpr unsigned kSimSiteMask = (1u << kNumChaosSites) - 1;

/** site_mask bit for one site. */
constexpr unsigned
siteBit(ChaosSite site)
{
    return 1u << static_cast<unsigned>(site);
}

/**
 * Parse a `seed:rate[:sites]` spec. Throws std::invalid_argument on
 * malformed input (bad numbers, rate outside [0, 1], unknown site).
 */
ChaosConfig parseChaosSpec(const std::string &spec);

/** Render a plan back to its `seed:rate:sites` spec (logs, reports). */
std::string formatChaosSpec(const ChaosConfig &config);

/**
 * The process-wide plan from BINGO_CHAOS (cached after the first
 * call; unset or empty means disabled). Throws on a malformed spec.
 */
const ChaosConfig &chaosFromEnv();

/**
 * Overlay the BINGO_CHAOS plan onto a config that does not already
 * carry one. Benches that set cfg.chaos explicitly keep their plan.
 * The transport bit is stripped before the overlay: transport faults
 * perturb the distributed runtime's byte stream, not the simulated
 * machine, so they must leave job fingerprints — and therefore the
 * journal byte-identity oracle — untouched. A spec naming only the
 * transport site leaves cfg.chaos disabled.
 */
void applyEnvChaos(SystemConfig &cfg);

/**
 * The transport slice of BINGO_CHAOS, consumed by the distributed
 * runtime (src/dist/transport.*) rather than by ChaosEngine. Enabled
 * only when the spec explicitly names the `transport` site; `all`
 * means all *simulation* sites and never turns this on.
 */
struct TransportFaultPlan
{
    bool enabled = false;
    std::uint64_t seed = 0;
    double rate = 0.0;
};

/** Transport fault plan from BINGO_CHAOS (cached; see chaosFromEnv). */
TransportFaultPlan transportChaosFromEnv();

/** What the injector actually did during a run. */
struct ChaosCounters
{
    std::uint64_t trace_corruptions = 0;
    std::uint64_t dram_delays = 0;
    std::uint64_t dram_drops = 0;
    std::uint64_t metadata_flips = 0;
    std::uint64_t mshr_spikes = 0;
    std::uint64_t injected_prefetcher_faults = 0;
};

/**
 * Visit every ChaosCounters counter once, in declaration order, as
 * `visit(name, field)` (the field const when `counters` is): the one
 * counter list behind run.json's `chaos.` counters.
 */
template <MaybeConst<ChaosCounters> Counters, typename Visitor>
constexpr void
visitCounters(Counters &counters, Visitor &&visit)
{
    visit("trace_corruptions", counters.trace_corruptions);
    visit("dram_delays", counters.dram_delays);
    visit("dram_drops", counters.dram_drops);
    visit("metadata_flips", counters.metadata_flips);
    visit("mshr_spikes", counters.mshr_spikes);
    visit("injected_prefetcher_faults",
          counters.injected_prefetcher_faults);
}
static_assert(counterCount<ChaosCounters>() * sizeof(std::uint64_t) ==
                  sizeof(ChaosCounters),
              "visitCounters must name every ChaosCounters counter");

/**
 * Per-System fault plan: one independent RNG stream per site, all
 * derived from (chaos seed, system seed, site), so enabling one site
 * never perturbs another's schedule and two Systems with the same
 * seeds fault identically regardless of which thread runs them.
 */
class ChaosEngine
{
  public:
    ChaosEngine(const ChaosConfig &config, std::uint64_t system_seed)
        : config_(config)
    {
        const std::uint64_t base =
            hashCombine(config.seed, system_seed);
        for (unsigned s = 0; s < kNumChaosSites; ++s)
            streams_[s].reseed(hashCombine(base, s + 1));
        trace_base_ = hashCombine(base, 0x7ace);
    }

    const ChaosConfig &config() const { return config_; }

    bool
    siteEnabled(ChaosSite site) const
    {
        return (config_.site_mask & siteBit(site)) != 0;
    }

    /** The site's private stream (draw order defines the schedule). */
    Rng &
    stream(ChaosSite site)
    {
        return streams_[static_cast<unsigned>(site)];
    }

    /**
     * One fault opportunity at `site`: a masked-off site never draws
     * (its stream stays untouched), an enabled one always draws —
     * even at rate 0 — so the schedule depends only on the opportunity
     * sequence, not on the rate.
     */
    bool
    fires(ChaosSite site)
    {
        return siteEnabled(site) && stream(site).chance(config_.rate);
    }

    /** Seed for core `c`'s trace-corruption stream. */
    std::uint64_t
    traceSeed(CoreId core) const
    {
        return hashCombine(trace_base_, core);
    }

    ChaosCounters &counters() { return counters_; }
    const ChaosCounters &counters() const { return counters_; }

  private:
    ChaosConfig config_;
    Rng streams_[kNumChaosSites];
    std::uint64_t trace_base_ = 0;
    ChaosCounters counters_;
};

/**
 * Trace-corruption layer: wraps a core's raw source and bit-flips the
 * virtual address or PC of instructions at the chaos rate, before
 * address translation (so corruption lands anywhere in the 64-bit
 * virtual space and the translation layer's own guards stay
 * exercised). The instruction type and count are never touched — the
 * stream stays well-formed; the corruption models wrong *data*, not an
 * undecodable trace. Draws happen once per instruction, in stream
 * order, whatever window sizes the reader asks for and however compute
 * runs are cut into counted records, so the schedule depends only on
 * the instruction sequence.
 */
class ChaosTraceSource : public TraceSource
{
  public:
    ChaosTraceSource(std::unique_ptr<TraceSource> inner, double rate,
                     std::uint64_t seed, std::uint64_t *counter)
        : inner_(std::move(inner)), rng_(seed), rate_(rate),
          counter_(counter)
    {
    }

    /** Fills its own window from the inner source and corrupts it. */
    const TraceRecord *
    borrowBatch(std::size_t want, std::size_t &got) override
    {
        got = std::min(want, window_.size());
        inner_->nextBatch(window_.data(), got);
        for (std::size_t i = 0; i < got; ++i)
            maybeCorrupt(window_[i]);
        return window_.data();
    }

  private:
    /** One draw per instruction of `rec` (a flip in a compute run's
     *  PC or address has no reader). */
    void
    maybeCorrupt(TraceRecord &rec)
    {
        for (std::uint32_t i = 0; i < rec.count; ++i) {
            if (!rng_.chance(rate_))
                continue;
            const std::uint64_t pick = rng_.next();
            const unsigned bit = static_cast<unsigned>(rng_.below(64));
            if (pick & 1)
                rec.addr ^= 1ULL << bit;
            else
                rec.pc ^= 1ULL << bit;
            ++*counter_;
        }
    }

    std::unique_ptr<TraceSource> inner_;
    Rng rng_;
    double rate_;
    std::uint64_t *counter_;
    std::array<TraceRecord, kWindowRecords> window_;
};

} // namespace bingo::chaos

#endif // BINGO_CHAOS_CHAOS_HPP
