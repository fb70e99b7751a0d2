/**
 * @file
 * Set-associative write-back cache with MSHRs, prefetch-bit accounting,
 * and eviction listeners.
 *
 * The same class models both the private L1D and the shared LLC; the
 * level below is abstracted as a MemoryLower (the LLC for an L1, the
 * DRAM controller for the LLC). Prefetch requests enter through
 * prefetch() and are marked in the block metadata so usefulness can be
 * measured exactly: a demand hit on a marked block is a useful
 * prefetch; evicting a still-marked block is a useless one.
 *
 * Demand fetches that arrive while the MSHR file is full are parked in
 * an unbounded pending queue and replayed as entries free up (they still
 * pay the waiting time); prefetches are simply dropped, as hardware
 * does.
 */

#ifndef BINGO_CACHE_CACHE_HPP
#define BINGO_CACHE_CACHE_HPP

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "cache/mshr.hpp"
#include "common/config.hpp"
#include "common/event_queue.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace bingo
{

namespace telemetry
{
class PrefetchLifecycle;
} // namespace telemetry

/** A memory access presented to a cache. */
struct MemAccess
{
    Addr block = 0;     ///< Block-aligned byte address.
    Addr pc = 0;
    CoreId core = 0;
    AccessType type = AccessType::Load;
};

/** The level below a cache. */
class MemoryLower
{
  public:
    virtual ~MemoryLower() = default;

    /**
     * Fetch `access.block`; invoke `done` with the cycle at which the
     * data reaches the requesting cache.
     */
    virtual void fetch(const MemAccess &access, Cycle now,
                       FillCallback done) = 0;

    /** Write back a dirty block (nothing waits on it). */
    virtual void writeback(Addr block, CoreId core, Cycle now) = 0;
};

/** Counters exported by a cache. */
struct CacheStats
{
    std::uint64_t demand_accesses = 0;
    std::uint64_t demand_hits = 0;
    std::uint64_t demand_misses = 0;       ///< New or demand-merged miss.
    std::uint64_t late_prefetch_hits = 0;  ///< Demand merged into pf MSHR.
    std::uint64_t mshr_merges = 0;
    std::uint64_t mshr_stall_fetches = 0;  ///< Demands parked when full.
    std::uint64_t prefetch_requests = 0;   ///< Prefetches presented.
    std::uint64_t prefetch_drops = 0;      ///< Sum of the three below.
    std::uint64_t prefetch_drop_present = 0;
    std::uint64_t prefetch_drop_inflight = 0;
    std::uint64_t prefetch_drop_mshr = 0;
    std::uint64_t prefetch_fills = 0;
    std::uint64_t useful_prefetches = 0;   ///< Includes late ones.
    std::uint64_t useless_prefetches = 0;
    /** Useful blocks whose first demand merged into the pf MSHR. */
    std::uint64_t late_useful_prefetches = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t evictions = 0;
    std::uint64_t demand_miss_latency = 0;  ///< Sum over demand misses.

    double
    avgDemandMissLatency() const
    {
        return demand_misses == 0
                   ? 0.0
                   : static_cast<double>(demand_miss_latency) /
                         static_cast<double>(demand_misses);
    }

    /** Useful blocks that were resident before their first demand. */
    std::uint64_t
    timelyUsefulPrefetches() const
    {
        return useful_prefetches - late_useful_prefetches;
    }

    /** Share of useful prefetches that arrived late; 0 when none. */
    double
    lateHitRate() const
    {
        return useful_prefetches == 0
                   ? 0.0
                   : static_cast<double>(late_useful_prefetches) /
                         static_cast<double>(useful_prefetches);
    }
};

/**
 * Visit every CacheStats counter once, in declaration order, as
 * `visit(name, field)` (the field const when `stats` is): the one
 * counter list behind the journal's `llc`/`l1d` lines and run.json.
 */
template <MaybeConst<CacheStats> Stats, typename Visitor>
constexpr void
visitCounters(Stats &stats, Visitor &&visit)
{
    visit("demand_accesses", stats.demand_accesses);
    visit("demand_hits", stats.demand_hits);
    visit("demand_misses", stats.demand_misses);
    visit("late_prefetch_hits", stats.late_prefetch_hits);
    visit("mshr_merges", stats.mshr_merges);
    visit("mshr_stall_fetches", stats.mshr_stall_fetches);
    visit("prefetch_requests", stats.prefetch_requests);
    visit("prefetch_drops", stats.prefetch_drops);
    visit("prefetch_drop_present", stats.prefetch_drop_present);
    visit("prefetch_drop_inflight", stats.prefetch_drop_inflight);
    visit("prefetch_drop_mshr", stats.prefetch_drop_mshr);
    visit("prefetch_fills", stats.prefetch_fills);
    visit("useful_prefetches", stats.useful_prefetches);
    visit("useless_prefetches", stats.useless_prefetches);
    visit("late_useful_prefetches", stats.late_useful_prefetches);
    visit("writebacks", stats.writebacks);
    visit("evictions", stats.evictions);
    visit("demand_miss_latency", stats.demand_miss_latency);
}
static_assert(counterCount<CacheStats>() * sizeof(std::uint64_t) ==
                  sizeof(CacheStats),
              "visitCounters must name every CacheStats counter");

/** Set-associative write-back cache level. */
class Cache
{
  public:
    /** Called when a block leaves the cache (eviction). */
    using EvictionListener = std::function<void(Addr block)>;

    /**
     * Hook observing every demand access (after hit/miss is known) —
     * the attachment point for LLC prefetchers.
     */
    using AccessHook =
        std::function<void(const MemAccess &, bool hit, Cycle now)>;

    /**
     * Chaos hook consulted once per prefetch() call; returning true
     * makes the request behave as if the MSHR file had no prefetch
     * headroom (queued, or dropped when the queue is full). Queued
     * prefetches drain on fills as usual — the spike models transient
     * pressure at issue time, not a wedged MSHR file.
     */
    using MshrPressureHook = std::function<bool()>;

    Cache(std::string name, const CacheConfig &config, EventQueue &events,
          MemoryLower &lower);

    /**
     * Demand access (load or store). `done` is invoked with the cycle
     * at which data is available; stores also invoke it (when the line
     * is owned) so the LSQ can free the entry.
     */
    void access(const MemAccess &access, Cycle now, FillCallback done);

    /**
     * Prefetch `block` into this cache on behalf of `core`. Dropped if
     * the block is present, already in flight, or the MSHRs are full.
     */
    void prefetch(Addr block, Addr pc, CoreId core, Cycle now);

    /** Whether `block` is currently resident. */
    bool contains(Addr block) const;

    void setAccessHook(AccessHook hook) { hook_ = std::move(hook); }
    void setMshrPressureHook(MshrPressureHook hook)
    {
        mshr_pressure_hook_ = std::move(hook);
    }
    void addEvictionListener(EvictionListener listener);

    /**
     * Visit every resident block (valid lines only) with its dirty
     * flag and last-toucher core. Cold path: used by the shadow-model
     * cross-check and diagnostics.
     */
    void forEachResident(
        const std::function<void(Addr block, bool dirty, CoreId core)>
            &fn) const;

    /**
     * Attach a prefetch lifecycle tracker (telemetry). Null detaches;
     * when detached, every event site is one pointer test.
     */
    void setLifecycleTracker(telemetry::PrefetchLifecycle *tracker)
    {
        lifecycle_ = tracker;
    }

    /**
     * Report this cache's counters into `out` under "<name>.", with
     * its live occupancies and its MSHR file's under "<name>.mshr.".
     */
    void metrics(MetricMap &out) const;

    const CacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = CacheStats{}; }
    const std::string &name() const { return name_; }
    const CacheConfig &config() const { return config_; }

    /** Number of resident blocks (tests/diagnostics). */
    std::uint64_t residentBlocks() const;

    /**
     * Structural self-check (the BINGO_CHECK layer): MSHR occupancy
     * within capacity and disjoint from the resident set, every valid
     * block mapped to its set with a unique tag and a sane recency
     * stamp, prefetch queue within bounds. Throws SimError tagged with
     * this cache's name and `now` on the first violation.
     */
    void checkInvariants(Cycle now) const;

  private:
    /// The typed completion record dispatches CacheFill completions
    /// straight into handleFill().
    friend class Completion;

    struct Block
    {
        bool dirty = false;
        bool prefetched = false;  ///< Filled by prefetch, unused so far.
        CoreId core = 0;          ///< Last toucher (for writeback path).
        // The tag (and with it validity) lives in way_tags_, and the
        // replacement state (LRU stamp, RRPV) in the way_lru_ /
        // way_rrpv_ SoA arrays: lookups and victim selection scan a
        // whole set of them, and packed arrays keep those scans inside
        // two cache lines instead of striding through Block records.
    };

    struct PendingFetch
    {
        MemAccess access;
        Cycle arrival = 0;
        FillCallback done;
    };

    struct QueuedPrefetch
    {
        Addr block = 0;
        Addr pc = 0;
        CoreId core = 0;
    };

    /** Whether a prefetch may take an MSHR right now. */
    bool prefetchMshrAvailable() const;

    /** Issue queued prefetches while MSHR headroom lasts. */
    void drainPrefetchQueue(Cycle now);

    std::uint64_t setOf(Addr block) const;

    /** Way index of resident `block` (into blocks_), or kNoWay. */
    std::size_t wayOf(Addr block) const;

    /** Recency bookkeeping on a hit/fill, per the configured policy. */
    void touchBlock(std::size_t way_index);

    /**
     * Start the lower-level fetch for an allocated MSHR entry.
     * `slot` is the entry's slotOf() index, carried through the fill
     * callback so completion releases the MSHR without a key scan.
     */
    void issueFetch(const MemAccess &access, std::size_t slot,
                    Cycle now);

    /** Install the fill for MSHR `slot` and drain its callbacks. */
    void handleFill(std::size_t slot, Cycle fill_cycle);

    /** Pick a victim way for `block`, evicting it if valid. */
    std::size_t victimize(Addr block, Cycle now);

    std::string name_;
    CacheConfig config_;
    EventQueue &events_;
    MemoryLower &lower_;
    /// way_tags_ sentinel for an invalid way: odd, so it can never
    /// equal a block-aligned address.
    static constexpr Addr kNoTag = 1;
    /// wayOf() result for a block that is not resident.
    static constexpr std::size_t kNoWay = ~std::size_t{0};

    std::uint64_t num_sets_;
    std::vector<Block> blocks_;
    /// Full block address of each way, kNoTag while invalid: the one
    /// store of tags and validity. The way scan in wayOf() runs on
    /// every access and touches only tags, so packing them 8 per cache
    /// line beats striding through Block records. handleFill() is the
    /// only writer.
    std::vector<Addr> way_tags_;
    /// Per-way recency stamps and RRPVs, packed like way_tags_ so the
    /// victim scan (and SRRIP aging) stays in a few cache lines.
    std::vector<std::uint64_t> way_lru_;
    std::vector<std::uint8_t> way_rrpv_;
    /// Valid ways per set. Blocks are never invalidated, so once a
    /// set fills this saturates at `ways` and victimize() skips the
    /// invalid-way scan for good.
    std::vector<std::uint8_t> set_filled_;
    MshrFile mshrs_;
    std::deque<PendingFetch> pending_;
    std::deque<QueuedPrefetch> prefetch_queue_;
    CacheStats stats_;
    AccessHook hook_;
    MshrPressureHook mshr_pressure_hook_;
    telemetry::PrefetchLifecycle *lifecycle_ = nullptr;
    std::vector<EvictionListener> eviction_listeners_;
    std::uint64_t tick_ = 0;
    std::uint64_t victim_rng_ = 0x9e3779b97f4a7c15ULL;
};

/** Adapts the DRAM controller to the MemoryLower interface. */
class DramLower : public MemoryLower
{
  public:
    /**
     * Chaos hook over DRAM response timing: given the access and the
     * controller-computed completion cycle, returns the cycle the fill
     * actually lands (later for an injected delay; a drop-and-retry
     * re-reads the controller). Identity when unset.
     */
    using DramFaultHook = std::function<Cycle(
        const MemAccess &access, Cycle now, Cycle completion)>;

    DramLower(class DramController &dram, EventQueue &events);

    void fetch(const MemAccess &access, Cycle now,
               FillCallback done) override;
    void writeback(Addr block, CoreId core, Cycle now) override;

    void setFaultHook(DramFaultHook hook)
    {
        fault_hook_ = std::move(hook);
    }

  private:
    DramController &dram_;
    EventQueue &events_;
    DramFaultHook fault_hook_;
};

/** Adapts a Cache (the LLC) to the MemoryLower interface for an L1. */
class CacheLower : public MemoryLower
{
  public:
    explicit CacheLower(Cache &cache) : cache_(cache) {}

    void fetch(const MemAccess &access, Cycle now,
               FillCallback done) override;
    void writeback(Addr block, CoreId core, Cycle now) override;

  private:
    Cache &cache_;
};

} // namespace bingo

#endif // BINGO_CACHE_CACHE_HPP
