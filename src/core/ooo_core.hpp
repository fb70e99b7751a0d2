/**
 * @file
 * Trace-driven out-of-order core model.
 *
 * A first-order OoO model in the ChampSim tradition: instructions enter
 * a ROB at the dispatch width, loads issue to the L1D immediately on
 * dispatch (modelling full out-of-order issue within the window,
 * bounded by LSQ and L1 MSHR capacity), and instructions retire in
 * order at the retire width once complete. This captures the
 * behaviours the paper's evaluation depends on: memory-level
 * parallelism limited by ROB/LSQ occupancy, and stalls when the window
 * fills behind a long-latency miss — exactly what prefetching relieves.
 */

#ifndef BINGO_CORE_OOO_CORE_HPP
#define BINGO_CORE_OOO_CORE_HPP

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "common/config.hpp"
#include "common/sim_check.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace bingo
{

/**
 * Pull-based instruction stream feeding a core.
 *
 * borrowBatch() is the one read primitive: the source lends a window
 * of its next records. Sources that own their records (generator
 * bursts, interleaved sub-streams, a loaded trace file, a trace-cache
 * chunk) lend that storage in place. Layered sources that rewrite
 * records (address translation, chaos corruption) fill a window of
 * their own from the inner source and transform it there; filling it
 * whole hands a core reading a private generator 64-record windows
 * rather than one per generator burst. next() and nextBatch() are
 * plain copies through borrowBatch().
 */
class TraceSource
{
  public:
    /// Records a core asks for per fetch, and the size of the window
    /// a transforming layer copies into.
    static constexpr std::size_t kWindowRecords = 64;

    virtual ~TraceSource() = default;

    /**
     * Lend the next 1..`want` records (`want` >= 1) and advance the
     * stream past them, with `got` receiving the count. The window is
     * valid until the next call on this source. Sources are infinite
     * (generators run forever and file replay wraps), so a window is
     * never empty.
     */
    virtual const TraceRecord *borrowBatch(std::size_t want,
                                           std::size_t &got) = 0;

    /** Copy of the next record. */
    TraceRecord
    next()
    {
        std::size_t got = 0;
        return *borrowBatch(1, got);
    }

    /** Copy the next `count` records into `out`. */
    void
    nextBatch(TraceRecord *out, std::size_t count)
    {
        while (count > 0) {
            std::size_t got = 0;
            const TraceRecord *window = borrowBatch(count, got);
            std::copy_n(window, got, out);
            out += got;
            count -= got;
        }
    }
};

/** Counters exported by a core. */
struct CoreStats
{
    std::uint64_t instructions = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t branches = 0;
    std::uint64_t cycles = 0;
    std::uint64_t rob_full_cycles = 0;
    std::uint64_t lsq_full_cycles = 0;
};

/**
 * Visit every CoreStats counter once, in declaration order, as
 * `visit(name, field)` (the field const when `stats` is): the one
 * counter list behind run.json's `core<i>.` counters.
 */
template <MaybeConst<CoreStats> Stats, typename Visitor>
constexpr void
visitCounters(Stats &stats, Visitor &&visit)
{
    visit("instructions", stats.instructions);
    visit("loads", stats.loads);
    visit("stores", stats.stores);
    visit("branches", stats.branches);
    visit("cycles", stats.cycles);
    visit("rob_full_cycles", stats.rob_full_cycles);
    visit("lsq_full_cycles", stats.lsq_full_cycles);
}
static_assert(counterCount<CoreStats>() * sizeof(std::uint64_t) ==
                  sizeof(CoreStats),
              "visitCounters must name every CoreStats counter");

/** One simulated out-of-order core. */
class OooCore
{
  public:
    OooCore(CoreId id, const CoreConfig &config, Cache &l1d,
            TraceSource &trace);

    /** Advance one cycle: retire, then dispatch. */
    void step(Cycle now);

    /**
     * Earliest cycle after `now` at which step() could do anything
     * beyond fixed stall bookkeeping, assuming no memory completion
     * callback arrives first (the run loop bounds the jump by the
     * event queue separately, so callbacks never need predicting
     * here). Returns now + 1 whenever the core can retire or dispatch
     * next cycle, the ROB head's completion cycle when only a timed
     * retirement is pending, and kNeverCycle when only an external
     * fill/store callback (or nothing — quota reached) can unblock it.
     * Conservative by contract: never later than the true next state
     * change. Defined inline below: the run loop probes it every
     * working cycle, so the dispatchable fast path must fold into the
     * caller.
     */
    Cycle nextWakeCycle(Cycle now) const;

    /**
     * Account for `cycles` skipped stall cycles ending at cycle
     * `last`: applies exactly the per-cycle bookkeeping the skipped
     * step() calls would have performed (cycle count plus the
     * rob-full/lsq-full stall counter of the current block reason) and
     * moves the core's cycle cursor to `last`, as step(last) would
     * have. Only valid when nextWakeCycle() and the event queue proved
     * the window is pure stall; the bit-identity of skipped runs
     * rests on this mirroring step() exactly.
     */
    void fastForward(std::uint64_t cycles, Cycle last);

    /**
     * Catch the stall bookkeeping up through cycle `through` (no-op
     * when the cursor is already there). The run loop skips stepping
     * a core whose nextWakeCycle() lies ahead, so the core accounts
     * the gap lazily: step() syncs before acting, and completion
     * callbacks sync before mutating state — against the pre-event
     * block reason, exactly as the stepped loop would have counted
     * the window.
     */
    void
    syncTo(Cycle through)
    {
        if (through > now_)
            fastForward(through - now_, through);
    }

    /**
     * True when a completion callback landed since the last step: the
     * cached nextWakeCycle() bound no longer holds and the run loop
     * must step the core again.
     */
    bool wakeDirty() const { return wake_dirty_; }
    void clearWakeDirty() { wake_dirty_ = false; }

    /**
     * Begin a measurement interval of `instructions` retired
     * instructions starting now. Also clears the core's counters.
     */
    void startMeasurement(std::uint64_t instructions, Cycle now);

    /** True once the measurement quota has been retired. */
    bool measurementDone() const { return measurement_done_; }

    /** Cycle at which the measurement quota was reached. */
    Cycle completionCycle() const { return completion_cycle_; }

    /** Instructions retired during the measurement interval. */
    std::uint64_t measuredInstructions() const
    {
        return stats_.instructions;
    }

    /** Measured IPC (valid once measurementDone()). */
    double ipc() const;

    const CoreStats &stats() const { return stats_; }
    CoreId id() const { return id_; }

    /**
     * Report this core's counters and window occupancies into `out`
     * under "core<id>.".
     */
    void metrics(MetricMap &out) const;

  private:
    /// The typed completion record dispatches LoadFill/StoreRelease
    /// completions straight into completeLoad()/completeStore().
    friend class Completion;

    struct RobSlot
    {
        std::uint64_t seq = 0;
        /// Cycle the instruction's result is ready; kNeverCycle while
        /// the instruction is still in flight. Fusing the former
        /// `completed` flag into the sentinel makes retirement a
        /// single compare per slot.
        Cycle done = kNeverCycle;
        /// Dependent loads waiting for this load's data before issuing.
        std::vector<std::pair<std::uint64_t, MemAccess>> deferred;
    };

    void retire(Cycle now);
    void dispatch(Cycle now);

    /**
     * Fill arrived for ROB sequence `seq`: mark the slot complete,
     * free its LSQ entry and release any dependent loads. Defined
     * inline below — it is the LoadFill branch of the typed completion
     * dispatch, invoked once per load miss/hit from the cache layer.
     */
    void completeLoad(std::uint64_t seq, Cycle when);

    /**
     * Store write-completion: free the LSQ entry modelling the store
     * buffer. The StoreRelease branch of the typed completion
     * dispatch; inline below.
     */
    void completeStore(Cycle when);

    /** Send a load to the L1D, completing its ROB slot on fill. */
    void issueLoad(std::uint64_t seq, const MemAccess &access,
                   Cycle now);

    CoreId id_;
    CoreConfig config_;
    Cache &l1d_;
    TraceSource &trace_;

    /// ROB storage, sized to the next power of two above the
    /// configured capacity so slot indexing is a mask instead of a
    /// modulo (three hot paths index per instruction). Occupancy is
    /// still bounded by rob_capacity_, so FIFO distance never exceeds
    /// the storage span and seq & rob_mask_ cannot alias live slots.
    std::vector<RobSlot> rob_;
    std::uint64_t rob_mask_ = 0;      ///< rob_.size() - 1.
    std::uint64_t rob_capacity_ = 0;  ///< Configured logical capacity.
    std::uint64_t rob_head_ = 0;  ///< Sequence number of oldest entry.
    std::uint64_t rob_tail_ = 0;  ///< Sequence number of next entry.
    unsigned lsq_used_ = 0;
    std::uint64_t last_load_seq_ = 0;
    bool has_last_load_ = false;
    /// Fetch window the trace lent on the last borrowBatch() call;
    /// valid until the next one.
    const TraceRecord *fetch_data_ = nullptr;
    std::uint32_t fetch_pos_ = 0;  ///< Next unconsumed window slot.
    std::uint32_t fetch_end_ = 0;  ///< One past the last valid slot.
    /// Dispatch reached fetch_data_[fetch_pos_] but could not place
    /// it: always a memory record blocked on a full LSQ.
    bool record_held_ = false;

    /// A completion callback arrived since the last step (see
    /// wakeDirty()). Starts true so a fresh core is always stepped.
    bool wake_dirty_ = true;

    CoreStats stats_;
    std::uint64_t measure_target_ = 0;
    Cycle measure_start_cycle_ = 0;
    Cycle completion_cycle_ = 0;
    bool measurement_done_ = false;
    Cycle now_ = 0;
};

inline Cycle
OooCore::nextWakeCycle(Cycle now) const
{
    // A finished core only reacts to in-flight completions, which live
    // in the event queue.
    if (measurement_done_)
        return kNeverCycle;

    Cycle wake = kNeverCycle;
    if (rob_head_ != rob_tail_) {
        const RobSlot &head = rob_[rob_head_ & rob_mask_];
        if (head.done <= now + 1)
            return now + 1;  // Retires next cycle.
        if (head.done != kNeverCycle)
            wake = head.done;  // Timed retirement resumes here.
        // An incomplete head (kNeverCycle) is woken by its fill
        // callback: an event.
    }

    // Dispatch runs every cycle unless structurally blocked; a core
    // that can dispatch must be stepped cycle by cycle.
    if (rob_tail_ - rob_head_ >= rob_capacity_)
        return wake;  // ROB full: only the retirement above unblocks.
    if (record_held_ && lsq_used_ >= config_.lsq_entries)
        return wake;  // LSQ full: freed by a completion callback.
    return now + 1;
}

inline void
OooCore::issueLoad(std::uint64_t seq, const MemAccess &access,
                   Cycle now)
{
    l1d_.access(access, now, Completion::loadFill(this, seq));
}

inline void
OooCore::completeLoad(std::uint64_t seq, Cycle when)
{
    // Fired from the event queue at cycle `when`: a lazily-skipped
    // core first accounts the window under its pre-event block
    // reason, exactly as per-cycle stepping would have.
    if (when != 0)
        syncTo(when - 1);
    wake_dirty_ = true;
    RobSlot &slot = rob_[seq & rob_mask_];
    if (slot.seq != seq)
        throw SimError("core" + std::to_string(id_), when,
                       "load completion for ROB sequence " +
                           std::to_string(seq) +
                           " found slot holding sequence " +
                           std::to_string(slot.seq));
    slot.done = when < now_ + 1 ? now_ + 1 : when;
    if (lsq_used_ == 0)
        throw SimError("core" + std::to_string(id_), when,
                       "load completion with no LSQ entry held");
    --lsq_used_;
    if (!slot.deferred.empty()) {
        // Release the pointer chasers waiting on this load's data.
        const auto waiting = std::move(slot.deferred);
        slot.deferred.clear();
        const Cycle issue = when < now_ ? now_ : when;
        for (const auto &[dep_seq, access] : waiting)
            issueLoad(dep_seq, access, issue);
    }
}

inline void
OooCore::completeStore(Cycle when)
{
    // Account the skipped window against the pre-release block reason
    // before freeing the LSQ slot.
    if (when != 0)
        syncTo(when - 1);
    wake_dirty_ = true;
    if (lsq_used_ == 0)
        throw SimError("core" + std::to_string(id_), when,
                       "store completion with no LSQ entry held");
    --lsq_used_;
}

} // namespace bingo

#endif // BINGO_CORE_OOO_CORE_HPP
