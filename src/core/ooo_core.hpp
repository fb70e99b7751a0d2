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
 * The stream is made of records, and a non-memory record stands for
 * TraceRecord::count consecutive instructions of its type; windows,
 * `want` and `got` all count records. Where records begin and end is
 * part of the stream: a source yields the same records whatever
 * window sizes its reader asks for.
 *
 * borrowBatch() is the one read primitive: the source lends a window
 * of its next records. Sources that own their records (generator
 * bursts, a loaded trace file, a trace-cache chunk) lend that storage
 * in place. Layered sources that rewrite records (the interleaver,
 * address translation, chaos corruption) fill a window of their own
 * from the inner source and transform it there; filling it whole
 * hands a core reading a private generator windows of kWindowRecords
 * records rather than one per generator burst. next() and nextBatch()
 * are plain copies through borrowBatch().
 */
class TraceSource
{
  public:
    /// Records a core asks for per fetch, and the size of the window
    /// a transforming layer copies into. A core that skips a compute
    /// run still wakes where its window ends (the borrow must happen
    /// where the stepped core's does), so longer windows mean fewer
    /// wakes on compute-bound streams.
    static constexpr std::size_t kWindowRecords = 256;

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

    /**
     * Advance one cycle: retire, then dispatch. The per-cycle
     * reference of the model: BINGO_NO_SKIP steps every core through
     * every cycle, and syncTo() must reproduce it exactly.
     */
    void step(Cycle now);

    /**
     * Earliest cycle after `now` (the cycle just stepped) at which the
     * core does something another component can observe, assuming no
     * completion callback lands first (the run loop bounds the jump by
     * the event queue separately): it sends a load or store to the L1D
     * or defers a dependent load, it borrows the next trace window, or
     * it retires the last instruction of its quota. kNeverCycle when
     * only a callback can bring any of these (the ROB or LSQ is full
     * behind an in-flight load) or the quota is met. Every cycle
     * before it is compute or stall bookkeeping that syncTo() replays.
     * Conservative by contract: never later than the next such
     * action, and exact whenever the ROB has room for every record up
     * to it. Waking at the window end keeps the core borrowing at the
     * same stream positions as the stepped core.
     */
    Cycle nextWakeCycle(Cycle now) const;

    /**
     * Catch the core up through cycle `through` (no-op when its cursor
     * is already there), replaying each cycle exactly as step() would
     * have: retirement and non-memory dispatch at width, the cycle
     * count and the ROB-full/LSQ-full stall counters. The run loop
     * skips stepping a core whose nextWakeCycle() lies ahead, so the
     * core accounts the gap lazily: step() syncs before acting,
     * completion callbacks sync before mutating state, and the system
     * syncs every core before it reads core counters mid-phase.
     * Throws SimError if the window holds an action nextWakeCycle()
     * should have woken the core for.
     */
    void
    syncTo(Cycle through)
    {
        if (through > now_)
            replay(through);
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

    /**
     * One ROB entry. A load is an entry of its own, found again by its
     * sequence number when its fill lands. Every other instruction
     * (non-memory instructions, and stores, which retire without waiting
     * for the write) is ready a fixed alu_latency after dispatch, so
     * instructions dispatched back to back at full width form one
     * counted *timed run*: its i-th remaining instruction is ready at
     * done + (skip + i) / width, the quotient counting the dispatch
     * cycles since its first one.
     */
    struct RobEntry
    {
        std::uint64_t seq = 0;  ///< Entry sequence number.
        /// Ready cycle of the run's first dispatch cycle; a load's
        /// fill cycle, kNeverCycle while it is in flight.
        Cycle done = kNeverCycle;
        /// Dispatch slots of the first cycle before the oldest
        /// remaining instruction: its dispatch slot, plus every
        /// instruction retired from the front since.
        std::uint64_t skip = 0;
        std::uint64_t count = 0;  ///< Instructions in the entry.
        bool load = false;
        /// Dependent loads waiting for this load's data before issuing.
        std::vector<std::pair<std::uint64_t, MemAccess>> deferred;
    };

    void retire(Cycle now);
    void dispatch(Cycle now);

    /** The cycle-by-cycle catch-up behind syncTo(). */
    void replay(Cycle through);

    /**
     * Dispatch the next `count` non-memory instructions of the window
     * at full width from slot 0 of cycle `now` on (a replayed run).
     */
    void takeRun(Cycle now, std::uint64_t count);

    /**
     * Move the fetch cursor over up to `limit` non-memory instructions,
     * stopping at a memory record or the window end, and count the
     * branches among them. Returns the instructions passed.
     */
    std::uint64_t advanceCompute(std::uint64_t limit);

    /**
     * Add `count` instructions dispatched at cycle `now` from dispatch
     * slot `slot` on to the ROB tail: they extend the tail's timed run
     * when they continue its full-width cadence, and start a new run
     * otherwise.
     */
    void appendTimed(Cycle now, unsigned slot, std::uint64_t count);

    /** Count `n` retirements at cycle `now` against the quota. */
    void countRetired(unsigned n, Cycle now);

    /** Cycle the ROB head's oldest instruction is ready (kNeverCycle
     *  when the ROB is empty or the head is an in-flight load). */
    Cycle
    headReadyCycle() const
    {
        if (rob_head_ == rob_tail_)
            return kNeverCycle;
        const RobEntry &head = rob_[rob_head_ & rob_mask_];
        if (head.load || head.skip < config_.width)
            return head.done;
        return head.done + perWidth(head.skip);
    }

    /** nextWakeCycle() past its inline answers. */
    Cycle computeWake(Cycle now) const;

    /**
     * Non-memory instructions dispatch can take before it reaches the
     * next memory record or the end of the lent window.
     */
    std::uint64_t
    computeRunLength() const
    {
        if (!run_known_) {
            std::uint64_t run = 0;
            for (std::uint32_t pos = fetch_pos_;
                 pos < fetch_end_ && !isMemory(fetch_data_[pos].type);
                 ++pos)
                run += fetch_data_[pos].count;
            run_left_ = run - fetch_taken_;
            run_known_ = true;
        }
        return run_left_;
    }

    /**
     * Whether an in-flight load sits among the `n` oldest instructions
     * (those in the ROB now, then the ones dispatched after them): then
     * retirement cannot get through `n` instructions before its fill.
     */
    bool fillBlocks(std::uint64_t n) const;

    /** Instructions of `entry`, oldest first, ready by cycle `now`. */
    std::uint64_t readyIn(const RobEntry &entry, Cycle now) const;

    /**
     * Leading ROB instructions ready by cycle `now`, counted until
     * the first one that is not or until at least `enough`.
     */
    std::uint64_t readyPrefix(Cycle now, std::uint64_t enough) const;

    /** Retire the `n` oldest instructions without checks (a replayed
     *  steady flow that readyPrefix() vouched for). */
    void retireFront(std::uint64_t n);

    /** `n / width`, by shift when the width is a power of two. */
    std::uint64_t
    perWidth(std::uint64_t n) const
    {
        return width_shift_ >= 0 ? n >> width_shift_ : n / config_.width;
    }

    /**
     * Fill arrived for ROB entry `seq`: mark it complete, free its LSQ
     * entry and release any dependent loads. Defined inline below — it
     * is the LoadFill branch of the typed completion dispatch, invoked
     * once per load miss/hit from the cache layer.
     */
    void completeLoad(std::uint64_t seq, Cycle when);

    /**
     * Store write-completion: free the LSQ entry modelling the store
     * buffer. The StoreRelease branch of the typed completion
     * dispatch; inline below.
     */
    void completeStore(Cycle when);

    /**
     * A completion landing at `when`: throw unless the core has yet to
     * account that cycle, then replay up to the cycle before it so the
     * skipped window is counted under its pre-event state.
     */
    void syncForCompletion(Cycle when, const char *what);

    /** Send a load to the L1D, completing its ROB entry on fill. */
    void issueLoad(std::uint64_t seq, const MemAccess &access,
                   Cycle now);

    CoreId id_;
    CoreConfig config_;
    Cache &l1d_;
    TraceSource &trace_;
    /// log2(width) when the width is a power of two, else -1.
    int width_shift_ = -1;

    /// ROB entries, sized to the next power of two above the configured
    /// capacity so indexing is a mask. Every entry holds at least one
    /// instruction and occupancy is bounded by rob_capacity_, so
    /// seq & rob_mask_ never aliases a live entry.
    std::vector<RobEntry> rob_;
    std::uint64_t rob_mask_ = 0;      ///< rob_.size() - 1.
    std::uint64_t rob_capacity_ = 0;  ///< Configured logical capacity.
    std::uint64_t rob_head_ = 0;  ///< Sequence number of oldest entry.
    std::uint64_t rob_tail_ = 0;  ///< Sequence number of next entry.
    std::uint64_t rob_count_ = 0;  ///< Instructions in the ROB.
    unsigned lsq_used_ = 0;
    std::uint64_t last_load_seq_ = 0;
    bool has_last_load_ = false;
    /// Fetch window the trace lent on the last borrowBatch() call;
    /// valid until the next one.
    const TraceRecord *fetch_data_ = nullptr;
    std::uint32_t fetch_pos_ = 0;  ///< Next unconsumed window slot.
    std::uint32_t fetch_end_ = 0;  ///< One past the last valid slot.
    /// Instructions of the compute record at fetch_pos_ already
    /// dispatched: the sub-record cursor.
    std::uint32_t fetch_taken_ = 0;
    /// Dispatch reached fetch_data_[fetch_pos_] but could not place
    /// it: always a memory record blocked on a full LSQ.
    bool record_held_ = false;
    /// Cache of computeRunLength(), found by a lazy scan and counted
    /// down as the cursor passes compute instructions. Only a new
    /// window or a memory dispatch drops it, so each record is
    /// scanned about once.
    mutable std::uint64_t run_left_ = 0;
    mutable bool run_known_ = false;

    /// A completion callback arrived since the last step (see
    /// wakeDirty()). Starts true so a fresh core is always stepped.
    bool wake_dirty_ = true;

    CoreStats stats_;
    std::uint64_t measure_target_ = 0;
    Cycle measure_start_cycle_ = 0;
    Cycle completion_cycle_ = 0;
    bool measurement_done_ = false;
    /// Last cycle the core has accounted (stepped or replayed).
    Cycle now_ = 0;
};

inline Cycle
OooCore::nextWakeCycle(Cycle now) const
{
    // A finished core only reacts to in-flight completions, which live
    // in the event queue.
    if (measurement_done_)
        return kNeverCycle;
    // Inline, the answers that need no look ahead. Dispatch blocked
    // (full ROB, or a memory record held on a full LSQ) behind a head
    // not ready next cycle: nothing happens before the head is ready,
    // and an in-flight head waits for its fill. Otherwise, with a
    // memory record or the window end less than two dispatch cycles
    // away, step next cycle: replaying a single skipped cycle costs
    // what stepping it does. (Early wakes are always allowed.)
    const bool held_on_lsq =
        record_held_ && lsq_used_ >= config_.lsq_entries;
    if (rob_count_ == rob_capacity_ || held_on_lsq) {
        const Cycle ready = headReadyCycle();
        if (ready > now + 1)
            return ready;
    }
    if (record_held_ || computeRunLength() < 2 * config_.width)
        return now + 1;
    return computeWake(now);
}

inline void
OooCore::issueLoad(std::uint64_t seq, const MemAccess &access,
                   Cycle now)
{
    l1d_.access(access, now, Completion::loadFill(this, seq));
}

inline void
OooCore::syncForCompletion(Cycle when, const char *what)
{
    // Fired from the event queue at cycle `when`, which the run loop
    // reaches before it steps any core there: a core that already
    // accounted `when` was jumped past an event.
    if (when <= now_)
        throw SimError("core" + std::to_string(id_), when,
                       std::string(what) +
                           " completion landed after the core "
                           "accounted through cycle " +
                           std::to_string(now_));
    syncTo(when - 1);
    wake_dirty_ = true;
}

inline void
OooCore::completeLoad(std::uint64_t seq, Cycle when)
{
    syncForCompletion(when, "load");
    RobEntry &entry = rob_[seq & rob_mask_];
    if (entry.seq != seq || !entry.load)
        throw SimError("core" + std::to_string(id_), when,
                       "load completion for ROB entry " +
                           std::to_string(seq) +
                           " found entry " +
                           std::to_string(entry.seq) +
                           (entry.load ? "" : " (not a load)"));
    entry.done = when;
    if (lsq_used_ == 0)
        throw SimError("core" + std::to_string(id_), when,
                       "load completion with no LSQ entry held");
    --lsq_used_;
    if (!entry.deferred.empty()) {
        // Release the pointer chasers waiting on this load's data.
        const auto waiting = std::move(entry.deferred);
        entry.deferred.clear();
        for (const auto &[dep_seq, access] : waiting)
            issueLoad(dep_seq, access, when);
    }
}

inline void
OooCore::completeStore(Cycle when)
{
    syncForCompletion(when, "store");
    if (lsq_used_ == 0)
        throw SimError("core" + std::to_string(id_), when,
                       "store completion with no LSQ entry held");
    --lsq_used_;
}

} // namespace bingo

#endif // BINGO_CORE_OOO_CORE_HPP
