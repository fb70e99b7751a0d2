/**
 * @file
 * Global event queue driving the cycle-stepped simulation.
 *
 * Components schedule Completion records at absolute cycles; the
 * system loop drains all events due at the current cycle before
 * stepping the cores, so memory completions are visible to the core in
 * the cycle they occur. Each event fires with the cycle it was
 * scheduled for, and events scheduled for the same cycle fire in
 * insertion order.
 *
 * Storage is a timing wheel: a ring of per-cycle FIFO buckets covering
 * the near future, with a binary heap as overflow for events beyond
 * the ring. Nearly every event in this simulator completes within a
 * few hundred cycles (hit latencies, fills, DRAM bursts), so the hot
 * path is a bucket append and an in-order drain instead of two
 * O(log n) heap sifts. Buckets keep their capacity across drains, so
 * a steady-state run schedules without allocating. A two-level
 * occupancy bitmap makes nextEventCycle() and the post-drain rescan
 * O(1).
 */

#ifndef BINGO_COMMON_EVENT_QUEUE_HPP
#define BINGO_COMMON_EVENT_QUEUE_HPP

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "cache/completion.hpp"
#include "common/types.hpp"

namespace bingo
{

/** Timing wheel with heap overflow; fires in time then FIFO order. */
class EventQueue
{
  public:
    EventQueue() : slots_(kWheelSlots) {}

    /** Fire `done(when)` at cycle `when` (must not be in the past). */
    void
    schedule(Cycle when, Completion done)
    {
        if (when >= cursor_ && when - cursor_ < kWheelSlots) {
            const std::size_t slot = when & kWheelMask;
            slots_[slot].push_back(std::move(done));
            bitmap_[slot >> 6] |= 1ULL << (slot & 63);
            summary_ |= 1ULL << (slot >> 6);
            ++wheel_count_;
            if (when < wheel_min_)
                wheel_min_ = when;
        } else {
            // Beyond the ring (or behind the cursor, which unit tests
            // exercise after draining ahead): the heap handles any
            // cycle. Wheel events at a given cycle are always younger
            // than heap events at that cycle — a heap insert of cycle
            // c happened while cursor <= c - kWheelSlots, a wheel
            // insert while cursor > c - kWheelSlots, and the cursor
            // never decreases — so draining heap-before-wheel within
            // a cycle preserves global FIFO order exactly.
            heap_.push(Event{when, seq_++, std::move(done)});
        }
    }

    /** Run every event with cycle <= `now`, in time then FIFO order. */
    void
    runDue(Cycle now)
    {
        while (true) {
            const Cycle next = nextEventCycle();
            if (next > now)
                break;
            // `<= next` rather than `== next` also retires any
            // events sitting behind the cursor in one pass.
            while (!heap_.empty() && heap_.top().when <= next) {
                // Moving out of the priority queue top is safe
                // because the element is popped immediately after.
                Event event = std::move(const_cast<Event &>(heap_.top()));
                heap_.pop();
                event.done(event.when);
            }
            if (wheel_min_ == next)
                drainSlot(next);
        }
        if (now > cursor_)
            cursor_ = now;
    }

    /**
     * Cycle of the earliest pending event; kNeverCycle when empty.
     * This is the event half of the fast-forward contract: the run
     * loop may jump straight to this cycle when every other component
     * reports a later (or no) next step of its own.
     */
    Cycle
    nextEventCycle() const
    {
        const Cycle heap_next =
            heap_.empty() ? kNeverCycle : heap_.top().when;
        return wheel_min_ < heap_next ? wheel_min_ : heap_next;
    }

    bool empty() const { return wheel_count_ == 0 && heap_.empty(); }
    std::size_t size() const { return wheel_count_ + heap_.size(); }

  private:
    /// Ring span in cycles. Covers hit latencies, fills and DRAM
    /// bursts including queueing; the rare completion scheduled
    /// further out takes the heap path.
    static constexpr std::size_t kWheelSlots = 4096;
    static constexpr std::size_t kWheelMask = kWheelSlots - 1;
    static constexpr std::size_t kWords = kWheelSlots / 64;

    struct Event
    {
        Cycle when;
        std::uint64_t seq;
        Completion done;

        bool
        operator>(const Event &other) const
        {
            return when != other.when ? when > other.when
                                      : seq > other.seq;
        }
    };

    /** Fire bucket `c` in FIFO order, then recompute wheel_min_. */
    void
    drainSlot(Cycle c)
    {
        std::vector<Completion> &slot = slots_[c & kWheelMask];
        // Index loop: an event scheduling back into this same cycle
        // appends behind the iteration point and still fires now,
        // matching heap semantics. Each record is moved out first
        // because that append may reallocate the bucket.
        for (std::size_t i = 0; i < slot.size(); ++i) {
            Completion done = std::move(slot[i]);
            done(c);
        }
        wheel_count_ -= slot.size();
        slot.clear();
        const std::size_t s = c & kWheelMask;
        bitmap_[s >> 6] &= ~(1ULL << (s & 63));
        if (bitmap_[s >> 6] == 0)
            summary_ &= ~(1ULL << (s >> 6));
        wheel_min_ =
            wheel_count_ == 0 ? kNeverCycle : nextOccupied(c + 1);
    }

    /**
     * Earliest occupied wheel cycle at or after `base`; every live
     * wheel event lies within [base, base + kWheelSlots), so the slot
     * found in circular order from `base` maps back uniquely.
     */
    Cycle
    nextOccupied(Cycle base) const
    {
        const std::size_t s0 = base & kWheelMask;
        const std::size_t w0 = s0 >> 6;
        // First word, bits at or above the start slot.
        std::uint64_t word = bitmap_[w0] & (~0ULL << (s0 & 63));
        std::size_t w = w0;
        if (word == 0) {
            // Two-level hop: summary bit per word, rotated so the
            // search starts just past w0 and wraps around to it.
            // wheel_count_ > 0 guarantees summary_ (hence rot) != 0.
            const std::size_t k = (w0 + 1) & (kWords - 1);
            const std::uint64_t rot =
                (summary_ >> k) |
                (summary_ << ((kWords - k) & (kWords - 1)));
            w = (k + static_cast<std::size_t>(__builtin_ctzll(rot))) &
                (kWords - 1);
            word = bitmap_[w];
        }
        const std::size_t s =
            (w << 6) +
            static_cast<std::size_t>(__builtin_ctzll(word));
        return base + ((s - s0) & kWheelMask);
    }

    std::vector<std::vector<Completion>> slots_;
    std::array<std::uint64_t, kWords> bitmap_{};
    std::uint64_t summary_ = 0;
    std::size_t wheel_count_ = 0;
    /// Exact earliest wheel cycle (kNeverCycle when the ring is
    /// empty): kept on every insert, recomputed after every drain.
    Cycle wheel_min_ = kNeverCycle;
    /// High-water mark of runDue(): wheel inserts are admitted in
    /// [cursor_, cursor_ + kWheelSlots). Never decreases.
    Cycle cursor_ = 0;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
    std::uint64_t seq_ = 0;
};

} // namespace bingo

#endif // BINGO_COMMON_EVENT_QUEUE_HPP
