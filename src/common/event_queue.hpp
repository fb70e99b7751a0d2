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
 * Storage is one binary heap ordered by (cycle, insertion number). A
 * timing wheel in front of it did not pay on any perfbench workload
 * (EXPERIMENTS.md, "Lever audit").
 */

#ifndef BINGO_COMMON_EVENT_QUEUE_HPP
#define BINGO_COMMON_EVENT_QUEUE_HPP

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

/** Binary heap of completions; fires in time then FIFO order. */
class EventQueue
{
  public:
    /**
     * Fire `done(when)` at cycle `when`. A cycle that runDue() has
     * already passed fires at the next runDue(), still with `when`.
     */
    void
    schedule(Cycle when, Completion done)
    {
        heap_.push(Event{when, seq_++, std::move(done)});
    }

    /** Run every event with cycle <= `now`, in time then FIFO order. */
    void
    runDue(Cycle now)
    {
        while (!heap_.empty() && heap_.top().when <= now) {
            // Moving out of the priority queue top is safe because
            // the element is popped before the completion runs (and
            // perhaps schedules more events).
            Event event = std::move(const_cast<Event &>(heap_.top()));
            heap_.pop();
            event.done(event.when);
        }
    }

    /**
     * Cycle of the earliest pending event; kNeverCycle when empty.
     * This is the event half of the fast-forward contract: the run
     * loop may jump straight to this cycle when every core reports a
     * later (or no) wake of its own.
     */
    Cycle
    nextEventCycle() const
    {
        return heap_.empty() ? kNeverCycle : heap_.top().when;
    }

    bool empty() const { return heap_.empty(); }
    std::size_t size() const { return heap_.size(); }

  private:
    struct Event
    {
        Cycle when;
        std::uint64_t seq;  ///< Insertion number: FIFO within a cycle.
        Completion done;

        bool
        operator>(const Event &other) const
        {
            return when != other.when ? when > other.when
                                      : seq > other.seq;
        }
    };

    std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
    std::uint64_t seq_ = 0;
};

} // namespace bingo

#endif // BINGO_COMMON_EVENT_QUEUE_HPP
