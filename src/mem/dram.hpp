/**
 * @file
 * Analytic DRAM timing model: channels, banks, row buffers, and a data
 * bus with finite bandwidth.
 *
 * The model is computed-on-arrival rather than cycle-stepped: when a
 * request arrives, its completion time is derived from the target
 * bank's readiness, the row-buffer state, and the channel data bus's
 * next free slot. This captures the two behaviours the paper's
 * evaluation depends on — row-buffer locality (spatial prefetches hit
 * open rows) and the bandwidth wall (overpredicting prefetchers saturate
 * the bus and delay demand traffic) — without a full command scheduler.
 *
 * Scheduling: each bank serves its requests in arrival order, and each
 * channel has one data bus, also granted in arrival order. Banks of a
 * channel overlap their row accesses (bank-level parallelism). There
 * is no row-hit-first reordering and no queue is bounded: a request
 * waits as long as its bank and bus are committed. Since every
 * completion is known on arrival, the controller never has work of its
 * own pending; the run loop's fast-forward needs only the event queue,
 * which holds every read's completion.
 */

#ifndef BINGO_MEM_DRAM_HPP
#define BINGO_MEM_DRAM_HPP

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace bingo
{

/** Statistics exported by the DRAM model. */
struct DramStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_misses = 0;
    std::uint64_t row_conflicts = 0;   ///< Row miss that needed precharge.
    std::uint64_t bus_busy_cycles = 0; ///< Across all channels.
    std::uint64_t queue_delay_cycles = 0;

    double
    rowHitRate() const
    {
        const std::uint64_t total = row_hits + row_misses + row_conflicts;
        return total == 0 ? 0.0
                          : static_cast<double>(row_hits) /
                                static_cast<double>(total);
    }
};

/**
 * Visit every DramStats counter once, in declaration order, as
 * `visit(name, field)` (the field const when `stats` is): the one
 * counter list behind the journal's `dram` line and run.json.
 */
template <MaybeConst<DramStats> Stats, typename Visitor>
constexpr void
visitCounters(Stats &stats, Visitor &&visit)
{
    visit("reads", stats.reads);
    visit("writes", stats.writes);
    visit("row_hits", stats.row_hits);
    visit("row_misses", stats.row_misses);
    visit("row_conflicts", stats.row_conflicts);
    visit("bus_busy_cycles", stats.bus_busy_cycles);
    visit("queue_delay_cycles", stats.queue_delay_cycles);
}
static_assert(counterCount<DramStats>() * sizeof(std::uint64_t) ==
                  sizeof(DramStats),
              "visitCounters must name every DramStats counter");

/** Banked DRAM with per-channel data buses. */
class DramController
{
  public:
    explicit DramController(const DramConfig &config);

    /**
     * Issue a read for the block at `block_addr` arriving at `now`.
     * @return Absolute cycle at which the data is available on chip.
     */
    Cycle read(Addr block_addr, Cycle now);

    /**
     * Issue a writeback for `block_addr` at `now`. Writes consume bank
     * and bus time (pressuring reads) but nothing waits on them.
     */
    void write(Addr block_addr, Cycle now);

    const DramStats &stats() const { return stats_; }
    const DramConfig &config() const { return config_; }

    /** Reset timing state and statistics. */
    void reset();

    /**
     * Structural self-check (the BINGO_CHECK layer): channel/bank
     * geometry matches the config and the service counters satisfy
     * their identities (every request classified exactly once, bus
     * occupancy proportional to requests). Throws SimError on the
     * first violation.
     */
    void checkInvariants(Cycle now) const;

    /** Clear the counters but keep bank/bus timing state. */
    void resetStatsOnly() { stats_ = DramStats{}; }

    /** Report this controller's counters into `out` under "dram.". */
    void metrics(MetricMap &out) const { addCounters(out, "dram.", stats_); }

    /** Channel servicing `block_addr` (blocks interleave channels). */
    unsigned channelOf(Addr block_addr) const;
    /** Bank within the channel (row-interleaved across banks). */
    unsigned bankOf(Addr block_addr) const;
    /** DRAM row holding `block_addr`. */
    std::uint64_t rowOf(Addr block_addr) const;

  private:
    struct Bank
    {
        bool row_open = false;
        std::uint64_t open_row = 0;
        Cycle ready = 0;   ///< When the bank can accept a new command.
    };

    struct Channel
    {
        std::vector<Bank> banks;
        Cycle bus_free = 0;
    };

    /** Common service path for reads and writes. */
    Cycle service(Addr block_addr, Cycle now);

    DramConfig config_;
    std::vector<Channel> channels_;
    DramStats stats_;
};

} // namespace bingo

#endif // BINGO_MEM_DRAM_HPP
