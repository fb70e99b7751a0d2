/**
 * @file
 * Workload-generation framework.
 *
 * The paper evaluates on CloudSuite server traces and SPEC CPU2006
 * mixes that are not publicly redistributable; per DESIGN.md we
 * substitute synthetic generators that reproduce each application's
 * documented memory behaviour. Three building blocks live here:
 *
 *  - BurstSource: a TraceSource that produces records in bursts
 *    ("transactions" such as one record visit or one pointer chase);
 *    subclasses implement refill().
 *  - InterleavedSource: round-robins several sub-sources, modelling a
 *    server core switching between concurrent requests. This is what
 *    breaks global delta locality for SHH prefetchers while leaving
 *    per-page footprints intact — the paper's Section VI-B observation.
 *  - The workload registry mapping the paper's Table II names to
 *    per-core trace sources.
 */

#ifndef BINGO_WORKLOAD_GENERATOR_HPP
#define BINGO_WORKLOAD_GENERATOR_HPP

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/ooo_core.hpp"

namespace bingo
{

/** TraceSource producing records burst-by-burst. */
class BurstSource : public TraceSource
{
  public:
    explicit BurstSource(std::uint64_t seed) : rng_(seed) {}

    /** Lends the rest of the pending burst, refilling it when spent. */
    const TraceRecord *
    borrowBatch(std::size_t want, std::size_t &got) override
    {
        while (head_ >= queue_.size()) {
            queue_.clear();
            head_ = 0;
            refill();
        }
        got = std::min(want, queue_.size() - head_);
        const TraceRecord *window = queue_.data() + head_;
        head_ += got;
        return window;
    }

  protected:
    /** Produce the next burst; must emit at least one record. */
    virtual void refill() = 0;

    void
    emit(const TraceRecord &rec)
    {
        queue_.push_back(rec);
    }

    void
    emitLoad(Addr pc, Addr addr)
    {
        queue_.push_back(TraceRecord{pc, addr, InstrType::Load});
    }

    /** Load that dereferences the previous load's data (serializing). */
    void
    emitDependentLoad(Addr pc, Addr addr)
    {
        queue_.push_back(
            TraceRecord{pc, addr, InstrType::Load, /*dependent=*/true});
    }

    void
    emitStore(Addr pc, Addr addr)
    {
        queue_.push_back(TraceRecord{pc, addr, InstrType::Store});
    }

    /** Emit `count` non-memory instructions as one counted record. */
    void
    emitAlu(unsigned count)
    {
        if (count > 0) {
            queue_.push_back(
                TraceRecord{kAluPc, 0, InstrType::Alu, false, count});
        }
    }

    Rng rng_;

  private:
    /// Synthetic PC of compute records (nothing reads a non-memory PC).
    static constexpr Addr kAluPc = 0x7f0000;

    /// Pending burst, consumed from `head_` and compacted when empty —
    /// a flat vector beats a deque on the per-record hot path.
    std::vector<TraceRecord> queue_;
    std::size_t head_ = 0;
};

/**
 * Round-robin interleaver over several sub-sources, switching after a
 * random run length of instructions. Models concurrent request
 * handling.
 *
 * A run can end inside a counted compute record: the record is split
 * and its rest waits in its sub-stream for the next run there. Pieces
 * are then merged, so every compute record the interleaver hands out
 * is a maximal run of one type (up to kMaxMergedCount instructions).
 * Record boundaries so depend only on the instruction stream, never on
 * the window sizes a reader asks for.
 */
class InterleavedSource : public TraceSource
{
  public:
    /// Instructions merged into one compute record at most, which
    /// bounds the look-ahead on a stream of compute only.
    static constexpr std::uint32_t kMaxMergedCount = 1u << 16;
    /// Records one borrow lends at most; the layers above fill their
    /// own windows over several borrows. With a kWindowRecords window
    /// here (6 KB per core), perfbench cold-compute's setup_s read
    /// 1.10x, slower in 10 of 10 pairs, as more of its samples landed
    /// in their slow mode; construction alone timed no slower, and
    /// the cause is not known.
    static constexpr std::size_t kMergeWindowRecords = 32;

    /**
     * @param sources Sub-streams to interleave.
     * @param min_run,max_run Instructions taken from one sub-stream
     *        before switching.
     * @param strict Strict round-robin instead of random selection.
     *        Random selection lets sub-stream progress drift apart (a
     *        random walk), which is right for independent requests;
     *        strict alternation bounds the skew, which is right for
     *        lock-stepped phases of one computation (e.g. em3d's E/H
     *        sweeps).
     */
    InterleavedSource(std::vector<std::unique_ptr<TraceSource>> sources,
                      unsigned min_run, unsigned max_run,
                      std::uint64_t seed, bool strict = false);

    /**
     * Fills a window of its own with merged records. A compute record
     * is complete once the piece after it is known, so the source
     * reads one piece ahead after each.
     */
    const TraceRecord *borrowBatch(std::size_t want,
                                   std::size_t &got) override;

  private:
    /** One sub-stream and the unread part of the window it lent. */
    struct Lane
    {
        std::unique_ptr<TraceSource> source;
        const TraceRecord *window = nullptr;
        std::size_t pos = 0;
        std::size_t end = 0;
        /// Instructions of window[pos] already handed out.
        std::uint32_t taken = 0;
    };

    /**
     * The next piece of the interleaved stream: the current run's
     * sub-stream's next record, clipped at the run's end. Draws the
     * next run when the current one is spent.
     */
    TraceRecord nextPiece();

    std::vector<Lane> lanes_;
    unsigned min_run_;
    unsigned max_run_;
    Rng rng_;
    bool strict_;
    std::size_t current_ = 0;
    unsigned remaining_ = 0;
    /// The piece read ahead past the last compute record handed out;
    /// count 0 when there is none.
    TraceRecord ahead_{0, 0, InstrType::Alu, false, 0};
    std::array<TraceRecord, kMergeWindowRecords> window_;
};

/**
 * A spatial "record class": the fixed field layout objects of one type
 * share. Visiting a record of class c touches the class's offsets in
 * order with the class's PC sequence — this is what makes footprints
 * recur across regions (spatial correlation).
 */
struct RecordClass
{
    std::vector<unsigned> field_offsets;  ///< First is the trigger.
    std::vector<Addr> field_pcs;          ///< Same length as offsets.

    /**
     * Build `count` classes over `region_blocks`-block regions.
     *
     * Classes are distributed over `trigger_sites` trigger events (a
     * site = one PC+Offset pair, i.e. one code location that first
     * touches a record). With fewer sites than classes the short
     * PC+Offset event is ambiguous — several footprints hide behind
     * it — while the long PC+Address event still disambiguates
     * revisited regions. This is exactly the regime the paper's
     * motivation (Section III) describes. With trigger_sites == count
     * every class has a private trigger and the events mostly agree.
     *
     * @param min_fields,max_fields Footprint density range.
     */
    static std::vector<RecordClass>
    makeClasses(unsigned count, unsigned trigger_sites,
                unsigned region_blocks, unsigned min_fields,
                unsigned max_fields, Rng &rng);
};

/** Names of the paper's ten workloads (Table II order). */
const std::vector<std::string> &workloadNames();

/**
 * Additional temporal-locality workloads (not part of Table II — the
 * frozen list above keeps existing sweep journals stable). Reachable
 * through makeWorkload() like any other name.
 */
const std::vector<std::string> &temporalWorkloadNames();

/** One-line description of a workload (Table II). */
std::string workloadDescription(const std::string &name);

/**
 * Trace source for `workload` on core `core`. Server workloads run the
 * same application on every core (different seeds); mixes run one SPEC
 * kernel per core.
 */
std::unique_ptr<TraceSource> makeWorkload(const std::string &workload,
                                          CoreId core,
                                          std::uint64_t seed);

/** Names of the individual SPEC kernels used by the mixes. */
const std::vector<std::string> &specKernelNames();

/** Instantiate one SPEC kernel by name (tests/examples). */
std::unique_ptr<TraceSource> makeSpecKernel(const std::string &name,
                                            std::uint64_t seed);

} // namespace bingo

#endif // BINGO_WORKLOAD_GENERATOR_HPP
