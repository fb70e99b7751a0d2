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

    /** Emit `count` non-memory instructions at synthetic PCs. */
    void
    emitAlu(unsigned count)
    {
        for (unsigned i = 0; i < count; ++i) {
            queue_.push_back(
                TraceRecord{kAluPcBase + (alu_pc_++ & 0xff) * 4, 0,
                            InstrType::Alu});
        }
    }

    Rng rng_;

  private:
    static constexpr Addr kAluPcBase = 0x7f0000;

    /// Pending burst, consumed from `head_` and compacted when empty —
    /// a flat vector beats a deque on the per-record hot path.
    std::vector<TraceRecord> queue_;
    std::size_t head_ = 0;
    std::uint64_t alu_pc_ = 0;
};

/**
 * Round-robin interleaver over several sub-sources, switching after a
 * random run length. Models concurrent request handling.
 */
class InterleavedSource : public TraceSource
{
  public:
    /**
     * @param sources Sub-streams to interleave.
     * @param min_run,max_run Records taken from one sub-stream before
     *        switching.
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
     * Lends a window of the current sub-stream, clipped at the end of
     * its run; run selection draws happen when the next record is
     * needed, exactly as record-by-record reading would draw them.
     */
    const TraceRecord *borrowBatch(std::size_t want,
                                   std::size_t &got) override;

  private:
    std::vector<std::unique_ptr<TraceSource>> sources_;
    unsigned min_run_;
    unsigned max_run_;
    Rng rng_;
    bool strict_;
    std::size_t current_ = 0;
    unsigned remaining_ = 0;
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
