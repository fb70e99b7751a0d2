/**
 * @file
 * Random first-touch virtual-to-physical translation (paper Section V:
 * "virtual to physical address mapping is accomplished through a
 * random first-touch translation mechanism").
 *
 * Workload generators emit virtual addresses with highly regular
 * layout (arrays at aligned bases, one heap per core). Without
 * translation those regularities alias in the physically-indexed LLC
 * and, worse, in the DRAM bank/row mapping: lock-stepped cores whose
 * heaps sit at multiples of 4 TB pound the same bank numbers. The
 * translator scrambles the OS-page number with a seeded hash —
 * statistically equivalent to assigning a random physical frame on
 * first touch — while preserving contiguity inside each 4 KB page, so
 * 2 KB spatial regions survive intact, exactly as they would under a
 * real OS.
 */

#ifndef BINGO_SIM_TRANSLATION_HPP
#define BINGO_SIM_TRANSLATION_HPP

#include <algorithm>
#include <array>
#include <memory>

#include "common/hash.hpp"
#include "common/types.hpp"
#include "core/ooo_core.hpp"

namespace bingo
{

/** Page-granularity virtual-to-physical scrambler. */
class AddressTranslator
{
  public:
    explicit AddressTranslator(std::uint64_t seed)
        : salt_(mix64(seed ^ 0x7ea51a7e))
    {
    }

    /** Physical address of virtual `addr` (page offset preserved). */
    Addr
    translate(Addr addr) const
    {
        const Addr vpage = addr >> kOsPageBits;
        // 38 bits of physical page number (1 PB of physical space):
        // collisions across even billions of touched pages are
        // negligible, and a rare collision merely aliases two pages.
        const Addr ppage =
            mix64(vpage ^ salt_) & ((1ULL << 38) - 1);
        return (ppage << kOsPageBits) | (addr & (kOsPageSize - 1));
    }

  private:
    std::uint64_t salt_;
};

/** TraceSource adapter translating every memory record. */
class TranslatingSource : public TraceSource
{
  public:
    TranslatingSource(std::unique_ptr<TraceSource> inner,
                      const AddressTranslator &translator)
        : inner_(std::move(inner)), translator_(translator)
    {
    }

    /** Fills its own window from the inner source and translates it. */
    const TraceRecord *
    borrowBatch(std::size_t want, std::size_t &got) override
    {
        got = std::min(want, window_.size());
        inner_->nextBatch(window_.data(), got);
        for (std::size_t i = 0; i < got; ++i) {
            TraceRecord &rec = window_[i];
            if (isMemory(rec.type))
                rec.addr = translator_.translate(rec.addr);
        }
        return window_.data();
    }

  private:
    std::unique_ptr<TraceSource> inner_;
    std::array<TraceRecord, kWindowRecords> window_;
    /// By value (one 8-byte salt): the source outlives any System
    /// member when it feeds a generation-time chain inside the trace
    /// cache, so it cannot borrow the translator by reference.
    AddressTranslator translator_;
};

} // namespace bingo

#endif // BINGO_SIM_TRANSLATION_HPP
