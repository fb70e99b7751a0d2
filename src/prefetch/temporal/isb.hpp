/**
 * @file
 * Irregular Stream Buffer (Jain & Lin, MICRO 2013), simplified to the
 * SISB form the ChampSim competitions use.
 *
 * ISB linearizes temporally-correlated miss streams: each PC owns a
 * *structural* address space, allocated in fixed chunks, in which the
 * blocks it touches consecutively receive consecutive structural
 * addresses. Two mapping caches translate both ways — PS (physical
 * block -> structural address) and SP (structural address -> physical
 * block). On an access, the trigger block's structural address is
 * looked up in PS and the next `degree` structural slots are
 * translated back through SP into prefetch candidates, which follows
 * the learned stream even though the physical blocks are scattered.
 *
 * New PS/SP mappings are gated by the Triangel-style MetadataFilter: a
 * pair must recur in the sample filter before it may claim a mapping
 * entry, so one-shot traffic cannot evict trained streams.
 */

#ifndef BINGO_PREFETCH_TEMPORAL_ISB_HPP
#define BINGO_PREFETCH_TEMPORAL_ISB_HPP

#include "common/table.hpp"
#include "prefetch/prefetcher.hpp"
#include "prefetch/temporal/metadata_filter.hpp"

namespace bingo
{

/** ISB/SISB-style temporal stream prefetcher. */
class IsbPrefetcher : public Prefetcher
{
  public:
    explicit IsbPrefetcher(const PrefetcherConfig &config);

    void onAccess(const PrefetchAccess &access,
                  std::vector<Addr> &out) override;
    void perturbMetadata(Rng &rng) override;

    std::string name() const override { return "ISB"; }

    /** Occupancies (tests/diagnostics). */
    std::size_t psOccupancy() const { return ps_.occupancy(); }
    std::size_t spOccupancy() const { return sp_.occupancy(); }
    std::size_t filterOccupancy() const
    {
        return filter_.occupancy();
    }

    /** Structural address of `block`, or 0 when unmapped (tests). */
    std::uint64_t structuralOf(Addr block);

  private:
    /** Structural addresses per stream chunk. */
    static constexpr std::uint64_t kChunkBlocks = 256;
    static constexpr std::size_t kWays = 8;

    struct TrainingEntry
    {
        Addr last_block = 0;  ///< Previous block this PC touched.
    };

    struct PsEntry
    {
        std::uint64_t structural = 0;
        std::uint8_t conf = 0;  ///< Remap hysteresis (2-bit).
    };

    struct SpEntry
    {
        Addr block = 0;
    };

    /** Record that `prev` was followed by `next` in one PC's stream. */
    void trainPair(Addr prev, Addr next);

    /** Install the PS+SP pair for (block, structural). */
    void installMapping(Addr block, std::uint64_t structural);

    SetAssocTable<TrainingEntry> training_;
    SetAssocTable<PsEntry> ps_;
    SetAssocTable<SpEntry> sp_;
    MetadataFilter filter_;
    /// Next unallocated stream chunk; structural addresses start at 1
    /// so 0 can mean "unmapped".
    std::uint64_t next_chunk_ = 1;
    unsigned degree_;

    CachedStat trains_stat_;
    CachedStat chunk_allocs_stat_;
    CachedStat remaps_stat_;
    CachedStat filter_rejects_stat_;
    CachedStat predictions_stat_;
};

} // namespace bingo

#endif // BINGO_PREFETCH_TEMPORAL_ISB_HPP
