/**
 * @file
 * Spatial footprint: a bit vector over the blocks of one region.
 *
 * A footprint records which cache blocks of a spatial region were touched
 * during one page generation. Regions hold at most 64 blocks (4 KB at
 * 64 B blocks), so one machine word suffices; the logical width is kept
 * so footprints of different region sizes never compare equal by
 * accident.
 */

#ifndef BINGO_COMMON_FOOTPRINT_HPP
#define BINGO_COMMON_FOOTPRINT_HPP

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace bingo
{

/** Bit vector over the blocks of a spatial region. */
class Footprint
{
  public:
    /** Construct an empty footprint of `width` blocks (<= 64). */
    explicit Footprint(unsigned width = kBlocksPerRegion);

    /** Number of blocks this footprint covers. */
    unsigned width() const { return width_; }

    /** Mark block `offset` as touched. */
    void set(unsigned offset);

    /** Clear block `offset`. */
    void clear(unsigned offset);

    /** Whether block `offset` is marked. */
    bool test(unsigned offset) const;

    /** Number of marked blocks. */
    unsigned count() const { return std::popcount(bits_); }

    /** True when no block is marked. */
    bool empty() const { return bits_ == 0; }

    /** Remove all marks. */
    void reset() { bits_ = 0; }

    /** Raw bits, LSB = block 0. */
    std::uint64_t raw() const { return bits_; }

    /** Build from raw bits (masked to the footprint width). */
    static Footprint fromRaw(std::uint64_t bits,
                             unsigned width = kBlocksPerRegion);

    /** Offsets of all marked blocks in ascending order. */
    std::vector<unsigned> offsets() const;

    /** Bitwise AND: blocks present in both footprints. */
    Footprint operator&(const Footprint &other) const;

    /** Bitwise OR: blocks present in either footprint. */
    Footprint operator|(const Footprint &other) const;

    bool operator==(const Footprint &other) const = default;

    /**
     * Number of marked blocks also marked in `actual` — the "useful"
     * part of a predicted footprint.
     */
    unsigned overlap(const Footprint &actual) const;

    /** Render as a 0/1 string, block 0 first (debugging aid). */
    std::string toString() const;

  private:
    std::uint64_t bits_ = 0;
    unsigned width_;
};

/**
 * Footprint vote accumulator: given several matching history entries,
 * counts per-block popularity and extracts the blocks present in at
 * least `threshold` (fraction) of the entries — the paper's 20 % rule.
 */
class FootprintVote
{
  public:
    explicit FootprintVote(unsigned width = kBlocksPerRegion);

    /** Add one matching entry's footprint to the tally. */
    void add(const Footprint &fp);

    /** Number of footprints added so far. */
    unsigned voters() const { return voters_; }

    /**
     * Blocks present in at least ceil(threshold * voters) entries.
     * A threshold of 0 returns the union of all votes.
     */
    Footprint resolve(double threshold) const;

  private:
    std::vector<std::uint16_t> counts_;
    unsigned voters_ = 0;
    unsigned width_;
};

} // namespace bingo

#endif // BINGO_COMMON_FOOTPRINT_HPP
