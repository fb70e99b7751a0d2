/**
 * @file
 * Miss Status Holding Registers: track outstanding misses per block and
 * merge secondary misses into the primary's entry.
 *
 * Storage is a fixed-capacity slot pool with a dense block-key array:
 * the file's capacity is a hardware parameter known at construction,
 * so entries live in a preallocated slot vector (references stay valid
 * until release, as before) and lookups scan the packed key array
 * instead of hashing — at MSHR sizes (16-64) the scan touches a few
 * cache lines and beats the hash map it replaced, while
 * allocation/release become a free-stack push/pop. A released slot is
 * reset to an empty entry, so each miss's callback vector allocates
 * afresh: a pool recycling their capacity did not pay on any
 * perfbench workload (EXPERIMENTS.md, "Lever audit").
 *
 * Structural violations (allocation past capacity, release of an
 * absent entry or a free slot) throw SimError with the owning
 * component's name and the simulated cycle, and hold in release builds
 * too. The duplicate-allocation scan runs only under
 * BINGO_CHECK: every caller probes find() immediately beforehand, and
 * checkInvariants() sweeps the file for duplicates periodically.
 */

#ifndef BINGO_CACHE_MSHR_HPP
#define BINGO_CACHE_MSHR_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "cache/completion.hpp"
#include "common/types.hpp"

namespace bingo
{

/**
 * A completion parked on an in-flight miss. The owning cache accounts
 * `fill - start` of demand miss latency before invoking `fn` when
 * `track` is set.
 */
struct MshrCallback
{
    FillCallback fn;
    Cycle start = 0;
    bool track = false;  ///< Accrue demand miss latency at fill time.

    /// Untracked completion (replayed demands, tests).
    MshrCallback(FillCallback f) : fn(std::move(f)) {}
    /// Latency-tracked demand that missed at cycle `s`.
    MshrCallback(FillCallback f, Cycle s)
        : fn(std::move(f)), start(s), track(true)
    {
    }
};

/** One in-flight miss. */
struct MshrEntry
{
    Addr block = 0;
    bool prefetch_origin = false;  ///< Allocated by a prefetch request.
    bool demand_merged = false;    ///< A demand joined after allocation.
    bool store_merged = false;     ///< Fill must be installed dirty.
    CoreId core = 0;               ///< Core that allocated the entry.
    std::vector<MshrCallback> callbacks;
};

/** Fixed-capacity file of MshrEntry keyed by block address. */
class MshrFile
{
  public:
    /** Throws std::invalid_argument when `capacity` is zero. */
    explicit MshrFile(std::size_t capacity, std::string name = "mshr");

    /** Entry for `block`, or nullptr when not in flight. */
    MshrEntry *
    find(Addr block)
    {
        const std::size_t slot = slotFor(block);
        return slot == kNoSlot ? nullptr : &slots_[slot];
    }

    /** True when no further allocation is possible. */
    bool full() const { return size_ >= capacity_; }

    /** True when no miss is in flight. */
    bool empty() const { return size_ == 0; }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return capacity_; }
    const std::string &name() const { return name_; }

    /**
     * Allocate an entry for `block`. Throws SimError (tagged with
     * `now`) when the file is full or the block is already in flight.
     * @return Reference valid until release(block).
     */
    MshrEntry &allocate(Addr block, bool prefetch_origin, CoreId core,
                        Cycle now = 0);

    /**
     * Remove the entry for `block` and return it (callbacks included).
     * Throws SimError when no entry for `block` exists.
     */
    MshrEntry release(Addr block, Cycle now = 0);

    /**
     * Slot index of a live entry returned by allocate() — stable
     * until that entry is released, so a fill completion can carry it
     * back to releaseSlot() and skip the key scan.
     */
    std::size_t
    slotOf(const MshrEntry &entry) const
    {
        return static_cast<std::size_t>(&entry - slots_.data());
    }

    /**
     * release() by slot index alone, for the fill path: the entry
     * carries its own block, so the completion keeps only the 4-byte
     * slot. Throws SimError when the slot is out of range or free.
     */
    MshrEntry releaseSlot(std::size_t slot, Cycle now = 0);

    void clear();

    /** Visit every in-flight entry, unordered (self-checks only). */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (std::size_t i = 0; i < slot_blocks_.size(); ++i) {
            if (slot_blocks_[i] != kFreeSlot)
                fn(slots_[i]);
        }
    }

  private:
    /// Key-array sentinel for a free slot: not block-aligned, so it
    /// can never equal a real block address.
    static constexpr Addr kFreeSlot = ~Addr{0};
    /// slotFor() result for a block that is not in flight.
    static constexpr std::size_t kNoSlot = ~std::size_t{0};

    /** Slot holding `block`, or kNoSlot (first match in slot order). */
    std::size_t
    slotFor(Addr block) const
    {
        for (std::size_t i = 0; i < slot_blocks_.size(); ++i) {
            if (slot_blocks_[i] == block)
                return i;
        }
        return kNoSlot;
    }

    std::size_t capacity_;
    std::string name_;
    std::size_t size_ = 0;
    /// Entry slots, preallocated; slots_[i] is live iff
    /// slot_blocks_[i] != kFreeSlot.
    std::vector<MshrEntry> slots_;
    /// Dense key mirror scanned by find(); packing the 8-byte keys
    /// separately from the ~80-byte entries is what makes the scan
    /// touch one cache line per 8 slots.
    std::vector<Addr> slot_blocks_;
    /// Free slot indices (stack).
    std::vector<std::uint32_t> free_slots_;
};

} // namespace bingo

#endif // BINGO_CACHE_MSHR_HPP
