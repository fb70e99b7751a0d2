/**
 * @file
 * Fundamental types and address geometry helpers shared by every module.
 *
 * Addresses in the simulator are byte addresses in a flat 64-bit physical
 * address space. A "block" is a cache block (64 B); a "region" (the
 * paper's "page") is a chunk of contiguous blocks that spatial
 * prefetchers train and predict on — 2 KB by default, matching the
 * authors' public ChampSim implementation. The region is deliberately
 * distinct from the OS page (4 KB) used for address-space layout in the
 * workload generators.
 */

#ifndef BINGO_COMMON_TYPES_HPP
#define BINGO_COMMON_TYPES_HPP

#include <cstdint>
#include <cstddef>

namespace bingo
{

using Addr = std::uint64_t;
using Cycle = std::uint64_t;
using CoreId = std::uint32_t;

/**
 * "No such cycle": the value nextEventCycle()/nextWakeCycle()-style
 * queries return when a component holds no future work of its own.
 * Taking min() over candidates leaves it unchanged only when nothing
 * in the system has a scheduled next step.
 */
constexpr Cycle kNeverCycle = ~Cycle{0};

/** log2 of the cache block size (64 B). */
constexpr unsigned kBlockBits = 6;
/** Cache block size in bytes. */
constexpr std::uint64_t kBlockSize = 1ULL << kBlockBits;

/** log2 of the default spatial region size (2 KB). */
constexpr unsigned kRegionBits = 11;
/** Spatial region ("page") size in bytes. */
constexpr std::uint64_t kRegionSize = 1ULL << kRegionBits;
/** Number of cache blocks per spatial region. */
constexpr unsigned kBlocksPerRegion =
    static_cast<unsigned>(kRegionSize / kBlockSize);

/** log2 of the OS page size (4 KB), used by workload address layout. */
constexpr unsigned kOsPageBits = 12;
constexpr std::uint64_t kOsPageSize = 1ULL << kOsPageBits;

/** Byte address -> block address (block-aligned byte address). */
constexpr Addr
blockAlign(Addr addr)
{
    return addr & ~(kBlockSize - 1);
}

/** Byte address -> block number (address / 64). */
constexpr Addr
blockNumber(Addr addr)
{
    return addr >> kBlockBits;
}

/** Byte address -> region number. */
constexpr Addr
regionNumber(Addr addr)
{
    return addr >> kRegionBits;
}

/** Byte address -> region-aligned byte address. */
constexpr Addr
regionAlign(Addr addr)
{
    return addr & ~(kRegionSize - 1);
}

/** Byte address -> block offset within its region (0..kBlocksPerRegion-1). */
constexpr unsigned
regionOffset(Addr addr)
{
    return static_cast<unsigned>((addr >> kBlockBits) &
                                 (kBlocksPerRegion - 1));
}

/** Kind of memory access as seen by caches and prefetchers. */
enum class AccessType : std::uint8_t
{
    Load,
    Store,
    Prefetch,
};

/** Kind of instruction in a workload trace. */
enum class InstrType : std::uint8_t
{
    Alu,     ///< Non-memory instruction; completes after a short latency.
    Load,    ///< Memory read; completes when data returns.
    Store,   ///< Memory write; retires without waiting for completion.
    Branch,  ///< Consumes a fetch slot; no memory access.
};

/** Whether `type` accesses memory (a load or a store). */
constexpr bool
isMemory(InstrType type)
{
    return type == InstrType::Load || type == InstrType::Store;
}

/**
 * One record of a workload trace: a memory instruction and its
 * address, or a run of `count` consecutive non-memory instructions of
 * one type. Compute runs dominate most streams, so counting them
 * keeps a stream near one record per memory access.
 */
struct TraceRecord
{
    Addr pc = 0;
    Addr addr = 0;   ///< Byte address; meaningful for Load/Store only.
    InstrType type = InstrType::Alu;
    /**
     * Load depends on the previous load of the same core (a pointer
     * dereference): it cannot issue until that load's data returns.
     * This is what makes pointer chasing latency-bound while array
     * sweeps enjoy full memory-level parallelism.
     */
    bool dependent = false;
    /// Instructions the record stands for: always 1 for a load or a
    /// store, the run length for an Alu or Branch record.
    std::uint32_t count = 1;
};
static_assert(sizeof(TraceRecord) == 24,
              "the instruction count lives in TraceRecord's padding");

} // namespace bingo

#endif // BINGO_COMMON_TYPES_HPP
