/**
 * @file
 * System configuration mirroring the paper's Table I, plus the knobs
 * the evaluation sweeps (prefetcher sizing, aggressiveness).
 *
 * All latencies are in core cycles at the 4 GHz nominal frequency.
 */

#ifndef BINGO_COMMON_CONFIG_HPP
#define BINGO_COMMON_CONFIG_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace bingo
{

/** Core (Table I: 4-wide OoO, 256-entry ROB, 64-entry LSQ). */
struct CoreConfig
{
    unsigned width = 4;          ///< Dispatch/retire width.
    unsigned rob_entries = 256;
    unsigned lsq_entries = 64;
    unsigned alu_latency = 1;    ///< Completion latency of non-mem ops.
};

/** Cache replacement policy. */
enum class ReplacementKind : std::uint8_t
{
    Lru,     ///< True LRU (the baseline the paper assumes).
    Srrip,   ///< 2-bit static RRIP (scan-resistant).
    Random,  ///< Pseudo-random victim (cheap-hardware reference).
};

/** One cache level. */
struct CacheConfig
{
    std::uint64_t size_bytes = 64 * 1024;
    unsigned ways = 8;
    unsigned hit_latency = 4;    ///< Cycles from access to data.
    unsigned mshr_entries = 8;
    unsigned prefetch_queue = 0; ///< Prefetches buffered while MSHRs
                                 ///< are busy (0 = drop immediately).
    ReplacementKind replacement = ReplacementKind::Lru;

    std::uint64_t numSets() const
    {
        return size_bytes / (kBlockSize * ways);
    }
    std::uint64_t numBlocks() const { return size_bytes / kBlockSize; }
};

/**
 * DRAM (Table I: 60 ns zero-load latency, 37.5 GB/s peak bandwidth).
 *
 * At 4 GHz, 60 ns = 240 cycles. Peak bandwidth 37.5 GB/s over two
 * channels means each 64 B transfer occupies a channel data bus for
 * 64 B / 18.75 GB/s = 3.41 ns = ~14 cycles.
 */
struct DramConfig
{
    unsigned channels = 2;
    unsigned banks_per_channel = 32;  ///< 2 ranks x 16 banks (DDR4).
    std::uint64_t row_size_bytes = 4 * 1024;
    unsigned controller_latency = 40;  ///< Fixed on-chip path, cycles.
    unsigned t_cas = 56;               ///< Column access, cycles.
    unsigned t_rcd = 56;               ///< Row activate, cycles.
    unsigned t_rp = 56;                ///< Precharge, cycles.
    unsigned data_transfer = 14;       ///< Bus occupancy per 64 B.
    /// Per channel. Fixed: no component bounds its request queue, so
    /// a setting would only give one result two fingerprints. It keeps
    /// its slot in visitConfigFields, so fingerprints and the worker
    /// wire are unchanged.
    static constexpr unsigned read_queue_entries = 48;

    /**
     * Zero-load read latency to an open row's channel with a row miss:
     * controller + RP + RCD + CAS + transfer. The defaults give
     * 40+56+56+56+14 = 222 cycles (~55.5 ns) for a row-empty access and
     * 40+56+14 = 110 cycles for a row hit; the mix lands near the
     * paper's 60 ns average zero-load latency.
     */
    unsigned zeroLoadRowMiss() const
    {
        return controller_latency + t_rp + t_rcd + t_cas + data_transfer;
    }
};

/** Which prefetcher to attach at the LLC. */
enum class PrefetcherKind
{
    None,
    NextLine,
    Stride,
    Bop,
    Spp,
    Vldp,
    Ampm,
    Sms,
    Bingo,
    BingoMulti,   ///< Naive multi-table TAGE-like variant (Fig. 3/4).
    EventStudy,   ///< Non-prefetching observer (Figs. 2-4).
    // Values below were appended after EventStudy; journal records and
    // the dist wire protocol serialize the enum as an unsigned, so new
    // kinds must only ever be appended here.
    Isb,          ///< ISB/SISB-style temporal stream prefetcher.
    Domino,       ///< Domino-style pair/sequence correlation.
    Hybrid,       ///< Multi-engine arbiter with per-PC routing.
};

/** Human-readable prefetcher name as used in the paper's figures. */
std::string prefetcherName(PrefetcherKind kind);

/** Per-prefetcher sizing/aggressiveness knobs (paper Section V-B). */
struct PrefetcherConfig
{
    PrefetcherKind kind = PrefetcherKind::None;

    // --- Spatial-region geometry shared by PPH prefetchers.
    unsigned region_blocks = kBlocksPerRegion;

    // --- Bingo / SMS.
    std::size_t pht_entries = 16 * 1024;
    unsigned pht_ways = 16;
    std::size_t accumulation_entries = 128;
    std::size_t filter_entries = 64;
    double vote_threshold = 0.20;

    // --- BOP.
    std::size_t bop_rr_entries = 256;
    unsigned bop_score_max = 31;
    unsigned bop_round_max = 100;
    unsigned bop_bad_score = 1;
    unsigned bop_degree = 1;      ///< 32 in the Fig. 10 aggressive mode.

    // --- SPP.
    std::size_t spp_signature_entries = 256;
    std::size_t spp_pattern_entries = 512;
    std::size_t spp_filter_entries = 1024;
    double spp_confidence_threshold = 0.25;  ///< 0.01 in aggressive mode.
    unsigned spp_max_depth = 8;

    // --- VLDP.
    std::size_t vldp_dhb_entries = 16;
    std::size_t vldp_opt_entries = 64;
    std::size_t vldp_dpt_entries = 64;
    unsigned vldp_degree = 4;     ///< 32 in the Fig. 10 aggressive mode.

    // --- AMPM.
    std::size_t ampm_map_entries = 4096;  ///< Covers the 8 MB LLC.
    unsigned ampm_degree = 4;

    // --- Stride.
    std::size_t stride_table_entries = 256;
    unsigned stride_degree = 4;

    // --- BingoMulti / EventStudy: number of event tables (1..5),
    //     longest first: PC+Address, PC+Offset, PC, Address, Offset.
    unsigned num_events = 2;

    // --- ISB (temporal): per-PC training unit plus the two mapping
    //     caches (physical->structural and structural->physical).
    std::size_t isb_training_entries = 256;
    std::size_t isb_mapping_entries = 262144;  ///< Each of PS and SP.
    unsigned isb_degree = 8;

    // --- Domino (temporal): last-two-miss pair table plus a
    //     single-miss fallback table (a quarter of the pair entries).
    std::size_t domino_table_entries = 262144;
    unsigned domino_degree = 8;

    // --- Triangel-style metadata filter shared by the temporal
    //     engines: a correlation must be sampled `threshold` times
    //     before it may claim a mapping/correlation-table entry, so
    //     one-shot noise cannot evict established metadata.
    std::size_t temporal_filter_entries = 131072;
    unsigned temporal_filter_bits = 2;
    unsigned temporal_filter_threshold = 1;

    // --- Hybrid arbiter: hosted engines (order fixes the tie-break
    //     and the telemetry attribution), per-PC accuracy table,
    //     issued-block verdict tracker, and the issue budget shared
    //     across engines per trigger access.
    std::vector<PrefetcherKind> hybrid_engines{
        PrefetcherKind::Bingo, PrefetcherKind::Isb,
        PrefetcherKind::Domino};
    std::size_t hybrid_pc_entries = 1024;
    // Sized like the LLC tag array: the verdict state conceptually
    // lives in the cache tags (a prefetched bit plus proposer mask per
    // line), so a tracked block survives until its demand or eviction
    // actually happens. An undersized tracker churns out most verdicts
    // and the confidence counters drift on the biased remainder.
    std::size_t hybrid_tracker_entries = 131072;
    unsigned hybrid_counter_bits = 4;
    unsigned hybrid_issue_budget = 32;

    /** Metadata storage of this prefetcher in bytes (for Fig. 9). */
    std::uint64_t storageBytes() const;
};

/**
 * Deterministic fault-injection plan (src/chaos). Disabled by default;
 * populated from `BINGO_CHAOS=seed:rate[:sites]` by applyEnvChaos() or
 * set directly by chaos-aware benches. The plan participates in job
 * fingerprints, so chaos runs journal separately from clean runs; with
 * `enabled == false` the serialized config is byte-identical to
 * pre-chaos builds.
 */
struct ChaosConfig
{
    bool enabled = false;
    std::uint64_t seed = 0;      ///< Chaos stream seed (independent of
                                 ///< SystemConfig::seed).
    double rate = 0.0;           ///< Per-opportunity fault probability.
    unsigned site_mask = 0x1F;   ///< Bit per ChaosSite (default: all).
};

/** Whole-system configuration (Table I defaults). */
struct SystemConfig
{
    unsigned num_cores = 4;
    double frequency_ghz = 4.0;
    CoreConfig core;
    CacheConfig l1d{64 * 1024, 8, 4, 8};
    CacheConfig llc{8 * 1024 * 1024, 16, 15, 128, 256};
    DramConfig dram;
    PrefetcherConfig prefetcher;
    ChaosConfig chaos;
    std::uint64_t seed = 42;

    /** Single-core convenience variant used by unit tests. */
    static SystemConfig singleCore();

    /**
     * Reject configurations the simulator cannot run correctly:
     * power-of-two cache/table geometry, nonzero ways/MSHRs/queues/
     * cores, prefetch degrees and thresholds within bounds. Throws
     * std::invalid_argument naming the offending field. Called by the
     * experiment runner before every simulation, replacing the
     * asserts-on-use scattered through the components.
     */
    void validate() const;
};

/** The field groups of a SystemConfig, in serialization order. */
enum class ConfigGroup
{
    Machine,   ///< Cores, caches, DRAM, seed, the spatial prefetchers.
    Temporal,  ///< ISB, Domino and Hybrid knobs.
    Chaos,     ///< The fault-injection plan.
};

/**
 * Visit every SystemConfig field once, in serialization order: the one
 * field list behind job fingerprints (sim/journal.cpp) and the worker
 * wire format (dist/protocol.cpp). A field added to SystemConfig is
 * added here, and both carry it.
 *
 * `visit.group(group, on)` opens each group and returns whether to
 * visit its fields; `on` says whether the group matters to this
 * config. Fingerprints write a group only when it is on, so every
 * fingerprint from before the Temporal and Chaos groups existed stays
 * byte-identical; the wire writes every group. `visit(field)` then
 * takes each field by reference (const when `Config` is, and always
 * for the fixed dram.read_queue_entries): an unsigned integer, a
 * double, an enum, the bool chaos.enabled (the Chaos group's switch),
 * or the vector of hybrid engines.
 */
template <typename Config, typename Visitor>
void
visitConfigFields(Config &cfg, Visitor &&visit)
{
    auto &pf = cfg.prefetcher;
    if (visit.group(ConfigGroup::Machine, true)) {
        visit(cfg.num_cores);
        visit(cfg.frequency_ghz);
        visit(cfg.seed);
        visit(cfg.core.width);
        visit(cfg.core.rob_entries);
        visit(cfg.core.lsq_entries);
        visit(cfg.core.alu_latency);
        for (auto *cache : {&cfg.l1d, &cfg.llc}) {
            visit(cache->size_bytes);
            visit(cache->ways);
            visit(cache->hit_latency);
            visit(cache->mshr_entries);
            visit(cache->prefetch_queue);
            visit(cache->replacement);
        }
        visit(cfg.dram.channels);
        visit(cfg.dram.banks_per_channel);
        visit(cfg.dram.row_size_bytes);
        visit(cfg.dram.controller_latency);
        visit(cfg.dram.t_cas);
        visit(cfg.dram.t_rcd);
        visit(cfg.dram.t_rp);
        visit(cfg.dram.data_transfer);
        visit(cfg.dram.read_queue_entries);
        visit(pf.kind);
        visit(pf.region_blocks);
        visit(pf.pht_entries);
        visit(pf.pht_ways);
        visit(pf.accumulation_entries);
        visit(pf.filter_entries);
        visit(pf.vote_threshold);
        visit(pf.bop_rr_entries);
        visit(pf.bop_score_max);
        visit(pf.bop_round_max);
        visit(pf.bop_bad_score);
        visit(pf.bop_degree);
        visit(pf.spp_signature_entries);
        visit(pf.spp_pattern_entries);
        visit(pf.spp_filter_entries);
        visit(pf.spp_confidence_threshold);
        visit(pf.spp_max_depth);
        visit(pf.vldp_dhb_entries);
        visit(pf.vldp_opt_entries);
        visit(pf.vldp_dpt_entries);
        visit(pf.vldp_degree);
        visit(pf.ampm_map_entries);
        visit(pf.ampm_degree);
        visit(pf.stride_table_entries);
        visit(pf.stride_degree);
        visit(pf.num_events);
    }
    // Only the temporal engine kinds read these knobs.
    if (visit.group(ConfigGroup::Temporal,
                    pf.kind == PrefetcherKind::Isb ||
                        pf.kind == PrefetcherKind::Domino ||
                        pf.kind == PrefetcherKind::Hybrid)) {
        visit(pf.isb_training_entries);
        visit(pf.isb_mapping_entries);
        visit(pf.isb_degree);
        visit(pf.domino_table_entries);
        visit(pf.domino_degree);
        visit(pf.temporal_filter_entries);
        visit(pf.temporal_filter_bits);
        visit(pf.temporal_filter_threshold);
        visit(pf.hybrid_engines);
        visit(pf.hybrid_pc_entries);
        visit(pf.hybrid_tracker_entries);
        visit(pf.hybrid_counter_bits);
        visit(pf.hybrid_issue_budget);
    }
    if (visit.group(ConfigGroup::Chaos, cfg.chaos.enabled)) {
        visit(cfg.chaos.enabled);
        visit(cfg.chaos.seed);
        visit(cfg.chaos.rate);
        visit(cfg.chaos.site_mask);
    }
}

} // namespace bingo

#endif // BINGO_COMMON_CONFIG_HPP
