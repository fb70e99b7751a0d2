#include "common/config.hpp"

#include <stdexcept>
#include <string>

#include "common/sim_check.hpp"

namespace bingo
{

namespace
{

constexpr bool
isPowerOfTwo(std::uint64_t value)
{
    return value != 0 && (value & (value - 1)) == 0;
}

[[noreturn]] void
reject(const std::string &field, const std::string &why)
{
    throw std::invalid_argument("SystemConfig." + field + " " + why);
}

void
requireNonzero(const std::string &field, std::uint64_t value)
{
    if (value == 0)
        reject(field, "must be nonzero");
}

/** Prefetch degrees/depths: nonzero and within hardware plausibility. */
void
requireDegree(const std::string &field, std::uint64_t value)
{
    if (value == 0 || value > 512)
        reject(field, "must be in [1, 512], got " +
                          std::to_string(value));
}

void
requireFraction(const std::string &field, double value)
{
    if (!(value >= 0.0 && value <= 1.0))
        reject(field, "must be within [0, 1], got " +
                          std::to_string(value));
}

void
validateCache(const std::string &prefix, const CacheConfig &cache)
{
    requireNonzero(prefix + ".ways", cache.ways);
    requireNonzero(prefix + ".size_bytes", cache.size_bytes);
    requireNonzero(prefix + ".hit_latency", cache.hit_latency);
    requireNonzero(prefix + ".mshr_entries", cache.mshr_entries);
    if (cache.size_bytes % (kBlockSize * cache.ways) != 0)
        reject(prefix + ".size_bytes",
               "must be a multiple of block size x ways");
    if (!isPowerOfTwo(cache.numSets()))
        reject(prefix + ".size_bytes",
               "must give a power-of-two number of sets, got " +
                   std::to_string(cache.numSets()));
}

} // namespace

std::string
prefetcherName(PrefetcherKind kind)
{
    switch (kind) {
      case PrefetcherKind::None: return "None";
      case PrefetcherKind::NextLine: return "NextLine";
      case PrefetcherKind::Stride: return "Stride";
      case PrefetcherKind::Bop: return "BOP";
      case PrefetcherKind::Spp: return "SPP";
      case PrefetcherKind::Vldp: return "VLDP";
      case PrefetcherKind::Ampm: return "AMPM";
      case PrefetcherKind::Sms: return "SMS";
      case PrefetcherKind::Bingo: return "Bingo";
      case PrefetcherKind::BingoMulti: return "BingoMulti";
      case PrefetcherKind::EventStudy: return "EventStudy";
      case PrefetcherKind::Isb: return "ISB";
      case PrefetcherKind::Domino: return "Domino";
      case PrefetcherKind::Hybrid: return "Hybrid";
    }
    return "Unknown";
}

std::uint64_t
PrefetcherConfig::storageBytes() const
{
    // Per-entry costs in bits. Footprints are region_blocks bits; tags,
    // recency, and auxiliary fields are rounded to the sizes a hardware
    // implementation would provision (cf. the paper's 119 KB total for
    // the 16 K-entry Bingo table).
    const std::uint64_t fp_bits = region_blocks;
    switch (kind) {
      case PrefetcherKind::None:
      case PrefetcherKind::EventStudy:
        return 0;
      case PrefetcherKind::NextLine:
        return 0;
      case PrefetcherKind::Stride:
        // tag(16) + last addr(32) + stride(12) + conf(2)
        return stride_table_entries * (16 + 32 + 12 + 2) / 8;
      case PrefetcherKind::Bop:
        // RR table entries of 12-bit hashed addresses + scoring state.
        return bop_rr_entries * 12 / 8 + 64;
      case PrefetcherKind::Spp:
        // ST: tag(16)+sig(12)+offset(6); PT: 4x(delta(7)+counter(4))+
        // counter(4); filter: tag(12).
        return (spp_signature_entries * (16 + 12 + 6) +
                spp_pattern_entries * (4 * (7 + 4) + 4) +
                spp_filter_entries * 12) / 8;
      case PrefetcherKind::Vldp:
        // DHB: page tag(36)+last offset(6)+4 deltas(4x7)+lru(4);
        // OPT: 6-bit pred + 2-bit conf per entry; DPT entries:
        // key deltas + pred + conf + lru.
        return (vldp_dhb_entries * (36 + 6 + 28 + 4) +
                vldp_opt_entries * 8 +
                3 * vldp_dpt_entries * (21 + 7 + 2 + 4)) / 8;
      case PrefetcherKind::Ampm:
        // Access map: zone tag(36) + 2 bits per block + lru(8).
        return ampm_map_entries * (36 + 2 * fp_bits + 8) / 8;
      case PrefetcherKind::Sms:
        // PHT: tag(16)+footprint+lru(4); accumulation: region tag(36)+
        // pc(32)+offset(6)+footprint.
        return (pht_entries * (16 + fp_bits + 4) +
                accumulation_entries * (36 + 32 + 6 + fp_bits)) / 8;
      case PrefetcherKind::Bingo:
        // The paper reports 119 KB for 16 K entries: tag(~26, the
        // PC+Address event compressed) + footprint(32) + lru(4), plus
        // accumulation and filter tables.
        return (pht_entries * (26 + fp_bits + 4) +
                accumulation_entries * (36 + 32 + 6 + fp_bits) +
                filter_entries * (36 + 32 + 6)) / 8;
      case PrefetcherKind::BingoMulti:
        // One full table per event: tag + footprint + lru each.
        return num_events * pht_entries * (26 + fp_bits + 4) / 8;
      case PrefetcherKind::Isb:
        // Training unit: pc tag(16)+last block(36); PS: tag(30)+
        // structural(32)+conf(2); SP: tag(32)+block(36); plus the
        // shared metadata filter: tag(16)+counter.
        return (isb_training_entries * (16 + 36) +
                isb_mapping_entries * (30 + 32 + 2) +
                isb_mapping_entries * (32 + 36) +
                temporal_filter_entries *
                    (16 + temporal_filter_bits)) / 8;
      case PrefetcherKind::Domino:
        // Pair table: tag(24)+next block(36)+conf(2); single-miss
        // fallback at a quarter of the entries; shared filter.
        return (domino_table_entries * (24 + 36 + 2) +
                (domino_table_entries / 4) * (24 + 36 + 2) +
                temporal_filter_entries *
                    (16 + temporal_filter_bits)) / 8;
      case PrefetcherKind::Hybrid: {
        // Sum of the hosted engines plus the arbiter's own tables:
        // per-PC router (tag + one counter per engine + lru) and the
        // issued-block verdict tracker (tag + pc + engine mask).
        std::uint64_t total =
            (hybrid_pc_entries *
                 (16 + hybrid_engines.size() * hybrid_counter_bits +
                  4) +
             hybrid_tracker_entries * (36 + 16 + 8)) / 8;
        for (PrefetcherKind engine : hybrid_engines) {
            if (engine == PrefetcherKind::Hybrid)
                continue;  // Nesting is rejected by validate().
            PrefetcherConfig sub = *this;
            sub.kind = engine;
            total += sub.storageBytes();
        }
        return total;
      }
    }
    return 0;
}

void
SystemConfig::validate() const
{
    requireNonzero("num_cores", num_cores);
    if (!(frequency_ghz > 0.0))
        reject("frequency_ghz", "must be positive");

    requireNonzero("core.width", core.width);
    requireNonzero("core.rob_entries", core.rob_entries);
    requireNonzero("core.lsq_entries", core.lsq_entries);
    requireNonzero("core.alu_latency", core.alu_latency);

    validateCache("l1d", l1d);
    validateCache("llc", llc);

    requireNonzero("dram.channels", dram.channels);
    requireNonzero("dram.banks_per_channel", dram.banks_per_channel);
    requireNonzero("dram.row_size_bytes", dram.row_size_bytes);
    if (dram.row_size_bytes % kBlockSize != 0)
        reject("dram.row_size_bytes",
               "must be a multiple of the block size");
    requireNonzero("dram.data_transfer", dram.data_transfer);

    const PrefetcherConfig &pf = prefetcher;
    if (!isPowerOfTwo(pf.region_blocks))
        reject("prefetcher.region_blocks",
               "must be a nonzero power of two, got " +
                   std::to_string(pf.region_blocks));
    // Footprint packs one region into a single 64-bit word. A wider
    // region would silently truncate every learned footprint, so the
    // geometry is rejected here, as a located machine invariant,
    // before any table is built.
    if (pf.region_blocks > 64) {
        throw SimError(
            "config", 0,
            "prefetcher.region_blocks = " +
                std::to_string(pf.region_blocks) +
                " exceeds the 64-block footprint word (" +
                std::to_string(pf.region_blocks * kBlockSize) +
                "-byte regions are not representable); shrink the "
                "region or widen Footprint first");
    }
    requireNonzero("prefetcher.pht_ways", pf.pht_ways);
    requireNonzero("prefetcher.pht_entries", pf.pht_entries);
    if (pf.pht_entries % pf.pht_ways != 0 ||
        !isPowerOfTwo(pf.pht_entries / pf.pht_ways))
        reject("prefetcher.pht_entries",
               "must split into a power-of-two number of "
               "pht_ways-wide sets, got " +
                   std::to_string(pf.pht_entries) + "/" +
                   std::to_string(pf.pht_ways));
    requireNonzero("prefetcher.accumulation_entries",
                   pf.accumulation_entries);
    requireNonzero("prefetcher.filter_entries", pf.filter_entries);
    requireFraction("prefetcher.vote_threshold", pf.vote_threshold);
    requireFraction("prefetcher.spp_confidence_threshold",
                    pf.spp_confidence_threshold);
    requireDegree("prefetcher.bop_degree", pf.bop_degree);
    requireDegree("prefetcher.vldp_degree", pf.vldp_degree);
    requireDegree("prefetcher.ampm_degree", pf.ampm_degree);
    requireDegree("prefetcher.stride_degree", pf.stride_degree);
    requireDegree("prefetcher.spp_max_depth", pf.spp_max_depth);
    if (pf.num_events < 1 || pf.num_events > 5)
        reject("prefetcher.num_events",
               "must be in [1, 5], got " +
                   std::to_string(pf.num_events));

    // Temporal-family tables are built 8-way, so the entry counts must
    // split into power-of-two sets.
    const auto requireTableEntries = [](const std::string &field,
                                        std::uint64_t entries) {
        if (entries < 8 || !isPowerOfTwo(entries))
            reject(field, "must be a power of two >= 8, got " +
                              std::to_string(entries));
    };
    requireTableEntries("prefetcher.isb_training_entries",
                        pf.isb_training_entries);
    requireTableEntries("prefetcher.isb_mapping_entries",
                        pf.isb_mapping_entries);
    requireTableEntries("prefetcher.domino_table_entries",
                        pf.domino_table_entries);
    requireTableEntries("prefetcher.temporal_filter_entries",
                        pf.temporal_filter_entries);
    requireTableEntries("prefetcher.hybrid_pc_entries",
                        pf.hybrid_pc_entries);
    requireTableEntries("prefetcher.hybrid_tracker_entries",
                        pf.hybrid_tracker_entries);
    requireDegree("prefetcher.isb_degree", pf.isb_degree);
    requireDegree("prefetcher.domino_degree", pf.domino_degree);
    requireDegree("prefetcher.hybrid_issue_budget",
                  pf.hybrid_issue_budget);
    if (pf.temporal_filter_bits < 1 || pf.temporal_filter_bits > 8)
        reject("prefetcher.temporal_filter_bits",
               "must be in [1, 8], got " +
                   std::to_string(pf.temporal_filter_bits));
    if (pf.temporal_filter_threshold >=
        (1U << pf.temporal_filter_bits))
        reject("prefetcher.temporal_filter_threshold",
               "must be representable in temporal_filter_bits, got " +
                   std::to_string(pf.temporal_filter_threshold));
    if (pf.hybrid_counter_bits < 1 || pf.hybrid_counter_bits > 8)
        reject("prefetcher.hybrid_counter_bits",
               "must be in [1, 8], got " +
                   std::to_string(pf.hybrid_counter_bits));
    if (pf.kind == PrefetcherKind::Hybrid) {
        if (pf.hybrid_engines.empty())
            reject("prefetcher.hybrid_engines", "must not be empty");
        if (pf.hybrid_engines.size() > 8)
            reject("prefetcher.hybrid_engines",
                   "must host at most 8 engines, got " +
                       std::to_string(pf.hybrid_engines.size()));
        for (PrefetcherKind engine : pf.hybrid_engines) {
            if (engine == PrefetcherKind::Hybrid)
                reject("prefetcher.hybrid_engines",
                       "must not nest Hybrid inside Hybrid");
            if (engine == PrefetcherKind::None ||
                engine == PrefetcherKind::EventStudy)
                reject("prefetcher.hybrid_engines",
                       "must host prefetching engines, got " +
                           prefetcherName(engine));
        }
    }

    requireFraction("chaos.rate", chaos.rate);
    if (chaos.enabled && chaos.site_mask == 0)
        reject("chaos.site_mask",
               "must enable at least one site when chaos is on");
}

SystemConfig
SystemConfig::singleCore()
{
    SystemConfig cfg;
    cfg.num_cores = 1;
    cfg.llc.size_bytes = 2 * 1024 * 1024;
    return cfg;
}

} // namespace bingo
