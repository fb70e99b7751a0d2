#include "dist/protocol.hpp"

#include <bit>
#include <sstream>

#include "sim/journal.hpp"

namespace bingo
{
namespace dist
{

namespace
{

constexpr std::size_t kMaxString = 1u * 1024u * 1024u;

std::uint64_t
doubleBits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

double
doubleFromBits(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

/** Expect `keyword` as the next token; false on anything else. */
bool
expect(std::istream &in, const char *keyword)
{
    std::string token;
    return static_cast<bool>(in >> token) && token == keyword;
}

/** Length-prefixed string: `<len> <bytes>`. */
void
putString(std::ostream &out, const std::string &value)
{
    out << value.size() << ' ' << value;
}

bool
getString(std::istream &in, std::string &out)
{
    std::size_t length = 0;
    if (!(in >> length) || length > kMaxString || in.get() != ' ')
        return false;
    out.resize(length);
    return static_cast<bool>(
        in.read(out.data(), static_cast<std::streamsize>(length)));
}

} // namespace

std::string
encodeJob(const WireJob &wire)
{
    const SystemConfig &cfg = wire.job.config;
    const PrefetcherConfig &pf = cfg.prefetcher;
    std::ostringstream out;
    out << "job 3\n";
    out << "index " << wire.index << '\n';
    out << "lease " << wire.lease << '\n';
    out << "fingerprint " << wire.fingerprint << '\n';
    out << "workload ";
    putString(out, wire.job.workload);
    out << '\n';
    out << "options " << wire.job.options.warmup_instructions << ' '
        << wire.job.options.measure_instructions << ' '
        << wire.job.options.seed << ' '
        << (wire.job.compare_baseline ? 1 : 0) << '\n';
    out << "system " << cfg.num_cores << ' '
        << doubleBits(cfg.frequency_ghz) << ' ' << cfg.seed << '\n';
    out << "core " << cfg.core.width << ' ' << cfg.core.rob_entries
        << ' ' << cfg.core.lsq_entries << ' ' << cfg.core.alu_latency
        << '\n';
    for (const auto &[label, cache] :
         {std::pair<const char *, const CacheConfig &>{"l1d", cfg.l1d},
          {"llc", cfg.llc}}) {
        out << label << ' ' << cache.size_bytes << ' ' << cache.ways
            << ' ' << cache.hit_latency << ' ' << cache.mshr_entries
            << ' ' << cache.prefetch_queue << ' '
            << static_cast<unsigned>(cache.replacement) << '\n';
    }
    out << "dram " << cfg.dram.channels << ' '
        << cfg.dram.banks_per_channel << ' ' << cfg.dram.row_size_bytes
        << ' ' << cfg.dram.controller_latency << ' ' << cfg.dram.t_cas
        << ' ' << cfg.dram.t_rcd << ' ' << cfg.dram.t_rp << ' '
        << cfg.dram.data_transfer << ' ' << cfg.dram.read_queue_entries
        << '\n';
    out << "pf " << static_cast<unsigned>(pf.kind) << ' '
        << pf.region_blocks << ' ' << pf.pht_entries << ' '
        << pf.pht_ways << ' ' << pf.accumulation_entries << ' '
        << pf.filter_entries << ' ' << doubleBits(pf.vote_threshold)
        << ' ' << pf.bop_rr_entries << ' ' << pf.bop_score_max << ' '
        << pf.bop_round_max << ' ' << pf.bop_bad_score << ' '
        << pf.bop_degree << ' ' << pf.spp_signature_entries << ' '
        << pf.spp_pattern_entries << ' ' << pf.spp_filter_entries
        << ' ' << doubleBits(pf.spp_confidence_threshold) << ' '
        << pf.spp_max_depth << ' ' << pf.vldp_dhb_entries << ' '
        << pf.vldp_opt_entries << ' ' << pf.vldp_dpt_entries << ' '
        << pf.vldp_degree << ' ' << pf.ampm_map_entries << ' '
        << pf.ampm_degree << ' ' << pf.stride_table_entries << ' '
        << pf.stride_degree << ' ' << pf.num_events << '\n';
    out << "temporal " << pf.isb_training_entries << ' '
        << pf.isb_mapping_entries << ' ' << pf.isb_degree << ' '
        << pf.domino_table_entries << ' ' << pf.domino_degree << ' '
        << pf.temporal_filter_entries << ' ' << pf.temporal_filter_bits
        << ' ' << pf.temporal_filter_threshold << ' '
        << pf.hybrid_pc_entries << ' ' << pf.hybrid_tracker_entries
        << ' ' << pf.hybrid_counter_bits << ' '
        << pf.hybrid_issue_budget << ' ' << pf.hybrid_engines.size();
    for (PrefetcherKind engine : pf.hybrid_engines)
        out << ' ' << static_cast<unsigned>(engine);
    out << '\n';
    out << "chaos " << (cfg.chaos.enabled ? 1 : 0) << ' '
        << cfg.chaos.seed << ' ' << doubleBits(cfg.chaos.rate) << ' '
        << cfg.chaos.site_mask << '\n';
    out << "end\n";
    return out.str();
}

bool
decodeJob(const std::string &payload, WireJob &out)
{
    std::istringstream in(payload);
    unsigned version = 0;
    if (!expect(in, "job") || !(in >> version) || version != 3)
        return false;

    WireJob wire;
    SystemConfig &cfg = wire.job.config;
    PrefetcherConfig &pf = cfg.prefetcher;
    if (!expect(in, "index") || !(in >> wire.index))
        return false;
    if (!expect(in, "lease") || !(in >> wire.lease))
        return false;
    if (!expect(in, "fingerprint") || !(in >> wire.fingerprint))
        return false;
    if (!expect(in, "workload") || !getString(in, wire.job.workload))
        return false;
    unsigned compare_baseline = 0;
    if (!expect(in, "options") ||
        !(in >> wire.job.options.warmup_instructions >>
          wire.job.options.measure_instructions >>
          wire.job.options.seed >> compare_baseline))
        return false;
    wire.job.compare_baseline = compare_baseline != 0;

    std::uint64_t frequency_bits = 0;
    if (!expect(in, "system") ||
        !(in >> cfg.num_cores >> frequency_bits >> cfg.seed))
        return false;
    cfg.frequency_ghz = doubleFromBits(frequency_bits);
    if (!expect(in, "core") ||
        !(in >> cfg.core.width >> cfg.core.rob_entries >>
          cfg.core.lsq_entries >> cfg.core.alu_latency))
        return false;
    for (const auto &[label, cache] :
         {std::pair<const char *, CacheConfig &>{"l1d", cfg.l1d},
          {"llc", cfg.llc}}) {
        unsigned replacement = 0;
        if (!expect(in, label) ||
            !(in >> cache.size_bytes >> cache.ways >>
              cache.hit_latency >> cache.mshr_entries >>
              cache.prefetch_queue >> replacement) ||
            replacement > static_cast<unsigned>(ReplacementKind::Random))
            return false;
        cache.replacement = static_cast<ReplacementKind>(replacement);
    }
    if (!expect(in, "dram") ||
        !(in >> cfg.dram.channels >> cfg.dram.banks_per_channel >>
          cfg.dram.row_size_bytes >> cfg.dram.controller_latency >>
          cfg.dram.t_cas >> cfg.dram.t_rcd >> cfg.dram.t_rp >>
          cfg.dram.data_transfer >> cfg.dram.read_queue_entries))
        return false;

    unsigned kind = 0;
    std::uint64_t vote_bits = 0;
    std::uint64_t spp_conf_bits = 0;
    if (!expect(in, "pf") ||
        !(in >> kind >> pf.region_blocks >> pf.pht_entries >>
          pf.pht_ways >> pf.accumulation_entries >> pf.filter_entries >>
          vote_bits >> pf.bop_rr_entries >> pf.bop_score_max >>
          pf.bop_round_max >> pf.bop_bad_score >> pf.bop_degree >>
          pf.spp_signature_entries >> pf.spp_pattern_entries >>
          pf.spp_filter_entries >> spp_conf_bits >> pf.spp_max_depth >>
          pf.vldp_dhb_entries >> pf.vldp_opt_entries >>
          pf.vldp_dpt_entries >> pf.vldp_degree >> pf.ampm_map_entries >>
          pf.ampm_degree >> pf.stride_table_entries >>
          pf.stride_degree >> pf.num_events) ||
        kind > static_cast<unsigned>(PrefetcherKind::Hybrid))
        return false;
    pf.kind = static_cast<PrefetcherKind>(kind);
    pf.vote_threshold = doubleFromBits(vote_bits);
    pf.spp_confidence_threshold = doubleFromBits(spp_conf_bits);

    std::size_t n_engines = 0;
    if (!expect(in, "temporal") ||
        !(in >> pf.isb_training_entries >> pf.isb_mapping_entries >>
          pf.isb_degree >> pf.domino_table_entries >>
          pf.domino_degree >> pf.temporal_filter_entries >>
          pf.temporal_filter_bits >> pf.temporal_filter_threshold >>
          pf.hybrid_pc_entries >> pf.hybrid_tracker_entries >>
          pf.hybrid_counter_bits >> pf.hybrid_issue_budget >>
          n_engines) ||
        n_engines > 8)
        return false;
    pf.hybrid_engines.clear();
    for (std::size_t i = 0; i < n_engines; ++i) {
        unsigned engine = 0;
        if (!(in >> engine) ||
            engine > static_cast<unsigned>(PrefetcherKind::Hybrid))
            return false;
        pf.hybrid_engines.push_back(
            static_cast<PrefetcherKind>(engine));
    }

    unsigned chaos_enabled = 0;
    std::uint64_t rate_bits = 0;
    if (!expect(in, "chaos") ||
        !(in >> chaos_enabled >> cfg.chaos.seed >> rate_bits >>
          cfg.chaos.site_mask))
        return false;
    cfg.chaos.enabled = chaos_enabled != 0;
    cfg.chaos.rate = doubleFromBits(rate_bits);

    if (!expect(in, "end"))
        return false;
    out = std::move(wire);
    return true;
}

std::string
encodeResult(const WireResult &result)
{
    std::ostringstream out;
    out << "result 3\n";
    out << "index " << result.index << '\n';
    out << "lease " << result.lease << '\n';
    out << "status " << static_cast<unsigned>(result.status) << '\n';
    out << "attempts " << result.attempts << '\n';
    out << "wall " << doubleBits(result.wall_seconds) << '\n';
    out << "runs " << result.runs << '\n';
    out << "cycles " << result.cycles << '\n';
    out << "error ";
    putString(out, result.error);
    out << '\n';
    out << "record ";
    putString(out, result.record);
    out << '\n';
    out << "end\n";
    return out.str();
}

bool
decodeResult(const std::string &payload, WireResult &out)
{
    std::istringstream in(payload);
    unsigned version = 0;
    if (!expect(in, "result") || !(in >> version) || version != 3)
        return false;
    WireResult wire;
    unsigned status = 0;
    std::uint64_t wall_bits = 0;
    if (!expect(in, "index") || !(in >> wire.index))
        return false;
    if (!expect(in, "lease") || !(in >> wire.lease))
        return false;
    if (!expect(in, "status") || !(in >> status) ||
        status > static_cast<unsigned>(JobStatus::Failed))
        return false;
    wire.status = static_cast<JobStatus>(status);
    if (!expect(in, "attempts") || !(in >> wire.attempts))
        return false;
    if (!expect(in, "wall") || !(in >> wall_bits))
        return false;
    wire.wall_seconds = doubleFromBits(wall_bits);
    if (!expect(in, "runs") || !(in >> wire.runs))
        return false;
    if (!expect(in, "cycles") || !(in >> wire.cycles))
        return false;
    if (!expect(in, "error") || !getString(in, wire.error))
        return false;
    if (!expect(in, "record") || !getString(in, wire.record))
        return false;
    if (!expect(in, "end"))
        return false;
    out = std::move(wire);
    return true;
}

std::string
encodeHeartbeat(const WireHeartbeat &beat)
{
    std::ostringstream out;
    out << "hb 2 " << (beat.busy ? 1 : 0) << '\n';
    return out.str();
}

bool
decodeHeartbeat(const std::string &payload, WireHeartbeat &out)
{
    std::istringstream in(payload);
    unsigned version = 0;
    unsigned busy = 0;
    WireHeartbeat beat;
    if (!expect(in, "hb") || !(in >> version) || version != 2 ||
        !(in >> busy))
        return false;
    beat.busy = busy != 0;
    out = beat;
    return true;
}

} // namespace dist
} // namespace bingo
