#include "telemetry/export.hpp"

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace bingo::telemetry
{

namespace
{

/** Finite double as a JSON number ("%.6g"; non-finite becomes 0). */
std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        value = 0.0;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    return buf;
}

std::string
jsonString(const std::string &value)
{
    std::string out = "\"";
    for (const char c : value) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den == 0 ? 0.0 : static_cast<double>(num) /
                                static_cast<double>(den);
}

/** Simulated cycle to trace-format microseconds. */
double
cycleToMicros(Cycle cycle, double frequency_ghz)
{
    // frequency_ghz cycles per nanosecond -> 1000x per microsecond.
    return static_cast<double>(cycle) / (frequency_ghz * 1000.0);
}

/** One Chrome-trace counter event. */
void
traceCounter(std::ostringstream &out, bool &first, const char *name,
             double ts_us, const char *arg, double value)
{
    if (!first)
        out << ",\n";
    first = false;
    out << "{\"ph\":\"C\",\"pid\":1,\"tid\":1,\"name\":\"" << name
        << "\",\"ts\":" << jsonNumber(ts_us) << ",\"args\":{\"" << arg
        << "\":" << jsonNumber(value) << "}}";
}

std::string
lifecycleJson(const PrefetchLifecycle &lifecycle)
{
    std::ostringstream out;
    out << "{\"timely\":" << lifecycle.timely()
        << ",\"late\":" << lifecycle.late()
        << ",\"unused\":" << lifecycle.unused()
        << ",\"in_flight_at_end\":" << lifecycle.liveEntries()
        << ",\"issue_to_fill_cycles\":"
        << histogramJson(lifecycle.issueToFill())
        << ",\"fill_to_first_use_cycles\":"
        << histogramJson(lifecycle.fillToFirstUse()) << "}";
    return out.str();
}

} // namespace

void
atomicWrite(const std::filesystem::path &path, const std::string &content)
{
    namespace fs = std::filesystem;
    const std::string temp_path =
        path.string() + ".tmp." +
        std::to_string(std::hash<std::thread::id>{}(
                           std::this_thread::get_id()) &
                       0xFFFFFF);
    {
        std::ofstream out(temp_path, std::ios::trunc | std::ios::binary);
        if (!out)
            throw std::runtime_error("cannot write " + temp_path);
        out << content;
        out.flush();
        if (!out)
            throw std::runtime_error("write failed for " + temp_path);
    }
    std::error_code ec;
    fs::rename(temp_path, path, ec);
    if (ec) {
        fs::remove(temp_path, ec);
        throw std::runtime_error("cannot rename into " + path.string());
    }
}

std::string
sanitizeFileStem(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (const char c : name) {
        const bool safe = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '.' ||
                          c == '-' || c == '_';
        out += safe ? c : '_';
    }
    if (out.empty())
        out = "run";
    return out;
}

std::string
histogramJson(const LogHistogram &histogram)
{
    std::ostringstream out;
    out << "{\"count\":" << histogram.count()
        << ",\"sum\":" << histogram.sum()
        << ",\"min\":" << histogram.minValue()
        << ",\"max\":" << histogram.maxValue()
        << ",\"mean\":" << jsonNumber(histogram.meanValue())
        << ",\"p50\":" << histogram.percentile(0.50)
        << ",\"p90\":" << histogram.percentile(0.90)
        << ",\"p99\":" << histogram.percentile(0.99)
        << ",\"buckets\":[";
    // Buckets as [low, count] pairs, zero buckets omitted: sparse and
    // trivially reloadable.
    bool first = true;
    for (unsigned b = 0; b < LogHistogram::kBuckets; ++b) {
        if (histogram.bucketCount(b) == 0)
            continue;
        if (!first)
            out << ',';
        first = false;
        out << '[' << LogHistogram::bucketLow(b) << ','
            << histogram.bucketCount(b) << ']';
    }
    out << "]}";
    return out.str();
}

std::string
epochJsonLine(const EpochRecord &record, double frequency_ghz)
{
    const EpochSnapshot &d = record.delta;
    const Cycle cycles = record.cycles();
    const double ipc = ratio(d.instructions, cycles);
    const double l1d_mpki = ratio(d.l1d_demand_misses * 1000,
                                  d.instructions);
    const double llc_mpki = ratio(d.llc_demand_misses * 1000,
                                  d.instructions);
    // 64-byte bursts; bytes/cycle * cycles/ns = bytes/ns = GB/s.
    const double dram_gbps =
        ratio((d.dram_reads + d.dram_writes) * 64, cycles) *
        frequency_ghz;
    const double row_hit_rate =
        ratio(d.dram_row_hits, d.dram_row_hits + d.dram_row_closed);

    std::ostringstream out;
    out << "{\"phase\":" << jsonString(record.phase)
        << ",\"epoch\":" << record.index
        << ",\"start_cycle\":" << record.start_cycle
        << ",\"end_cycle\":" << record.end_cycle
        << ",\"cycles\":" << cycles
        << ",\"instructions\":" << d.instructions
        << ",\"ipc\":" << jsonNumber(ipc)
        << ",\"l1d_accesses\":" << d.l1d_demand_accesses
        << ",\"l1d_misses\":" << d.l1d_demand_misses
        << ",\"l1d_mpki\":" << jsonNumber(l1d_mpki)
        << ",\"llc_accesses\":" << d.llc_demand_accesses
        << ",\"llc_misses\":" << d.llc_demand_misses
        << ",\"llc_mpki\":" << jsonNumber(llc_mpki)
        << ",\"dram_reads\":" << d.dram_reads
        << ",\"dram_writes\":" << d.dram_writes
        << ",\"dram_gbps\":" << jsonNumber(dram_gbps)
        << ",\"dram_row_hit_rate\":" << jsonNumber(row_hit_rate)
        << ",\"pf_issued\":" << d.pf_issued
        << ",\"pf_fills\":" << d.pf_fills
        << ",\"pf_useful\":" << d.pf_useful
        << ",\"pf_useless\":" << d.pf_useless
        << ",\"pf_late\":" << d.pf_late << "}";
    return out.str();
}

void
writeRunTelemetry(const std::string &dir, const RunMeta &meta,
                  const Telemetry &telemetry, const MetricMap &metrics)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        throw std::runtime_error("telemetry: cannot create " + dir +
                                 ": " + ec.message());

    const std::string base =
        !meta.base_name.empty()
            ? sanitizeFileStem(meta.base_name)
            : sanitizeFileStem(meta.workload + "_" + meta.prefetcher);
    const fs::path root = fs::path(dir);

    // 1. Per-epoch time-series, one JSON object per line.
    {
        std::ostringstream out;
        for (const EpochRecord &record : telemetry.epochs().records())
            out << epochJsonLine(record, meta.frequency_ghz) << '\n';
        atomicWrite(root / (base + ".epochs.jsonl"), out.str());
    }

    // 2. Run summary: meta, counters, lifecycle.
    {
        std::ostringstream out;
        out << "{\"workload\":" << jsonString(meta.workload)
            << ",\"prefetcher\":" << jsonString(meta.prefetcher)
            << ",\"seed\":" << meta.seed
            << ",\"frequency_ghz\":" << jsonNumber(meta.frequency_ghz)
            // Verdict fields are always present so consumers can
            // filter degraded/failed runs without key-existence
            // checks; a clean run reads false/"".
            << ",\"degraded\":"
            << (meta.degraded ? "true" : "false")
            << ",\"degraded_reason\":"
            << jsonString(meta.degraded_reason)
            << ",\"failed\":" << (meta.failed ? "true" : "false")
            << ",\"failure_reason\":" << jsonString(meta.failure_reason)
            << ",\"epoch_instructions\":"
            << telemetry.epochs().epochInstructions()
            << ",\"epochs\":" << telemetry.epochs().records().size();
        out << ",\"metrics\":{";
        bool first = true;
        for (const auto &[name, value] : metrics) {
            if (!first)
                out << ',';
            first = false;
            out << jsonString(name) << ':' << value;
        }
        out << "},\"prefetch_lifecycle\":"
            << lifecycleJson(telemetry.lifecycle()) << "}\n";
        atomicWrite(root / (base + ".run.json"), out.str());
    }

    // 3. Chrome-trace counter timeline of the epoch series.
    {
        std::ostringstream out;
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
        bool first = true;
        for (const EpochRecord &record :
             telemetry.epochs().records()) {
            const EpochSnapshot &d = record.delta;
            const double ts =
                cycleToMicros(record.end_cycle, meta.frequency_ghz);
            const Cycle cycles = record.cycles();
            traceCounter(out, first, "ipc", ts, "ipc",
                         ratio(d.instructions, cycles));
            traceCounter(out, first, "llc_mpki", ts, "mpki",
                         ratio(d.llc_demand_misses * 1000,
                               d.instructions));
            traceCounter(out, first, "dram_gbps", ts, "gbps",
                         ratio((d.dram_reads + d.dram_writes) * 64,
                               cycles) *
                             meta.frequency_ghz);
            traceCounter(out, first, "pf_issued", ts, "count",
                         static_cast<double>(d.pf_issued));
            traceCounter(out, first, "pf_useful", ts, "count",
                         static_cast<double>(d.pf_useful));
        }
        out << "\n]}\n";
        atomicWrite(root / (base + ".trace.json"), out.str());
    }
}

} // namespace bingo::telemetry
