/**
 * @file
 * Structured telemetry exports: one run becomes three files under
 * BINGO_TELEMETRY_DIR.
 *
 *  - `<base>.epochs.jsonl` — one JSON object per epoch with raw
 *    counter deltas plus derived rates (IPC, MPKI, DRAM GB/s,
 *    row-hit rate), one line per epoch so notebooks can stream it
 *    with `pandas.read_json(lines=True)`.
 *  - `<base>.run.json` — run metadata, every component counter by
 *    name (System::metrics()), and the prefetch-timeliness verdicts
 *    with the lifecycle histograms' per-bucket counts and percentile
 *    summaries.
 *  - `<base>.trace.json` — the epoch series re-shaped as Chrome
 *    trace-format counter events (load in `chrome://tracing` or
 *    Perfetto; simulated time mapped to microseconds via the core
 *    frequency).
 *
 * `<base>` is derived from workload + prefetcher + job fingerprint so
 * concurrent sweep workers never collide; files are written to a
 * temp name and renamed into place (same crash-safety idiom as the
 * sweep journal).
 */

#ifndef BINGO_TELEMETRY_EXPORT_HPP
#define BINGO_TELEMETRY_EXPORT_HPP

#include <cstdint>
#include <filesystem>
#include <string>

#include "common/stats.hpp"
#include "telemetry/epoch.hpp"
#include "telemetry/histogram.hpp"
#include "telemetry/telemetry.hpp"

namespace bingo::telemetry
{

/** Identity of the run an export belongs to. */
struct RunMeta
{
    std::string workload;
    std::string prefetcher;
    std::uint64_t seed = 0;
    /** Core frequency; converts cycles to trace microseconds. */
    double frequency_ghz = 3.2;
    /** File stem; built from workload + prefetcher when empty. */
    std::string base_name;
    /** Run finished with its prefetcher quarantined (see chaos/). */
    bool degraded = false;
    std::string degraded_reason;
    /** Run threw before finishing; the export is still well-formed. */
    bool failed = false;
    std::string failure_reason;
};

/**
 * Write `<base>.epochs.jsonl`, `<base>.run.json` and
 * `<base>.trace.json` into `dir` (created if missing); `metrics` is
 * run.json's `metrics` object. Throws std::runtime_error on I/O
 * failure.
 */
void writeRunTelemetry(const std::string &dir, const RunMeta &meta,
                       const Telemetry &telemetry,
                       const MetricMap &metrics);

/** Filesystem-safe stem: [A-Za-z0-9._-], everything else to '_'. */
std::string sanitizeFileStem(const std::string &name);

/**
 * Write `content` to `path` atomically (unique temp file + rename),
 * the crash-safety idiom shared by the telemetry exports, the sweep
 * journal, and the BENCH_*.json machine-readable bench summaries.
 * The bytes land unchanged (binary mode). The temp file is named
 * `<path>.tmp.<n>`; journalDropTornWrites deletes leftovers by that
 * infix. Throws std::runtime_error on I/O failure.
 */
void atomicWrite(const std::filesystem::path &path,
                 const std::string &content);

/** One epoch as a JSONL line (no trailing newline). */
std::string epochJsonLine(const EpochRecord &record,
                          double frequency_ghz);

/** A histogram as a JSON object (buckets, summary, percentiles). */
std::string histogramJson(const LogHistogram &histogram);

} // namespace bingo::telemetry

#endif // BINGO_TELEMETRY_EXPORT_HPP
