/**
 * @file
 * On-disk trace support: lets downstream users drive the simulator with
 * their own traces instead of the synthetic generators.
 *
 * The format is a flat sequence of 17-byte little-endian records, one
 * per instruction: pc (8) | addr (8) | type (1, InstrType).
 * FileTraceSource loads the file once and replays it cyclically
 * (traces are typically much shorter than a simulation run).
 */

#ifndef BINGO_WORKLOAD_TRACE_FILE_HPP
#define BINGO_WORKLOAD_TRACE_FILE_HPP

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "workload/generator.hpp"

namespace bingo
{

/**
 * A trace file that violates the format: empty, truncated, oversized,
 * or carrying an out-of-range instruction type. Carries the file path
 * and the byte offset of the first violation so a corrupted trace can
 * be located with `dd`/`xxd` instead of re-running under a debugger.
 * Derives from std::runtime_error, so pre-existing catch sites keep
 * working.
 */
class TraceFormatError : public std::runtime_error
{
  public:
    TraceFormatError(std::string path, std::uint64_t byte_offset,
                     const std::string &message);

    const std::string &path() const { return path_; }

    /** Offset of the first byte of the offending record/field. */
    std::uint64_t byteOffset() const { return byte_offset_; }

  private:
    std::string path_;
    std::uint64_t byte_offset_;
};

/**
 * Write `records` to `path`, one file record per instruction (a
 * counted record is repeated `count` times). Throws std::runtime_error
 * on I/O error.
 */
void writeTrace(const std::string &path,
                const std::vector<TraceRecord> &records);

/**
 * Read all records of `path`. Throws TraceFormatError when the file
 * violates the format (empty, not a whole number of records, larger
 * than the 1 GB sanity cap, bad instruction type) and
 * std::runtime_error on plain I/O failure.
 */
std::vector<TraceRecord> readTrace(const std::string &path);

/** TraceSource replaying a trace file cyclically. */
class FileTraceSource : public TraceSource
{
  public:
    explicit FileTraceSource(const std::string &path);

    /** Wrap an in-memory record list (tests). */
    explicit FileTraceSource(std::vector<TraceRecord> records);

    /** Lends the loaded records in place, clipped at the wrap. */
    const TraceRecord *borrowBatch(std::size_t want,
                                   std::size_t &got) override;

    std::size_t size() const { return records_.size(); }

  private:
    std::vector<TraceRecord> records_;
    std::size_t pos_ = 0;
};

} // namespace bingo

#endif // BINGO_WORKLOAD_TRACE_FILE_HPP
