#include "workload/trace_file.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace bingo
{

namespace
{

void
putU64(std::FILE *f, std::uint64_t v)
{
    unsigned char buf[8];
    for (int i = 0; i < 8; ++i)
        buf[i] = static_cast<unsigned char>(v >> (8 * i));
    if (std::fwrite(buf, 1, 8, f) != 8)
        throw std::runtime_error("trace write failed");
}

std::uint64_t
loadU64(const unsigned char *buf)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(buf[i]) << (8 * i);
    return v;
}

} // namespace

TraceFormatError::TraceFormatError(std::string path,
                                   std::uint64_t byte_offset,
                                   const std::string &message)
    : std::runtime_error(message + " at byte offset " +
                         std::to_string(byte_offset) + " in " + path),
      path_(std::move(path)), byte_offset_(byte_offset)
{
}

void
writeTrace(const std::string &path,
           const std::vector<TraceRecord> &records)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (f == nullptr)
        throw std::runtime_error("cannot open trace for writing: " +
                                 path);
    try {
        // The format has no count field: a counted compute record is
        // written as that many one-instruction records.
        for (const TraceRecord &rec : records) {
            for (std::uint32_t i = 0; i < rec.count; ++i) {
                putU64(f, rec.pc);
                putU64(f, rec.addr);
                const auto type = static_cast<unsigned char>(rec.type);
                if (std::fwrite(&type, 1, 1, f) != 1)
                    throw std::runtime_error("trace write failed");
            }
        }
    } catch (...) {
        std::fclose(f);
        throw;
    }
    std::fclose(f);
}

std::vector<TraceRecord>
readTrace(const std::string &path)
{
    constexpr long kRecordBytes = 17;  // pc(8) + addr(8) + type(1).
    // Traces are replayed from memory; anything past this cap is not a
    // trace this simulator can sensibly load (and a length-lying or
    // garbage file must not OOM the host before the format checks).
    constexpr long kMaxTraceBytes = 1L << 30;

    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        throw std::runtime_error("cannot open trace: " + path);
    std::vector<TraceRecord> records;
    try {
        // Reject garbage up front, before any record reaches the
        // simulator: a size that is not a whole number of records
        // means the file was truncated or is not a trace at all.
        if (std::fseek(f, 0, SEEK_END) != 0)
            throw std::runtime_error("cannot seek trace: " + path);
        const long size = std::ftell(f);
        if (size < 0)
            throw std::runtime_error("cannot stat trace: " + path);
        if (size == 0)
            throw TraceFormatError(path, 0, "empty trace file");
        if (size > kMaxTraceBytes)
            throw TraceFormatError(
                path, static_cast<std::uint64_t>(kMaxTraceBytes),
                "oversized trace file (" + std::to_string(size) +
                    " bytes exceeds the " +
                    std::to_string(kMaxTraceBytes) + "-byte cap)");
        if (size % kRecordBytes != 0)
            throw TraceFormatError(
                path,
                static_cast<std::uint64_t>(size - size % kRecordBytes),
                "truncated trace file (" + std::to_string(size) +
                    " bytes is not a multiple of the " +
                    std::to_string(kRecordBytes) + "-byte record)");
        std::rewind(f);

        const std::size_t count =
            static_cast<std::size_t>(size / kRecordBytes);
        records.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
            const std::uint64_t offset =
                static_cast<std::uint64_t>(i) * kRecordBytes;
            unsigned char buf[kRecordBytes];
            if (std::fread(buf, 1, kRecordBytes, f) !=
                static_cast<std::size_t>(kRecordBytes))
                throw TraceFormatError(
                    path, offset,
                    "truncated trace file (short read of the " +
                        std::to_string(kRecordBytes) +
                        "-byte record)");
            TraceRecord rec;
            rec.pc = loadU64(buf);
            rec.addr = loadU64(buf + 8);
            const unsigned char type = buf[16];
            if (type > static_cast<unsigned char>(InstrType::Branch))
                throw TraceFormatError(
                    path, offset + 16,
                    "out-of-range instruction type " +
                        std::to_string(type));
            rec.type = static_cast<InstrType>(type);
            records.push_back(rec);
        }
    } catch (...) {
        std::fclose(f);
        throw;
    }
    std::fclose(f);
    return records;
}

FileTraceSource::FileTraceSource(const std::string &path)
    : records_(readTrace(path))
{
    if (records_.empty())
        throw std::runtime_error("empty trace: " + path);
}

FileTraceSource::FileTraceSource(std::vector<TraceRecord> records)
    : records_(std::move(records))
{
    if (records_.empty())
        throw std::runtime_error("empty trace record list");
}

const TraceRecord *
FileTraceSource::borrowBatch(std::size_t want, std::size_t &got)
{
    const TraceRecord *window = records_.data() + pos_;
    got = std::min(want, records_.size() - pos_);
    pos_ = (pos_ + got) % records_.size();
    return window;
}

} // namespace bingo
