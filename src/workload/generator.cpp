#include "workload/generator.hpp"

#include <algorithm>
#include <stdexcept>

namespace bingo
{

InterleavedSource::InterleavedSource(
    std::vector<std::unique_ptr<TraceSource>> sources, unsigned min_run,
    unsigned max_run, std::uint64_t seed, bool strict)
    : min_run_(min_run), max_run_(max_run), rng_(seed), strict_(strict)
{
    if (sources.empty()) {
        throw std::invalid_argument(
            "InterleavedSource needs at least one source");
    }
    if (min_run_ < 1 || max_run_ < min_run_) {
        throw std::invalid_argument(
            "InterleavedSource run bounds must satisfy "
            "1 <= min_run <= max_run");
    }
    lanes_.reserve(sources.size());
    for (std::unique_ptr<TraceSource> &source : sources)
        lanes_.push_back(Lane{std::move(source)});
}

TraceRecord
InterleavedSource::nextPiece()
{
    if (remaining_ == 0) {
        current_ = strict_ ? (current_ + 1) % lanes_.size()
                           : rng_.below(lanes_.size());
        remaining_ = static_cast<unsigned>(
            rng_.range(min_run_, max_run_));
    }
    Lane &lane = lanes_[current_];
    if (lane.pos == lane.end) {
        lane.window = lane.source->borrowBatch(kWindowRecords, lane.end);
        lane.pos = 0;
    }
    TraceRecord piece = lane.window[lane.pos];
    const std::uint32_t left = piece.count - lane.taken;
    piece.count = std::min<std::uint32_t>(left, remaining_);
    remaining_ -= piece.count;
    if (piece.count == left) {
        ++lane.pos;
        lane.taken = 0;
    } else {
        lane.taken += piece.count;
    }
    return piece;
}

const TraceRecord *
InterleavedSource::borrowBatch(std::size_t want, std::size_t &got)
{
    want = std::min(want, window_.size());
    for (got = 0; got < want; ++got) {
        TraceRecord rec = ahead_.count > 0 ? ahead_ : nextPiece();
        ahead_.count = 0;
        if (!isMemory(rec.type)) {
            for (;;) {
                ahead_ = nextPiece();
                if (ahead_.type != rec.type ||
                    std::uint64_t{rec.count} + ahead_.count >
                        kMaxMergedCount)
                    break;
                rec.count += ahead_.count;
                ahead_.count = 0;
            }
        }
        window_[got] = rec;
    }
    return window_.data();
}

std::vector<RecordClass>
RecordClass::makeClasses(unsigned count, unsigned trigger_sites,
                         unsigned region_blocks, unsigned min_fields,
                         unsigned max_fields, Rng &rng)
{
    if (min_fields < 1 || max_fields > region_blocks) {
        throw std::invalid_argument(
            "RecordClass fields must satisfy 1 <= min_fields and "
            "max_fields <= region blocks");
    }
    if (trigger_sites < 1) {
        throw std::invalid_argument(
            "RecordClass needs at least one trigger site");
    }

    // One trigger event (PC, offset) per site; classes round-robin
    // over the sites.
    std::vector<std::pair<Addr, unsigned>> sites(trigger_sites);
    for (unsigned s = 0; s < trigger_sites; ++s) {
        sites[s] = {0x410000 + s * 0x40,
                    static_cast<unsigned>(rng.below(region_blocks / 2))};
    }

    // Classes behind one site share a base schema (records of related
    // types share their header fields) and differ in their tail
    // fields. The shared base keeps short-event predictions partially
    // correct; the divergent tails are what the long event is needed
    // for.
    std::vector<std::vector<unsigned>> base_offsets(trigger_sites);
    for (unsigned s = 0; s < trigger_sites; ++s) {
        std::uint64_t used = 1ULL << sites[s].second;
        const unsigned base_fields = min_fields > 1 ? min_fields - 1 : 0;
        for (unsigned f = 0; f < base_fields; ++f) {
            unsigned off;
            do {
                off = static_cast<unsigned>(rng.below(region_blocks));
            } while ((used >> off) & 1);
            used |= 1ULL << off;
            base_offsets[s].push_back(off);
        }
    }

    std::vector<RecordClass> classes(count);
    for (unsigned c = 0; c < count; ++c) {
        RecordClass &cls = classes[c];
        const unsigned site = c % trigger_sites;
        const auto fields = static_cast<unsigned>(
            rng.range(min_fields, max_fields));

        const auto &[trigger_pc, trigger_offset] = sites[site];
        cls.field_offsets.push_back(trigger_offset);
        cls.field_pcs.push_back(trigger_pc);

        std::uint64_t used = 1ULL << trigger_offset;
        for (unsigned off : base_offsets[site]) {
            used |= 1ULL << off;
            cls.field_offsets.push_back(off);
            cls.field_pcs.push_back(0x418000 + site * 0x100 +
                                    off * 4);
        }

        // Tail fields: distinct per-class offsets and PCs.
        while (cls.field_offsets.size() < fields) {
            unsigned off;
            do {
                off = static_cast<unsigned>(rng.below(region_blocks));
            } while ((used >> off) & 1);
            used |= 1ULL << off;
            cls.field_offsets.push_back(off);
            cls.field_pcs.push_back(0x420000 + c * 0x100 + off * 4);
        }
    }
    return classes;
}

} // namespace bingo
