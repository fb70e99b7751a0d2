#include "prefetch/prefetcher.hpp"

#include "common/hash.hpp"

namespace bingo
{

void
Prefetcher::metrics(const std::string &prefix, MetricMap &out) const
{
    for (const auto &[name, value] : stats_.all())
        out[prefix + name] = value;
}

std::string
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::PcAddress: return "PC+Address";
      case EventKind::PcOffset: return "PC+Offset";
      case EventKind::Pc: return "PC";
      case EventKind::Address: return "Address";
      case EventKind::Offset: return "Offset";
    }
    return "Unknown";
}

std::uint64_t
eventKey(EventKind kind, Addr pc, Addr block)
{
    const std::uint64_t offset = regionOffset(block);
    switch (kind) {
      case EventKind::PcAddress:
        // The full trigger block address: the longest event.
        return hashCombine(pc, blockNumber(block));
      case EventKind::PcOffset:
        return hashCombine(pc, offset);
      case EventKind::Pc:
        return mix64(pc);
      case EventKind::Address:
        return mix64(blockNumber(block));
      case EventKind::Offset:
        return mix64(offset);
    }
    return 0;
}

} // namespace bingo
