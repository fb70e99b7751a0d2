#include "cache/mshr.hpp"

#include <cstdio>
#include <stdexcept>

#include "common/sim_check.hpp"

namespace bingo
{

namespace
{

std::string
blockHex(Addr block)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(block));
    return buf;
}

} // namespace

MshrFile::MshrFile(std::size_t capacity, std::string name)
    : capacity_(capacity), name_(std::move(name))
{
    if (capacity == 0)
        throw std::invalid_argument("MshrFile " + name_ +
                                    ": capacity must be nonzero");
    slots_.resize(capacity);
    slot_blocks_.assign(capacity, kFreeSlot);
    free_slots_.reserve(capacity);
    for (std::size_t i = capacity; i > 0; --i)
        free_slots_.push_back(static_cast<std::uint32_t>(i - 1));
}

MshrEntry &
MshrFile::allocate(Addr block, bool prefetch_origin, CoreId core,
                   Cycle now)
{
    if (full())
        throw SimError(name_, now,
                       "MSHR allocation past capacity (" +
                           std::to_string(capacity_) +
                           " entries in flight) for block " +
                           blockHex(block));
    if (block == kFreeSlot)
        throw SimError(name_, now,
                       "MSHR allocation for the reserved sentinel "
                       "address " +
                           blockHex(block));
    // Every caller probes find(block) before allocating, so this scan
    // is a pure double-check; run it only under the BINGO_CHECK layer
    // (checkInvariants sweeps for duplicates periodically as well).
    if (simCheckEnabled() && find(block) != nullptr)
        throw SimError(name_, now,
                       "duplicate MSHR allocation for in-flight "
                       "block " +
                           blockHex(block));
    const std::uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    // releaseSlot() and clear() reset a freed slot to an empty entry,
    // so only the identity fields need setting.
    MshrEntry &entry = slots_[slot];
    entry.block = block;
    entry.prefetch_origin = prefetch_origin;
    entry.core = core;
    slot_blocks_[slot] = block;
    ++size_;
    return entry;
}

MshrEntry
MshrFile::release(Addr block, Cycle now)
{
    const std::size_t slot = slotFor(block);
    if (slot == kNoSlot)
        throw SimError(name_, now,
                       "release of block " + blockHex(block) +
                           " with no MSHR entry");
    return releaseSlot(slot, now);
}

MshrEntry
MshrFile::releaseSlot(std::size_t slot, Cycle now)
{
    if (slot >= slot_blocks_.size() || slot_blocks_[slot] == kFreeSlot)
        throw SimError(name_, now,
                       "release of slot " + std::to_string(slot) +
                           " which holds no in-flight miss");
    MshrEntry entry = std::move(slots_[slot]);
    slots_[slot] = MshrEntry{};
    slot_blocks_[slot] = kFreeSlot;
    free_slots_.push_back(static_cast<std::uint32_t>(slot));
    --size_;
    return entry;
}

void
MshrFile::clear()
{
    for (std::size_t i = 0; i < capacity_; ++i) {
        if (slot_blocks_[i] == kFreeSlot)
            continue;
        slots_[i] = MshrEntry{};
        slot_blocks_[i] = kFreeSlot;
    }
    size_ = 0;
    free_slots_.clear();
    for (std::size_t i = capacity_; i > 0; --i)
        free_slots_.push_back(static_cast<std::uint32_t>(i - 1));
}

} // namespace bingo
