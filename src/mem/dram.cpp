#include "mem/dram.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/sim_check.hpp"

namespace bingo
{

DramController::DramController(const DramConfig &config)
    : config_(config)
{
    if (config_.channels == 0)
        throw std::invalid_argument("DramConfig.channels must be nonzero");
    if (config_.banks_per_channel == 0)
        throw std::invalid_argument(
            "DramConfig.banks_per_channel must be nonzero");
    channels_.resize(config_.channels);
    for (Channel &ch : channels_)
        ch.banks.resize(config_.banks_per_channel);
}

unsigned
DramController::channelOf(Addr block_addr) const
{
    // Consecutive blocks alternate channels: streaming traffic uses the
    // full aggregate bandwidth.
    return static_cast<unsigned>(blockNumber(block_addr) %
                                 config_.channels);
}

unsigned
DramController::bankOf(Addr block_addr) const
{
    return static_cast<unsigned>(rowOf(block_addr) %
                                 config_.banks_per_channel);
}

std::uint64_t
DramController::rowOf(Addr block_addr) const
{
    // A row holds row_size_bytes of the blocks mapped to one channel.
    const std::uint64_t blocks_per_row =
        config_.row_size_bytes / kBlockSize;
    return (blockNumber(block_addr) / config_.channels) / blocks_per_row;
}

Cycle
DramController::service(Addr block_addr, Cycle now)
{
    Channel &ch = channels_[channelOf(block_addr)];
    Bank &bank = ch.banks[bankOf(block_addr)];
    const std::uint64_t row = rowOf(block_addr);

    const Cycle start = std::max(now + config_.controller_latency,
                                 bank.ready);
    stats_.queue_delay_cycles +=
        start - (now + config_.controller_latency);

    // Latency (when the data is ready) and occupancy (when the bank can
    // take the next command) differ: successive row hits pipeline at
    // the column-to-column rate, not the full CAS latency.
    Cycle access_latency;
    Cycle occupancy;
    if (bank.row_open && bank.open_row == row) {
        ++stats_.row_hits;
        access_latency = config_.t_cas;
        occupancy = config_.data_transfer;
    } else if (!bank.row_open) {
        ++stats_.row_misses;
        access_latency = config_.t_rcd + config_.t_cas;
        occupancy = config_.t_rcd + config_.data_transfer;
    } else {
        ++stats_.row_conflicts;
        access_latency = config_.t_rp + config_.t_rcd + config_.t_cas;
        occupancy = config_.t_rp + config_.t_rcd + config_.data_transfer;
    }
    bank.row_open = true;
    bank.open_row = row;
    bank.ready = start + occupancy;

    const Cycle data_start = std::max(start + access_latency,
                                      ch.bus_free);
    const Cycle data_done = data_start + config_.data_transfer;
    ch.bus_free = data_done;
    stats_.bus_busy_cycles += config_.data_transfer;
    return data_done;
}

Cycle
DramController::read(Addr block_addr, Cycle now)
{
    ++stats_.reads;
    return service(block_addr, now);
}

void
DramController::write(Addr block_addr, Cycle now)
{
    ++stats_.writes;
    service(block_addr, now);
}

void
DramController::checkInvariants(Cycle now) const
{
    if (channels_.size() != config_.channels)
        throw SimError("DRAM", now,
                       "channel count " +
                           std::to_string(channels_.size()) +
                           " does not match config " +
                           std::to_string(config_.channels));
    for (std::size_t c = 0; c < channels_.size(); ++c) {
        if (channels_[c].banks.size() != config_.banks_per_channel)
            throw SimError("DRAM", now,
                           "channel " + std::to_string(c) + " has " +
                               std::to_string(
                                   channels_[c].banks.size()) +
                               " banks, config says " +
                               std::to_string(
                                   config_.banks_per_channel));
    }
    // Every serviced request is classified exactly once and occupies
    // the bus for exactly one transfer; the counters must agree.
    const std::uint64_t requests = stats_.reads + stats_.writes;
    const std::uint64_t classified =
        stats_.row_hits + stats_.row_misses + stats_.row_conflicts;
    if (requests != classified)
        throw SimError("DRAM", now,
                       std::to_string(requests) +
                           " requests serviced but " +
                           std::to_string(classified) +
                           " row-buffer outcomes recorded");
    if (stats_.bus_busy_cycles != requests * config_.data_transfer)
        throw SimError("DRAM", now,
                       "bus occupancy " +
                           std::to_string(stats_.bus_busy_cycles) +
                           " cycles does not equal requests x "
                           "transfer time " +
                           std::to_string(requests *
                                          config_.data_transfer));
}

void
DramController::reset()
{
    for (Channel &ch : channels_) {
        ch.bus_free = 0;
        for (Bank &bank : ch.banks)
            bank = Bank{};
    }
    stats_ = DramStats{};
}

} // namespace bingo
