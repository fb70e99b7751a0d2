#include "core/ooo_core.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/sim_check.hpp"

namespace bingo
{

namespace
{

std::uint64_t
nextPow2(std::uint64_t n)
{
    std::uint64_t p = 1;
    while (p < n)
        p <<= 1;
    return p;
}

} // namespace

OooCore::OooCore(CoreId id, const CoreConfig &config, Cache &l1d,
                 TraceSource &trace)
    : id_(id), config_(config), l1d_(l1d), trace_(trace),
      rob_(nextPow2(config.rob_entries)),
      rob_mask_(rob_.size() - 1), rob_capacity_(config.rob_entries)
{
    if (config.rob_entries == 0 || config.width == 0)
        throw std::invalid_argument(
            "OooCore: rob_entries and width must be nonzero");
}

void
OooCore::step(Cycle now)
{
    // Lazily account any window the run loop skipped stepping this
    // core across (it was provably blocked throughout — callbacks
    // that changed that synced and flagged wakeDirty() already).
    if (now > now_ + 1)
        syncTo(now - 1);
    now_ = now;
    // A core that reached its quota idles (in-flight memory requests
    // still drain via callbacks): every statistic then covers exactly
    // the measurement interval, and a finished core neither pollutes
    // the shared LLC nor inflates aggregate miss counts while slower
    // cores complete.
    if (measurement_done_)
        return;
    ++stats_.cycles;
    retire(now);
    dispatch(now);
}

void
OooCore::fastForward(std::uint64_t cycles, Cycle last)
{
    // step() records its cycle even for a finished core (completion
    // callbacks clamp against it), so the cursor always moves.
    now_ = last;
    if (measurement_done_ || cycles == 0)
        return;
    // The skipped step() calls would each have counted one stall
    // cycle under the block reason that held for the whole window:
    // dispatch() checks ROB occupancy before the LSQ, so mirror that
    // priority.
    stats_.cycles += cycles;
    if (rob_tail_ - rob_head_ >= rob_capacity_)
        stats_.rob_full_cycles += cycles;
    else if (record_held_ && lsq_used_ >= config_.lsq_entries)
        stats_.lsq_full_cycles += cycles;
}

void
OooCore::retire(Cycle now)
{
    unsigned retired = 0;
    while (retired < config_.width && rob_head_ != rob_tail_) {
        RobSlot &slot = rob_[rob_head_ & rob_mask_];
        // kNeverCycle (in flight) is > now by construction, so one
        // compare covers both "incomplete" and "not ready yet".
        if (slot.done > now)
            break;
        ++rob_head_;
        ++retired;
        // The measurement interval counts exactly measure_target_
        // instructions; retirement continues afterwards (the core keeps
        // contending) without advancing the counters.
        if (!measurement_done_) {
            ++stats_.instructions;
            if (stats_.instructions >= measure_target_) {
                measurement_done_ = true;
                completion_cycle_ = now;
            }
        }
    }
}

void
OooCore::dispatch(Cycle now)
{
    unsigned dispatched = 0;
    while (dispatched < config_.width) {
        const std::uint64_t rob_space =
            rob_capacity_ - (rob_tail_ - rob_head_);
        if (rob_space == 0) {
            ++stats_.rob_full_cycles;
            break;
        }
        if (!record_held_) {
            if (fetch_pos_ == fetch_end_) {
                std::size_t got = 0;
                fetch_data_ = trace_.borrowBatch(
                    TraceSource::kWindowRecords, got);
                fetch_pos_ = 0;
                fetch_end_ = static_cast<std::uint32_t>(got);
            }
            // Non-memory records dispatch as a run: per slot only the
            // completion cycle is written (plus the branch count).
            // That is all they need: ALU and branch latency are the
            // same, they touch neither the LSQ nor the dependent-load
            // state, and a slot's `seq` and `deferred` fields are only
            // read for load slots, which always (re)write them at
            // dispatch. The scan stops at the dispatch width, the
            // window end and the free ROB slots; the loop then notes a
            // full ROB or fetches the next window, so how the trace is
            // cut into windows never shows in the result.
            std::uint64_t limit = config_.width - dispatched;
            limit = std::min<std::uint64_t>(limit,
                                            fetch_end_ - fetch_pos_);
            limit = std::min(limit, rob_space);
            const TraceRecord *recs = fetch_data_ + fetch_pos_;
            const Cycle done = now + config_.alu_latency;
            std::uint64_t take = 0;
            std::uint64_t branches = 0;
            for (; take < limit; ++take) {
                const InstrType type = recs[take].type;
                if (type == InstrType::Load || type == InstrType::Store)
                    break;
                rob_[(rob_tail_ + take) & rob_mask_].done = done;
                branches += type == InstrType::Branch ? 1 : 0;
            }
            if (take > 0) {
                rob_tail_ += take;
                stats_.branches += branches;
                fetch_pos_ += static_cast<std::uint32_t>(take);
                dispatched += static_cast<unsigned>(take);
                continue;
            }
            record_held_ = true;
        }
        // The record at fetch_pos_ is a load or a store.
        if (lsq_used_ >= config_.lsq_entries) {
            ++stats_.lsq_full_cycles;
            break;
        }
        const TraceRecord &rec = fetch_data_[fetch_pos_];
        const std::uint64_t seq = rob_tail_++;
        RobSlot &slot = rob_[seq & rob_mask_];
        slot.seq = seq;
        ++lsq_used_;
        MemAccess access;
        access.block = blockAlign(rec.addr);
        access.pc = rec.pc;
        access.core = id_;
        if (rec.type == InstrType::Load) {
            ++stats_.loads;
            slot.done = kNeverCycle;
            slot.deferred.clear();
            access.type = AccessType::Load;
            // A dependent load dereferences the previous load's data:
            // hold it until that load completes.
            bool deferred = false;
            if (rec.dependent && has_last_load_) {
                RobSlot &prev = rob_[last_load_seq_ & rob_mask_];
                if (prev.seq == last_load_seq_ &&
                    prev.done == kNeverCycle) {
                    prev.deferred.emplace_back(seq, access);
                    deferred = true;
                }
            }
            if (!deferred)
                issueLoad(seq, access, now);
            last_load_seq_ = seq;
            has_last_load_ = true;
        } else {
            ++stats_.stores;
            // Stores retire without waiting for the write to complete;
            // the LSQ entry models store-buffer pressure until then.
            slot.done = now + config_.alu_latency;
            access.type = AccessType::Store;
            l1d_.access(access, now, Completion::storeRelease(this));
        }
        record_held_ = false;
        ++fetch_pos_;
        ++dispatched;
    }
}

void
OooCore::startMeasurement(std::uint64_t instructions, Cycle now)
{
    stats_ = CoreStats{};
    measure_target_ = instructions;
    measure_start_cycle_ = now;
    completion_cycle_ = 0;
    measurement_done_ = false;
    // The run loop may not have stepped this core for a while (lazy
    // skip of a finished or blocked core): re-base the cursor where a
    // cycle-by-cycle loop would have it, so the fresh counters never
    // absorb a stale gap.
    now_ = now == 0 ? 0 : now - 1;
    wake_dirty_ = true;
}

double
OooCore::ipc() const
{
    const Cycle cycles = completion_cycle_ - measure_start_cycle_;
    if (cycles == 0)
        return 0.0;
    return static_cast<double>(measure_target_) /
           static_cast<double>(cycles);
}

void
OooCore::metrics(MetricMap &out) const
{
    const std::string prefix = "core" + std::to_string(id_) + ".";
    addCounters(out, prefix, stats_);
    out[prefix + "rob_occupancy"] = rob_tail_ - rob_head_;
    out[prefix + "lsq_occupancy"] = lsq_used_;
}

} // namespace bingo
