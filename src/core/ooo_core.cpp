#include "core/ooo_core.hpp"

#include <algorithm>
#include <bit>
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
    if (std::has_single_bit(config.width))
        width_shift_ = std::countr_zero(config.width);
}

void
OooCore::step(Cycle now)
{
    // Lazily account any window the run loop skipped stepping this
    // core across (nothing observable happened in it — callbacks that
    // changed that synced and flagged wakeDirty() already).
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
    // Most stepped cycles stall behind the head: test for that before
    // calling out.
    if (rob_head_ != rob_tail_ && rob_[rob_head_ & rob_mask_].done <= now)
        retire(now);
    if (rob_count_ == rob_capacity_)
        ++stats_.rob_full_cycles;
    else
        dispatch(now);
}

std::uint64_t
OooCore::readyIn(const RobEntry &entry, Cycle now) const
{
    // kNeverCycle (a load in flight) is > now by construction, so one
    // compare covers both "incomplete" and "not ready yet".
    if (entry.done > now)
        return 0;
    // Every dispatch cycle up to now - alu_latency contributed a full
    // width.
    const std::uint64_t reach = (now - entry.done + 1) * config_.width;
    return reach <= entry.skip
               ? 0
               : std::min<std::uint64_t>(entry.count, reach - entry.skip);
}

std::uint64_t
OooCore::readyPrefix(Cycle now, std::uint64_t enough) const
{
    std::uint64_t ready = 0;
    for (std::uint64_t seq = rob_head_; seq != rob_tail_ && ready < enough;
         ++seq) {
        const RobEntry &entry = rob_[seq & rob_mask_];
        const std::uint64_t n = readyIn(entry, now);
        ready += n;
        if (n < entry.count)
            break;
    }
    return ready;
}

void
OooCore::retireFront(std::uint64_t n)
{
    stats_.instructions += n;
    rob_count_ -= n;
    while (n > 0) {
        RobEntry &entry = rob_[rob_head_ & rob_mask_];
        if (n < entry.count) {
            entry.count -= n;
            entry.skip += n;
            return;
        }
        n -= entry.count;
        ++rob_head_;
    }
}

Cycle
OooCore::computeWake(Cycle now) const
{
    // First cycle retirement can resume: the head's ready cycle, or,
    // with an empty ROB, the completion of a record dispatched next
    // cycle (a memory record dispatched earlier wakes the core first).
    const Cycle retire_from =
        rob_head_ == rob_tail_
            ? now + 1 + config_.alu_latency
            : std::max(now + 1, headReadyCycle());
    if (retire_from == kNeverCycle && rob_count_ == rob_capacity_)
        return kNeverCycle;  // Full behind an in-flight load.

    // Dispatch: the next memory record or the end of the lent window,
    // after `run` non-memory instructions at no more than the width per
    // cycle. A ROB with room for the whole run makes that exact.
    // Otherwise retirement must first free `run + 1 - space` slots: if
    // an in-flight load comes first, only its fill lets dispatch get
    // there; if not, the cycle is a lower bound from the first cycle
    // with room. A memory record held on a full LSQ waits for a
    // callback.
    const std::uint64_t run = record_held_ ? 0 : computeRunLength();
    const std::uint64_t space = rob_capacity_ - rob_count_;
    Cycle wake = kNeverCycle;
    if (!record_held_ || lsq_used_ < config_.lsq_entries) {
        if (space > run)
            wake = now + 1 + perWidth(run);
        else if (retire_from != kNeverCycle)
            wake = (space > 0 ? now + 1 : retire_from) + perWidth(run);
        // The ROB walk only pays when the bound lies ahead.
        if (space <= run && wake > now + 2 && fillBlocks(run + 1 - space))
            wake = kNeverCycle;
    }

    // The quota, unless the ROB and the run cannot supply it before
    // the action above: its last instruction retires no earlier than
    // at full width from retire_from, and not before an in-flight
    // load ahead of it completes.
    const std::uint64_t left = measure_target_ > stats_.instructions
                                   ? measure_target_ - stats_.instructions
                                   : 1;
    if (left <= rob_count_ + run && !fillBlocks(left))
        wake = std::min(wake, retire_from + perWidth(left - 1));
    // Skipping a single cycle costs a replay where stepping it costs a
    // step: not worth it.
    return wake <= now + 2 ? now + 1 : wake;
}

bool
OooCore::fillBlocks(std::uint64_t n) const
{
    std::uint64_t count = 0;
    for (std::uint64_t seq = rob_head_; seq != rob_tail_ && count < n;
         ++seq) {
        const RobEntry &entry = rob_[seq & rob_mask_];
        if (entry.done == kNeverCycle)
            return true;
        count += entry.count;
    }
    return false;
}

void
OooCore::replay(Cycle through)
{
    if (measurement_done_) {
        // A finished core counts nothing; only its cursor moves
        // (completion callbacks check against it).
        now_ = through;
        return;
    }
    const unsigned width = config_.width;
    // No memory record dispatches and no window is borrowed before the
    // wake (nextWakeCycle() wakes the core for both), so dispatch only
    // takes non-memory instructions of the current run. A record held on a
    // full LSQ stays held: only a callback frees the LSQ.
    const bool lsq_blocked =
        record_held_ && lsq_used_ >= config_.lsq_entries;
    for (Cycle t = now_ + 1; t <= through;) {
        // Runs of cycles with one fixed pattern go in bulk; anything
        // else takes one cycle exactly as step() runs it.
        const std::uint64_t cycles = through - t + 1;
        const std::uint64_t space = rob_capacity_ - rob_count_;
        // First cycle anything can retire: the head's ready cycle, or,
        // with an empty ROB, that of what dispatches now.
        const Cycle resume = rob_head_ == rob_tail_
                                 ? t + config_.alu_latency
                                 : headReadyCycle();
        if (resume > t && (space == 0 || lsq_blocked)) {
            // Nothing retires and nothing dispatches: stall cycles,
            // counted against the reason dispatch() checks first.
            const std::uint64_t n = std::min(cycles, resume - t);
            stats_.cycles += n;
            (space == 0 ? stats_.rob_full_cycles
                        : stats_.lsq_full_cycles) += n;
            t += n;
            continue;
        }
        const std::uint64_t full_dispatches =
            lsq_blocked || record_held_ ? 0 : perWidth(computeRunLength());
        std::uint64_t n = 0;
        if (resume > t) {
            // Nothing retires: full-width dispatch fills the ROB.
            n = std::min(
                {cycles, resume - t, perWidth(space), full_dispatches});
            if (n > 0) {
                stats_.cycles += n;
                takeRun(t, n * width);
            }
        } else if (cycles > 1 && full_dispatches > 1) {
            // Steady flow: each cycle retires `width` instructions and
            // dispatches `width` into the space that frees. The first
            // n * width instructions must be ready by their retire
            // cycle: those in the ROB now are, when ready already;
            // those dispatched meanwhile are when the ROB holds at
            // least alu_latency cycles of full-width dispatch. The
            // quota is left to the per-cycle path.
            const std::uint64_t quota_left =
                measure_target_ > stats_.instructions
                    ? measure_target_ - stats_.instructions
                    : 0;
            n = std::min({cycles, full_dispatches,
                          quota_left > 0 ? perWidth(quota_left - 1) : 0});
            if (n > 0) {
                const std::uint64_t ready = readyPrefix(t, n * width);
                if (ready < rob_count_ ||
                    rob_count_ < std::uint64_t{config_.alu_latency} *
                                     width)
                    n = std::min(n, perWidth(ready));
            }
            if (n > 0) {
                stats_.cycles += n;
                takeRun(t, n * width);
                retireFront(n * width);
            }
        }
        if (n > 0) {
            t += n;
            continue;
        }
        const std::uint64_t memory = stats_.loads + stats_.stores;
        const TraceRecord *window = fetch_data_;
        ++stats_.cycles;
        retire(t);
        dispatch(t);
        if (measurement_done_ || stats_.loads + stats_.stores != memory ||
            fetch_data_ != window)
            throw SimError("core" + std::to_string(id_), t,
                           "replay reached the quota, a memory record "
                           "or the window end, which nextWakeCycle() "
                           "should have woken the core for");
        ++t;
    }
    now_ = through;
}

void
OooCore::takeRun(Cycle now, std::uint64_t count)
{
    appendTimed(now, 0, count);
    advanceCompute(count);
}

std::uint64_t
OooCore::advanceCompute(std::uint64_t limit)
{
    std::uint64_t passed = 0;
    while (passed < limit && fetch_pos_ < fetch_end_) {
        const TraceRecord &rec = fetch_data_[fetch_pos_];
        if (isMemory(rec.type))
            break;
        const std::uint64_t left = rec.count - fetch_taken_;
        const std::uint64_t n = std::min(limit - passed, left);
        if (rec.type == InstrType::Branch)
            stats_.branches += n;
        passed += n;
        if (n == left) {
            ++fetch_pos_;
            fetch_taken_ = 0;
        } else {
            fetch_taken_ += static_cast<std::uint32_t>(n);
        }
    }
    if (run_known_)
        run_left_ -= passed;
    return passed;
}

void
OooCore::countRetired(unsigned n, Cycle now)
{
    // The measurement interval counts exactly measure_target_
    // instructions; retirement continues afterwards (the core keeps
    // contending) without advancing the counters.
    if (measurement_done_ || n == 0)
        return;
    const std::uint64_t left = measure_target_ > stats_.instructions
                                   ? measure_target_ - stats_.instructions
                                   : 1;
    if (n < left) {
        stats_.instructions += n;
        return;
    }
    stats_.instructions += left;
    measurement_done_ = true;
    completion_cycle_ = now;
}

void
OooCore::retire(Cycle now)
{
    unsigned budget = config_.width;
    while (budget > 0 && rob_head_ != rob_tail_) {
        RobEntry &entry = rob_[rob_head_ & rob_mask_];
        const auto n = static_cast<unsigned>(
            std::min<std::uint64_t>(budget, readyIn(entry, now)));
        if (n == 0)
            break;
        countRetired(n, now);
        budget -= n;
        rob_count_ -= n;
        if (n == entry.count) {
            ++rob_head_;
            continue;
        }
        entry.count -= n;
        entry.skip += n;
        break;
    }
}

void
OooCore::appendTimed(Cycle now, unsigned slot, std::uint64_t count)
{
    const Cycle done = now + config_.alu_latency;
    rob_count_ += count;
    if (rob_head_ != rob_tail_) {
        RobEntry &tail = rob_[(rob_tail_ - 1) & rob_mask_];
        if (!tail.load && tail.skip + tail.count ==
                              (done - tail.done) * config_.width + slot) {
            tail.count += count;
            return;
        }
    }
    RobEntry &entry = rob_[rob_tail_ & rob_mask_];
    entry.seq = rob_tail_++;
    entry.done = done;
    entry.skip = slot;
    entry.count = count;
    entry.load = false;
}

void
OooCore::dispatch(Cycle now)
{
    unsigned dispatched = 0;
    while (dispatched < config_.width) {
        const std::uint64_t rob_space = rob_capacity_ - rob_count_;
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
                fetch_taken_ = 0;
                run_known_ = false;
            }
            // Non-memory instructions dispatch as a run on to the
            // ROB's timed run: ALU and branch latency are the same,
            // and they touch neither the LSQ nor the dependent-load
            // state. The run stops at the dispatch width, the next
            // memory record, the window end and the free ROB slots;
            // the loop then notes a full ROB or fetches the next
            // window, so how the trace is cut into windows and
            // counted records never shows in the result.
            const std::uint64_t take = advanceCompute(
                std::min<std::uint64_t>(config_.width - dispatched,
                                        rob_space));
            if (take > 0) {
                appendTimed(now, dispatched, take);
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
        ++lsq_used_;
        MemAccess access;
        access.block = blockAlign(rec.addr);
        access.pc = rec.pc;
        access.core = id_;
        if (rec.type == InstrType::Load) {
            ++stats_.loads;
            const std::uint64_t seq = rob_tail_++;
            RobEntry &entry = rob_[seq & rob_mask_];
            entry.seq = seq;
            entry.done = kNeverCycle;
            entry.skip = 0;
            entry.count = 1;
            entry.load = true;
            entry.deferred.clear();
            ++rob_count_;
            access.type = AccessType::Load;
            // A dependent load dereferences the previous load's data:
            // hold it until that load completes.
            bool deferred = false;
            if (rec.dependent && has_last_load_) {
                RobEntry &prev = rob_[last_load_seq_ & rob_mask_];
                if (prev.seq == last_load_seq_ && prev.load &&
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
            // Stores retire without waiting for the write to complete
            // (they join the timed run); the LSQ entry models
            // store-buffer pressure until then.
            appendTimed(now, dispatched, 1);
            access.type = AccessType::Store;
            l1d_.access(access, now, Completion::storeRelease(this));
        }
        record_held_ = false;
        ++fetch_pos_;
        run_known_ = false;
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
    out[prefix + "rob_occupancy"] = rob_count_;
    out[prefix + "lsq_occupancy"] = lsq_used_;
}

} // namespace bingo
