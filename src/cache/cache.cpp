#include "cache/cache.hpp"

#include <stdexcept>
#include <unordered_set>

#include "common/sim_check.hpp"
#include "mem/dram.hpp"
#include "telemetry/lifecycle.hpp"

namespace bingo
{

Cache::Cache(std::string name, const CacheConfig &config,
             EventQueue &events, MemoryLower &lower)
    : name_(std::move(name)), config_(config), events_(events),
      lower_(lower), num_sets_(config.numSets()),
      blocks_(num_sets_ * config.ways),
      way_tags_(num_sets_ * config.ways, kNoTag),
      way_lru_(num_sets_ * config.ways, 0),
      way_rrpv_(num_sets_ * config.ways, 3),
      set_filled_(num_sets_, 0),
      mshrs_(config.mshr_entries, name_ + ".mshr")
{
    if (num_sets_ == 0 || (num_sets_ & (num_sets_ - 1)) != 0)
        throw std::invalid_argument(
            name_ + ": size_bytes/ways must give a nonzero "
                    "power-of-two number of sets (got " +
            std::to_string(num_sets_) + ")");
}

void
Cache::touchBlock(std::size_t way_index)
{
    way_lru_[way_index] = ++tick_;
    if (config_.replacement == ReplacementKind::Srrip)
        way_rrpv_[way_index] = 0;  // Near re-reference on a hit.
}

std::uint64_t
Cache::setOf(Addr block) const
{
    return blockNumber(block) & (num_sets_ - 1);
}

std::size_t
Cache::wayOf(Addr block) const
{
    // Resident tags are unique per set and kNoTag never matches a
    // block address, so the first match is THE hit.
    const std::size_t first = setOf(block) * config_.ways;
    for (std::size_t i = first; i < first + config_.ways; ++i) {
        if (way_tags_[i] == block)
            return i;
    }
    return kNoWay;
}

bool
Cache::contains(Addr block) const
{
    return wayOf(block) != kNoWay;
}

std::uint64_t
Cache::residentBlocks() const
{
    std::uint64_t n = 0;
    for (const Addr tag : way_tags_) {
        if (tag != kNoTag)
            ++n;
    }
    return n;
}

void
Cache::addEvictionListener(EvictionListener listener)
{
    eviction_listeners_.push_back(std::move(listener));
}

void
Cache::forEachResident(
    const std::function<void(Addr block, bool dirty, CoreId core)> &fn)
    const
{
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
        if (way_tags_[i] != kNoTag)
            fn(way_tags_[i], blocks_[i].dirty, blocks_[i].core);
    }
}

void
Cache::checkInvariants(Cycle now) const
{
    if (mshrs_.size() > mshrs_.capacity())
        throw SimError(name_, now,
                       "MSHR occupancy " +
                           std::to_string(mshrs_.size()) +
                           " exceeds capacity " +
                           std::to_string(mshrs_.capacity()));
    if (prefetch_queue_.size() > config_.prefetch_queue)
        throw SimError(name_, now,
                       "prefetch queue holds " +
                           std::to_string(prefetch_queue_.size()) +
                           " entries, bound is " +
                           std::to_string(config_.prefetch_queue));

    for (std::uint64_t set = 0; set < num_sets_; ++set) {
        const Addr *tags = way_tags_.data() + set * config_.ways;
        const std::uint64_t *lru = way_lru_.data() + set * config_.ways;
        unsigned filled = 0;
        for (unsigned w = 0; w < config_.ways; ++w) {
            if (tags[w] == kNoTag)
                continue;
            ++filled;
            if (setOf(tags[w]) != set)
                throw SimError(name_, now,
                               "resident block maps to set " +
                                   std::to_string(setOf(tags[w])) +
                                   " but lives in set " +
                                   std::to_string(set));
            if (lru[w] > tick_)
                throw SimError(name_, now,
                               "LRU stamp " + std::to_string(lru[w]) +
                                   " is ahead of the recency clock " +
                                   std::to_string(tick_));
            for (unsigned v = w + 1; v < config_.ways; ++v) {
                if (tags[v] == tags[w])
                    throw SimError(name_, now,
                                   "duplicate resident block in set " +
                                       std::to_string(set));
                if (tags[v] != kNoTag && lru[v] == lru[w])
                    throw SimError(
                        name_, now,
                        "two blocks of set " + std::to_string(set) +
                            " share LRU stamp " +
                            std::to_string(lru[w]));
            }
        }
        if (filled != set_filled_[set])
            throw SimError(name_, now,
                           "set " + std::to_string(set) + " holds " +
                               std::to_string(filled) +
                               " valid ways but the fill counter "
                               "says " +
                               std::to_string(set_filled_[set]));
    }

    std::unordered_set<Addr> in_flight;
    mshrs_.forEach([&](const MshrEntry &entry) {
        if (!in_flight.insert(entry.block).second)
            throw SimError(name_, now, "duplicate in-flight block");
        if (contains(entry.block))
            throw SimError(name_, now,
                           "block is both resident and in flight");
    });
    if (in_flight.size() != mshrs_.size())
        throw SimError(name_, now,
                       "MSHR occupancy count disagrees with live "
                       "slots");

    // Drain invariant the run loop's fast-forward path relies on:
    // parked demands and queued prefetches only move when a fill
    // releases an MSHR, so either queue being nonempty means a fill
    // event is pending. An empty MSHR file alongside queued work would
    // leave the work stranded with no event to wake it.
    if ((!pending_.empty() || !prefetch_queue_.empty()) &&
        mshrs_.empty())
        throw SimError(name_, now,
                       "parked work (" +
                           std::to_string(pending_.size()) +
                           " demands, " +
                           std::to_string(prefetch_queue_.size()) +
                           " prefetches) with no in-flight MSHR to "
                           "drain it");
}

void
Cache::access(const MemAccess &access, Cycle now, FillCallback done)
{
    if (access.type == AccessType::Prefetch)
        throw SimError(name_, now,
                       "prefetch presented to the demand access path");
    ++stats_.demand_accesses;

    if (const std::size_t way = wayOf(access.block); way != kNoWay) {
        Block *block = &blocks_[way];
        ++stats_.demand_hits;
        touchBlock(way);
        block->core = access.core;
        if (block->prefetched) {
            block->prefetched = false;
            ++stats_.useful_prefetches;
            if (lifecycle_)
                lifecycle_->onDemandHit(access.block, now);
        }
        if (access.type == AccessType::Store)
            block->dirty = true;
        if (hook_)
            hook_(access, true, now);
        events_.schedule(now + config_.hit_latency, std::move(done));
        return;
    }

    if (hook_)
        hook_(access, false, now);

    if (MshrEntry *entry = mshrs_.find(access.block)) {
        ++stats_.mshr_merges;
        if (entry->prefetch_origin) {
            // The prefetch was issued in time to overlap part of the
            // miss: covered, but late. Usefulness counts once per
            // block.
            ++stats_.late_prefetch_hits;
            if (!entry->demand_merged) {
                ++stats_.useful_prefetches;
                ++stats_.late_useful_prefetches;
                if (lifecycle_)
                    lifecycle_->onLateMerge(access.block, now);
            }
        } else {
            ++stats_.demand_misses;
        }
        entry->demand_merged = true;
        if (access.type == AccessType::Store)
            entry->store_merged = true;
        entry->callbacks.emplace_back(std::move(done), now);
        return;
    }

    ++stats_.demand_misses;
    if (mshrs_.full()) {
        ++stats_.mshr_stall_fetches;
        PendingFetch pending;
        pending.access = access;
        pending.arrival = now;
        pending.done = std::move(done);
        pending_.push_back(std::move(pending));
        return;
    }

    MshrEntry &entry =
        mshrs_.allocate(access.block, /*prefetch_origin=*/false,
                        access.core, now);
    entry.demand_merged = true;
    entry.store_merged = access.type == AccessType::Store;
    entry.callbacks.emplace_back(std::move(done), now);
    issueFetch(access, mshrs_.slotOf(entry), now);
}

bool
Cache::prefetchMshrAvailable() const
{
    // Leave a quarter of the MSHRs to demand traffic: a prefetcher
    // must not starve the misses it is supposed to hide.
    const std::size_t demand_reserve = config_.mshr_entries / 4;
    return mshrs_.size() + demand_reserve < mshrs_.capacity() &&
           pending_.empty();
}

void
Cache::prefetch(Addr block, Addr pc, CoreId core, Cycle now)
{
    ++stats_.prefetch_requests;
    // Chaos MSHR-occupancy spike: consulted exactly once per prefetch
    // request (so the fault schedule is per-opportunity), applied at
    // the headroom decision below. Demand traffic is never parked by
    // it, and drainPrefetchQueue() sees real occupancy only.
    const bool pressure_spike =
        mshr_pressure_hook_ && mshr_pressure_hook_();
    if (contains(block)) {
        ++stats_.prefetch_drops;
        ++stats_.prefetch_drop_present;
        return;
    }
    if (mshrs_.find(block) != nullptr) {
        ++stats_.prefetch_drops;
        ++stats_.prefetch_drop_inflight;
        return;
    }
    if (pressure_spike || !prefetchMshrAvailable()) {
        // Park in the prefetch queue (bounded); oldest-first issue as
        // MSHRs free up. When the queue is full the request is lost,
        // as in hardware.
        if (prefetch_queue_.size() < config_.prefetch_queue) {
            prefetch_queue_.push_back(QueuedPrefetch{block, pc, core});
        } else {
            ++stats_.prefetch_drops;
            ++stats_.prefetch_drop_mshr;
        }
        return;
    }
    MshrEntry &entry =
        mshrs_.allocate(block, /*prefetch_origin=*/true, core, now);
    if (lifecycle_)
        lifecycle_->onIssue(block, now);
    MemAccess access;
    access.block = block;
    access.pc = pc;
    access.core = core;
    access.type = AccessType::Prefetch;
    issueFetch(access, mshrs_.slotOf(entry), now);
}

void
Cache::drainPrefetchQueue(Cycle now)
{
    while (!prefetch_queue_.empty() && prefetchMshrAvailable()) {
        const QueuedPrefetch qp = prefetch_queue_.front();
        prefetch_queue_.pop_front();
        if (contains(qp.block)) {
            ++stats_.prefetch_drops;
            ++stats_.prefetch_drop_present;
            continue;
        }
        if (mshrs_.find(qp.block) != nullptr) {
            ++stats_.prefetch_drops;
            ++stats_.prefetch_drop_inflight;
            continue;
        }
        MshrEntry &entry = mshrs_.allocate(
            qp.block, /*prefetch_origin=*/true, qp.core, now);
        if (lifecycle_)
            lifecycle_->onIssue(qp.block, now);
        MemAccess access;
        access.block = qp.block;
        access.pc = qp.pc;
        access.core = qp.core;
        access.type = AccessType::Prefetch;
        issueFetch(access, mshrs_.slotOf(entry), now);
    }
}

void
Cache::issueFetch(const MemAccess &access, std::size_t slot, Cycle now)
{
    // Typed completion carrying only the 4-byte slot (the MSHR entry
    // carries the block): issuing a fetch allocates nothing, and the
    // fill dispatches straight back into handleFill().
    // The miss is detected after the tag lookup completes.
    lower_.fetch(access, now + config_.hit_latency,
                 Completion::cacheFill(
                     this, static_cast<std::uint32_t>(slot)));
}

void
Cache::handleFill(std::size_t slot, Cycle fill_cycle)
{
    MshrEntry entry = mshrs_.releaseSlot(slot, fill_cycle);
    const Addr block = entry.block;

    const std::size_t way_index = victimize(block, fill_cycle);
    if (way_tags_[way_index] == kNoTag)
        ++set_filled_[way_index / config_.ways];
    way_tags_[way_index] = block;
    Block &victim = blocks_[way_index];
    victim.dirty = entry.store_merged;
    victim.prefetched = entry.prefetch_origin && !entry.demand_merged;
    victim.core = entry.core;
    way_lru_[way_index] = ++tick_;
    // SRRIP inserts at "long" re-reference (2 of 3).
    way_rrpv_[way_index] = 2;
    if (entry.prefetch_origin) {
        ++stats_.prefetch_fills;
        if (lifecycle_)
            lifecycle_->onFill(block, fill_cycle);
    }

    for (MshrCallback &cb : entry.callbacks) {
        // Latency accrues before the completion runs.
        if (cb.track)
            stats_.demand_miss_latency += fill_cycle - cb.start;
        cb.fn(fill_cycle);
    }

    // MSHRs freed: replay parked demand fetches. Parked accesses whose
    // block arrived meanwhile (or whose miss is already in flight) are
    // satisfied without consuming an MSHR, so keep draining until a
    // replay actually needs an entry and none is free.
    while (!pending_.empty()) {
        if (const std::size_t way = wayOf(pending_.front().access.block);
            way != kNoWay) {
            Block *hit = &blocks_[way];
            PendingFetch replay = std::move(pending_.front());
            pending_.pop_front();
            touchBlock(way);
            if (hit->prefetched) {
                hit->prefetched = false;
                ++stats_.useful_prefetches;
                if (lifecycle_)
                    lifecycle_->onDemandHit(replay.access.block,
                                            fill_cycle);
            }
            if (replay.access.type == AccessType::Store)
                hit->dirty = true;
            replay.done(fill_cycle);
            continue;
        }
        if (MshrEntry *open = mshrs_.find(pending_.front().access.block)) {
            PendingFetch replay = std::move(pending_.front());
            pending_.pop_front();
            open->demand_merged = true;
            if (replay.access.type == AccessType::Store)
                open->store_merged = true;
            open->callbacks.push_back(std::move(replay.done));
            continue;
        }
        if (mshrs_.full())
            break;
        PendingFetch replay = std::move(pending_.front());
        pending_.pop_front();
        const MemAccess acc = replay.access;
        MshrEntry &fresh =
            mshrs_.allocate(acc.block, /*prefetch_origin=*/false,
                            acc.core, fill_cycle);
        fresh.demand_merged = true;
        fresh.store_merged = acc.type == AccessType::Store;
        fresh.callbacks.push_back(std::move(replay.done));
        issueFetch(acc, mshrs_.slotOf(fresh), fill_cycle);
    }

    drainPrefetchQueue(fill_cycle);
}

std::size_t
Cache::victimize(Addr block, Cycle now)
{
    const std::uint64_t set = setOf(block);
    const std::size_t first = set * config_.ways;
    // Fill order: the first invalid way (sets never un-fill, so the
    // counter lets the steady state skip the scan entirely).
    if (set_filled_[set] < config_.ways) {
        for (std::size_t i = first; i < first + config_.ways; ++i) {
            if (way_tags_[i] == kNoTag)
                return i;
        }
    }
    unsigned way = 0;
    switch (config_.replacement) {
      case ReplacementKind::Lru: {
        const std::uint64_t *lru = way_lru_.data() + first;
        for (unsigned w = 1; w < config_.ways; ++w) {
            if (lru[w] < lru[way])
                way = w;
        }
        break;
      }
      case ReplacementKind::Srrip: {
        // The first distant (rrpv==3) way, aging the set until one
        // appears.
        std::uint8_t *rrpv = way_rrpv_.data() + first;
        for (;;) {
            while (way < config_.ways && rrpv[way] < 3)
                ++way;
            if (way < config_.ways)
                break;
            for (unsigned w = 0; w < config_.ways; ++w)
                ++rrpv[w];
            way = 0;
        }
        break;
      }
      case ReplacementKind::Random:
        // xorshift64 victim pick.
        victim_rng_ ^= victim_rng_ << 13;
        victim_rng_ ^= victim_rng_ >> 7;
        victim_rng_ ^= victim_rng_ << 17;
        way = static_cast<unsigned>(victim_rng_ % config_.ways);
        break;
    }
    const std::size_t victim = first + way;
    const Addr tag = way_tags_[victim];
    const Block &evicted = blocks_[victim];
    ++stats_.evictions;
    if (evicted.prefetched) {
        ++stats_.useless_prefetches;
        if (lifecycle_)
            lifecycle_->onEvictUnused(tag);
    }
    if (evicted.dirty) {
        ++stats_.writebacks;
        lower_.writeback(tag, evicted.core, now);
    }
    for (EvictionListener &listener : eviction_listeners_)
        listener(tag);
    return victim;
}

void
Cache::metrics(MetricMap &out) const
{
    const std::string prefix = name_ + ".";
    addCounters(out, prefix, stats_);
    out[prefix + "timely_useful_prefetches"] =
        stats_.timelyUsefulPrefetches();
    out[prefix + "prefetch_queue_depth"] = prefetch_queue_.size();
    out[prefix + "pending_fetches"] = pending_.size();
    out[prefix + "resident_blocks"] = residentBlocks();
    out[prefix + "mshr.occupancy"] = mshrs_.size();
    out[prefix + "mshr.capacity"] = mshrs_.capacity();
}

DramLower::DramLower(DramController &dram, EventQueue &events)
    : dram_(dram), events_(events)
{
}

void
DramLower::fetch(const MemAccess &access, Cycle now, FillCallback done)
{
    Cycle completion = dram_.read(access.block, now);
    if (fault_hook_)
        completion = fault_hook_(access, now, completion);
    events_.schedule(completion, std::move(done));
}

void
DramLower::writeback(Addr block, CoreId core, Cycle now)
{
    (void)core;
    dram_.write(block, now);
}

void
CacheLower::fetch(const MemAccess &access, Cycle now, FillCallback done)
{
    cache_.access(access, now, std::move(done));
}

void
CacheLower::writeback(Addr block, CoreId core, Cycle now)
{
    (void)core;
    (void)now;
    (void)block;
    // Dirty data written back from the L1 either updates the LLC copy
    // in place (zero-cost in this timing model) or, when the LLC no
    // longer holds the block, is forwarded to memory by the LLC's own
    // writeback path when the line was installed dirty. We deliberately
    // do not allocate on writeback.
}

} // namespace bingo
