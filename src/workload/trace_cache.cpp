#include "workload/trace_cache.hpp"

#include <algorithm>
#include <limits>

#include "common/env.hpp"
#include "common/hash.hpp"
#include "common/sim_check.hpp"
#include "sim/translation.hpp"
#include "workload/generator.hpp"

namespace bingo
{

namespace
{

constexpr std::uint64_t kMebibyte = 1024 * 1024;
constexpr std::uint64_t kDefaultBudgetMb = 512;

/**
 * BINGO_TRACE_CACHE_MB: unset or not a number -> default, 0 ->
 * disabled. A budget too large to count in bytes saturates instead of
 * wrapping (a wrap to 0 would silently disable the cache).
 */
std::uint64_t
budgetFromEnv()
{
    const std::uint64_t mb =
        envU64("BINGO_TRACE_CACHE_MB", kDefaultBudgetMb);
    if (mb > std::numeric_limits<std::uint64_t>::max() / kMebibyte)
        return std::numeric_limits<std::uint64_t>::max();
    return mb * kMebibyte;
}

/**
 * Build one (workload, core, seed) generator chain: the raw workload
 * generator, composed with the seed-derived first-touch translation
 * when the stream is to carry physical addresses. Same composition a
 * System applies at replay time for virtual streams, so the two modes
 * yield bit-identical records to the core.
 */
std::unique_ptr<TraceSource>
makeStream(const std::string &workload, CoreId core,
           std::uint64_t seed, bool translated)
{
    std::unique_ptr<TraceSource> source =
        makeWorkload(workload, core, seed);
    if (translated) {
        source = std::make_unique<TranslatingSource>(
            std::move(source), AddressTranslator(seed));
    }
    return source;
}

} // namespace

TraceBuffer::TraceBuffer(std::unique_ptr<TraceSource> generator,
                         ChunkStore &store,
                         std::atomic<std::uint64_t> *total_records)
    : generator_(std::move(generator)), store_(store),
      total_records_(total_records)
{
    // Reserved once: the chunk directory must never reallocate, so
    // readers can index it without taking extend_mutex_.
    chunks_.reserve(kMaxChunks);
}

TraceBuffer::~TraceBuffer()
{
    for (std::unique_ptr<std::byte[]> &chunk : chunks_)
        store_.give(std::move(chunk));
}

void
TraceBuffer::extendTo(std::size_t needed)
{
    std::lock_guard<std::mutex> lock(extend_mutex_);
    std::size_t committed = committed_.load(std::memory_order_relaxed);
    while (committed < needed) {
        const std::size_t chunk_idx = committed / kChunkRecords;
        if (chunk_idx == chunks_.size()) {
            if (chunks_.size() == kMaxChunks) {
                throw SimError(
                    "trace_cache", 0,
                    "trace replay position " + std::to_string(needed) +
                        " exceeds the buffer cap of " +
                        std::to_string(kMaxChunks * kChunkRecords) +
                        " records");
            }
            chunks_.push_back(store_.take());
        }
        const std::size_t offset = committed % kChunkRecords;
        const std::size_t remaining = kChunkRecords - offset;
        const std::size_t take =
            remaining < kCommitRecords ? remaining : kCommitRecords;
        generator_->nextBatch(chunkData(chunk_idx) + offset, take);
        committed += take;
        if (total_records_ != nullptr) {
            total_records_->fetch_add(take,
                                      std::memory_order_relaxed);
        }
        // Publish the slice's contents before the new count: readers
        // acquire committed_ and may then touch the chunk lock-free.
        committed_.store(committed, std::memory_order_release);
    }
}

const TraceRecord *
TraceBuffer::view(std::size_t pos, std::size_t want, std::size_t &got)
{
    if (pos + want > committed_.load(std::memory_order_acquire))
        extendTo(pos + want);
    const std::size_t offset = pos % kChunkRecords;
    const std::size_t in_chunk = kChunkRecords - offset;
    got = want < in_chunk ? want : in_chunk;
    return chunkData(pos / kChunkRecords) + offset;
}

ChunkStore::Chunk
ChunkStore::take()
{
    live_bytes_.fetch_add(kChunkBytes, std::memory_order_relaxed);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!spares_.empty()) {
            Chunk chunk = std::move(spares_.back());
            spares_.pop_back();
            return chunk;
        }
    }
    // Uninitialized: TraceRecord carries default member initializers,
    // so an array new would zero-fill 1.5 MB per chunk record by
    // record. Raw storage skips that (every byte below a buffer's
    // committed count is generator output before any reader can reach
    // it), and TraceRecord is an implicit-lifetime aggregate, so
    // records come to life as the generator stores them.
    return std::make_unique_for_overwrite<std::byte[]>(kChunkBytes);
}

void
ChunkStore::give(Chunk chunk)
{
    const std::uint64_t live =
        live_bytes_.fetch_sub(kChunkBytes, std::memory_order_relaxed) -
        kChunkBytes;
    std::lock_guard<std::mutex> lock(mutex_);
    if (live + (spares_.size() + 1) * kChunkBytes <= limit_)
        spares_.push_back(std::move(chunk));
}

void
ChunkStore::setLimit(std::uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    limit_ = bytes;
    while (!spares_.empty() &&
           liveBytes() + spares_.size() * kChunkBytes > limit_)
        spares_.pop_back();
}

void
ChunkStore::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    spares_.clear();
}

std::size_t
TraceCache::KeyHash::operator()(const Key &key) const
{
    std::uint64_t h = mix64(key.seed ^ (std::uint64_t{key.core} << 48) ^
                            (key.translated ? 1ULL << 40 : 0));
    for (const char c : key.workload)
        h = mix64(h ^ static_cast<std::uint64_t>(c));
    return static_cast<std::size_t>(h);
}

TraceCache::TraceCache(std::uint64_t budget_bytes)
    : budget_bytes_(budget_bytes)
{
    chunks_.setLimit(budget_bytes);
}

TraceCache &
TraceCache::instance()
{
    static TraceCache cache(budgetFromEnv());
    return cache;
}

std::unique_ptr<TraceSource>
TraceCache::acquire(const std::string &workload, CoreId core,
                    std::uint64_t seed, bool translated)
{
    std::unique_lock<std::mutex> lock(mutex_);
    Key key{workload, core, seed, translated};
    const PlannedUse use = claimPlannedUse(key);
    const auto bypass = [&] {
        bypasses_.fetch_add(1, std::memory_order_relaxed);
        lock.unlock();
        return makeStream(workload, core, seed, translated);
    };
    if (budget_bytes_ == 0 || use.pinned_bytes > budget_bytes_)
        return bypass();

    // The last planned use lets the buffer go (see the file comment).
    const bool last_use = use.planned && use.later_uses == 0;
    auto it = buffers_.find(key);
    if (it != buffers_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        std::shared_ptr<TraceBuffer> buffer = it->second.buffer;
        if (last_use) {
            lru_.erase(it->second.lru_pos);
            buffers_.erase(it);
        } else {
            lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        }
        return std::make_unique<CachedTraceSource>(std::move(buffer));
    }
    if (last_use)
        return bypass();

    misses_.fetch_add(1, std::memory_order_relaxed);
    auto buffer = std::make_shared<TraceBuffer>(
        makeStream(workload, core, seed, translated), chunks_,
        &records_generated_);
    lru_.push_front(key);
    buffers_.emplace(std::move(key), Slot{buffer, lru_.begin()});
    evictOverBudget();
    return std::make_unique<CachedTraceSource>(std::move(buffer));
}

TraceCache::PlannedUse
TraceCache::claimPlannedUse(const Key &key)
{
    PlannedUse use;
    std::uint64_t left = 0;
    Plan::Use *claimed = nullptr;
    for (Plan *plan = plans_; plan != nullptr; plan = plan->next_) {
        const auto it = std::lower_bound(
            plan->uses_.begin(), plan->uses_.end(), key,
            [](const Plan::Use &u, const Key &k) {
                return keyLess(u.key, k);
            });
        if (it == plan->uses_.end() || !(it->key == key))
            continue;
        use.planned = true;
        use.pinned_bytes = std::max(use.pinned_bytes, it->pinned_bytes);
        left += it->systems - it->acquired;
        if (claimed == nullptr && it->acquired < it->systems)
            claimed = &*it;
    }
    if (claimed != nullptr) {
        ++claimed->acquired;
        use.later_uses = left - 1;
    }
    return use;
}

void
TraceCache::evictOverBudget()
{
    // Walk from least recently used; a buffer still referenced by a
    // live source is pinned (use_count > 1) and skipped, so the
    // budget can transiently overshoot while sweeps hold buffers
    // open.
    auto it = lru_.end();
    while (chunks_.liveBytes() > budget_bytes_ &&
           it != lru_.begin()) {
        --it;
        auto found = buffers_.find(*it);
        if (found == buffers_.end() ||
            found->second.buffer.use_count() > 1)
            continue;
        buffers_.erase(found);
        it = lru_.erase(it);
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

void
TraceCache::setBudgetBytes(std::uint64_t bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    budget_bytes_ = bytes;
    evictOverBudget();
    chunks_.setLimit(bytes);
}

std::uint64_t
TraceCache::budgetBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return budget_bytes_;
}

TraceCacheStats
TraceCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    TraceCacheStats out;
    out.hits = hits_.load(std::memory_order_relaxed);
    out.misses = misses_.load(std::memory_order_relaxed);
    out.evictions = evictions_.load(std::memory_order_relaxed);
    out.bypasses = bypasses_.load(std::memory_order_relaxed);
    out.buffers = buffers_.size();
    out.bytes = chunks_.liveBytes();
    out.records_generated =
        records_generated_.load(std::memory_order_relaxed);
    return out;
}

void
TraceCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = lru_.begin(); it != lru_.end();) {
        auto found = buffers_.find(*it);
        if (found != buffers_.end() &&
            found->second.buffer.use_count() == 1) {
            buffers_.erase(found);
            it = lru_.erase(it);
        } else {
            ++it;
        }
    }
    chunks_.clear();
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
    bypasses_.store(0, std::memory_order_relaxed);
    records_generated_.store(0, std::memory_order_relaxed);
}

TraceCache::Plan::Plan(TraceCache &cache,
                       const std::vector<TraceDemand> &systems)
    : cache_(cache)
{
    std::vector<Use> uses;
    for (const TraceDemand &d : systems) {
        const std::uint64_t pinned = std::uint64_t{d.cores} * d.records *
                                     TraceBuffer::kRecordBytes;
        for (CoreId core = 0; core < d.cores; ++core) {
            uses.push_back(
                {Key{d.workload, core, d.seed, d.translated}, 1, 0, pinned});
        }
    }
    std::sort(uses.begin(), uses.end(), [](const Use &a, const Use &b) {
        return keyLess(a.key, b.key);
    });
    for (Use &u : uses) {
        if (!uses_.empty() && uses_.back().key == u.key) {
            uses_.back().systems += u.systems;
            uses_.back().pinned_bytes =
                std::max(uses_.back().pinned_bytes, u.pinned_bytes);
        } else {
            uses_.push_back(std::move(u));
        }
    }
    std::lock_guard<std::mutex> lock(cache_.mutex_);
    next_ = cache_.plans_;
    cache_.plans_ = this;
}

TraceCache::Plan::~Plan()
{
    std::lock_guard<std::mutex> lock(cache_.mutex_);
    Plan **link = &cache_.plans_;
    while (*link != this)
        link = &(*link)->next_;
    *link = next_;
}

std::unique_ptr<TraceSource>
acquireWorkloadSource(const std::string &workload, CoreId core,
                      std::uint64_t seed, bool translated)
{
    return TraceCache::instance().acquire(workload, core, seed,
                                          translated);
}

} // namespace bingo
