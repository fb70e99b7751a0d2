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
                         std::atomic<std::uint64_t> *total_bytes,
                         std::atomic<std::uint64_t> *total_records)
    : generator_(std::move(generator)), total_bytes_(total_bytes),
      total_records_(total_records)
{
    // Reserved once: the chunk directory must never reallocate, so
    // readers can index it without taking extend_mutex_.
    chunks_.reserve(kMaxChunks);
}

TraceBuffer::~TraceBuffer()
{
    if (total_bytes_ != nullptr)
        total_bytes_->fetch_sub(bytesReserved(),
                                std::memory_order_relaxed);
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
            chunks_.push_back(
                std::make_unique_for_overwrite<std::byte[]>(
                    kChunkRecords * sizeof(TraceRecord)));
            allocated_chunks_.store(chunks_.size(),
                                    std::memory_order_relaxed);
            if (total_bytes_ != nullptr) {
                total_bytes_->fetch_add(kChunkRecords * kRecordBytes,
                                        std::memory_order_relaxed);
            }
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
    const PlannedUse planned = plannedUse(key);
    const auto bypass = [&] {
        bypasses_.fetch_add(1, std::memory_order_relaxed);
        lock.unlock();
        return makeStream(workload, core, seed, translated);
    };
    if (budget_bytes_ == 0 || planned.pinned_bytes > budget_bytes_)
        return bypass();

    auto it = buffers_.find(key);
    if (it != buffers_.end()) {
        hits_.fetch_add(1, std::memory_order_relaxed);
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
        return std::make_unique<CachedTraceSource>(it->second.buffer);
    }
    if (planned.systems == 1)
        return bypass();

    misses_.fetch_add(1, std::memory_order_relaxed);
    auto buffer = std::make_shared<TraceBuffer>(
        makeStream(workload, core, seed, translated), &bytes_,
        &records_generated_);
    lru_.push_front(key);
    buffers_.emplace(std::move(key), Slot{buffer, lru_.begin()});
    evictOverBudget();
    return std::make_unique<CachedTraceSource>(std::move(buffer));
}

TraceCache::PlannedUse
TraceCache::plannedUse(const Key &key) const
{
    PlannedUse sum;
    for (const Plan *plan = plans_; plan != nullptr; plan = plan->next_) {
        const auto [first, last] =
            std::equal_range(plan->systems_.begin(), plan->systems_.end(),
                             key, StreamLess{});
        for (auto it = first; it != last; ++it) {
            if (key.core >= it->cores)
                continue;
            ++sum.systems;
            sum.pinned_bytes =
                std::max<std::uint64_t>(sum.pinned_bytes,
                                        std::uint64_t{it->cores} *
                                            it->records *
                                            TraceBuffer::kRecordBytes);
        }
    }
    return sum;
}

void
TraceCache::evictOverBudget()
{
    // Walk from least recently used; a buffer still referenced by a
    // live source is pinned (use_count > 1) and skipped, so the
    // budget can transiently overshoot while sweeps hold buffers
    // open.
    auto it = lru_.end();
    while (bytes_.load(std::memory_order_relaxed) > budget_bytes_ &&
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
    out.bytes = bytes_.load(std::memory_order_relaxed);
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
    hits_.store(0, std::memory_order_relaxed);
    misses_.store(0, std::memory_order_relaxed);
    evictions_.store(0, std::memory_order_relaxed);
    bypasses_.store(0, std::memory_order_relaxed);
    records_generated_.store(0, std::memory_order_relaxed);
}

TraceCache::Plan::Plan(TraceCache &cache, std::vector<TraceDemand> systems)
    : cache_(cache), systems_(std::move(systems))
{
    std::sort(systems_.begin(), systems_.end(), StreamLess{});
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
