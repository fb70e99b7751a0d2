/**
 * @file
 * Memoized trace generation: a process-wide cache of synthetic trace
 * buffers shared across sweep jobs.
 *
 * A sweep varies prefetcher and cache knobs far more often than it
 * varies the workload, yet every System used to re-run the workload
 * generators from scratch — for a full parameter sweep that is
 * thousands of redundant trace generations of identical record
 * streams. The cache generates each (workload, core, seed) stream
 * once, into an append-only chunked buffer, and hands every System a
 * lightweight replay source over the shared immutable prefix. Replay
 * copies nothing: the source lends windows of the buffer's chunks in
 * place through TraceSource::borrowBatch, the core's one read path.
 *
 * Identity: a stream is fully determined by (workload, core, seed) —
 * makeWorkload() derives the per-core base address and generator
 * seeds from exactly these three values, and the generators are
 * deterministic. Length is not part of the key because buffers grow
 * on demand: a longer run extends the shared buffer past its previous
 * high-water mark and shorter runs replay a prefix.
 *
 * Concurrency: generation happens under a per-buffer mutex using the
 * single underlying generator; readers are lock-free (the chunk
 * directory is pre-reserved so it never reallocates, and a
 * release/acquire on the committed-record count publishes chunk
 * contents). The registry itself is mutex-protected; sweep worker
 * threads contend only on acquire/extend, not on replay.
 *
 * Budget: BINGO_TRACE_CACHE_MB bounds retained bytes (default 512,
 * 0 disables caching entirely). Eviction is LRU over buffers not
 * referenced by any live source; buffers in use are never evicted, so
 * the budget can transiently overshoot while many Systems hold
 * unplanned streams open (planned ones never do; see below).
 *
 * Sweep plans: caching pays only for a stream that is replayed more
 * than once, and a buffer in use is never evicted. So the sweep runner
 * registers a Plan listing every System it is about to build (its
 * pending jobs plus the baselines it will compute); the plan lives
 * exactly as long as the sweep call, including when it throws.
 * - Identity: a plan counts uses per cache key — (workload, core,
 *   seed, translated) — so a System with N cores plans N streams.
 *   Run length is not part of the key; a stream remembers the largest
 *   System that plans it. Concurrent sweeps' plans add up.
 * - Single use: a stream no cached buffer holds and that is planned for
 *   exactly one System is served by a private generator instead, so
 *   the core reads generator output without the buffer fill.
 * - Budget: a stream whose largest planned System would pin more than
 *   the budget — cores x (warm-up + measure) records x 24 bytes — is
 *   always served privately: a pinned buffer cannot be evicted, so
 *   caching it would overshoot.
 * - Unplanned acquisitions (direct System construction, examples,
 *   bingo_worker jobs) are cached exactly as without a plan.
 * Every private-generator acquisition counts in
 * TraceCacheStats::bypasses.
 *
 * Determinism: a replay source yields bit-for-bit the records the
 * generator would, so journals are identical with the cache on or
 * off; chaos trace corruption wraps *above* this layer (per System),
 * so fault schedules are also unchanged by sharing.
 */

#ifndef BINGO_WORKLOAD_TRACE_CACHE_HPP
#define BINGO_WORKLOAD_TRACE_CACHE_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"
#include "core/ooo_core.hpp"

namespace bingo
{

/** Counters exported by the process-wide trace cache. */
struct TraceCacheStats
{
    std::uint64_t hits = 0;        ///< acquire() served from cache.
    std::uint64_t misses = 0;      ///< acquire() built a new buffer.
    std::uint64_t evictions = 0;   ///< Buffers dropped for budget.
    /// acquire() served by a private generator: caching off, a single
    /// planned use, or a plan over the budget.
    std::uint64_t bypasses = 0;
    std::uint64_t buffers = 0;     ///< Buffers currently retained.
    std::uint64_t bytes = 0;       ///< Bytes currently retained.
    std::uint64_t records_generated = 0;  ///< Total records produced.
};

/** The trace streams one System acquires, as a sweep plans them. */
struct TraceDemand
{
    std::string workload;
    std::uint64_t seed = 0;
    /// Physical-address streams (see TraceCache::acquire).
    bool translated = true;
    /// Cores 0..cores-1 each acquire one stream.
    unsigned cores = 1;
    /// Records each core replays: warm-up + measure instructions.
    std::uint64_t records = 0;
};

/**
 * Append-only shared buffer of one (workload, core, seed) stream.
 * Readers replay committed records lock-free; extension runs the
 * single underlying generator under a mutex.
 */
class TraceBuffer
{
  public:
    /// Records per chunk: 64 Ki records = 1.5 MB, large enough that
    /// extension cost amortizes, small enough that short test runs
    /// stay cheap.
    static constexpr std::size_t kChunkRecords = std::size_t{1} << 16;
    /// Commit granularity within a chunk: generation runs in slices
    /// this long, so a short run never pays for a whole chunk's worth
    /// of records it will not read (over-generation is capped at one
    /// slice). Divides kChunkRecords evenly.
    static constexpr std::size_t kCommitRecords = std::size_t{1} << 12;
    /// Chunk-directory capacity, reserved up front so the directory
    /// never reallocates under readers: 2^14 chunks = 2^30 records.
    static constexpr std::size_t kMaxChunks = std::size_t{1} << 14;
    /// Bytes retained per record.
    static constexpr std::size_t kRecordBytes = sizeof(TraceRecord);

    /**
     * @param generator The stream's sole generator; owned.
     * @param total_bytes Process-wide retained-bytes counter to keep
     *        in step with chunk allocation (may be null).
     * @param total_records Process-wide generated-record counter.
     */
    TraceBuffer(std::unique_ptr<TraceSource> generator,
                std::atomic<std::uint64_t> *total_bytes,
                std::atomic<std::uint64_t> *total_records);
    ~TraceBuffer();

    TraceBuffer(const TraceBuffer &) = delete;
    TraceBuffer &operator=(const TraceBuffer &) = delete;

    /**
     * Zero-copy read: pointer to the contiguous run starting at
     * `pos`, clipped to `want` records and the owning chunk's end,
     * with `got` receiving the run length. Extends first, so the run
     * is always nonempty. The pointer stays valid for the buffer's
     * lifetime (chunks are never freed while the buffer lives).
     */
    const TraceRecord *view(std::size_t pos, std::size_t want,
                            std::size_t &got);

    /** Bytes of chunk storage owned right now. */
    std::uint64_t
    bytesReserved() const
    {
        return allocated_chunks_.load(std::memory_order_relaxed) *
               kChunkRecords * kRecordBytes;
    }

  private:
    /**
     * Generate kCommitRecords-long slices until at least `needed`
     * records exist, allocating (uninitialized) chunks as slices
     * cross chunk boundaries.
     */
    void extendTo(std::size_t needed);

    /**
     * Record array of chunk `index`. Chunks are raw byte storage:
     * TraceRecord carries default member initializers, so an array
     * new would zero-fill 1.5 MB per chunk record-by-record; raw
     * storage skips that (every byte below committed_ is generator
     * output before any reader can reach it) and TraceRecord is an
     * implicit-lifetime aggregate, so records come to life as the
     * generator stores them.
     */
    TraceRecord *
    chunkData(std::size_t index) const
    {
        return reinterpret_cast<TraceRecord *>(chunks_[index].get());
    }

    std::unique_ptr<TraceSource> generator_;
    std::mutex extend_mutex_;
    std::atomic<std::size_t> committed_{0};
    std::atomic<std::size_t> allocated_chunks_{0};
    std::vector<std::unique_ptr<std::byte[]>> chunks_;
    std::atomic<std::uint64_t> *total_bytes_;
    std::atomic<std::uint64_t> *total_records_;
};

/**
 * TraceSource replaying a shared TraceBuffer from a private cursor.
 * Yields exactly the sequence the buffer's generator would, lending
 * windows of the buffer's chunks in place.
 */
class CachedTraceSource : public TraceSource
{
  public:
    explicit CachedTraceSource(std::shared_ptr<TraceBuffer> buffer)
        : buffer_(std::move(buffer))
    {
    }

    const TraceRecord *
    borrowBatch(std::size_t want, std::size_t &got) override
    {
        const TraceRecord *run = buffer_->view(pos_, want, got);
        pos_ += got;
        return run;
    }

  private:
    std::shared_ptr<TraceBuffer> buffer_;
    std::size_t pos_ = 0;
};

/** Process-wide, thread-safe registry of shared trace buffers. */
class TraceCache
{
  public:
    /** The process-wide instance (budget initialized from env). */
    static TraceCache &instance();

    class Plan;

    /**
     * Trace source for `workload` on `core` under `seed`: a replay of
     * the shared buffer when caching is on, a private generator when
     * it is off (budget 0) or a registered Plan says caching cannot
     * pay (see the file comment). With `translated` set, records carry
     * physical addresses — the stream is the generator composed with
     * the seed-derived first-touch translation, so it is exactly as
     * deterministic (and as cacheable) as the virtual one, and replay
     * needs no per-record translation pass. Virtual and translated
     * buffers of the same stream are distinct cache entries.
     */
    std::unique_ptr<TraceSource> acquire(const std::string &workload,
                                         CoreId core,
                                         std::uint64_t seed,
                                         bool translated = false);

    /** Retained-bytes budget; 0 disables caching. */
    void setBudgetBytes(std::uint64_t bytes);
    std::uint64_t budgetBytes() const;
    bool enabled() const { return budgetBytes() > 0; }

    TraceCacheStats stats() const;

    /**
     * Drop every unreferenced buffer and zero the counters (tests).
     * Buffers still referenced by live sources survive untouched.
     */
    void clear();

  private:
    explicit TraceCache(std::uint64_t budget_bytes);

    struct Key
    {
        std::string workload;
        CoreId core = 0;
        std::uint64_t seed = 0;
        /// Stream carries physical (post-translation) addresses.
        bool translated = false;

        bool operator==(const Key &other) const = default;
    };

    struct KeyHash
    {
        std::size_t operator()(const Key &key) const;
    };

    struct Slot
    {
        std::shared_ptr<TraceBuffer> buffer;
        /// Position in lru_ (front = most recently acquired).
        std::list<Key>::iterator lru_pos;
    };

    /** What the registered plans say about one stream. */
    struct PlannedUse
    {
        std::uint64_t systems = 0;       ///< Systems that acquire it.
        std::uint64_t pinned_bytes = 0;  ///< Largest System's trace.
    };

    /** Sum of the registered plans' uses of `key` (locked). */
    PlannedUse plannedUse(const Key &key) const;

    /** Orders demands and keys by stream, ignoring the core. */
    struct StreamLess
    {
        static auto
        rank(const TraceDemand &d)
        {
            return std::tie(d.workload, d.seed, d.translated);
        }
        static auto
        rank(const Key &k)
        {
            return std::tie(k.workload, k.seed, k.translated);
        }
        template <typename A, typename B>
        bool
        operator()(const A &a, const B &b) const
        {
            return rank(a) < rank(b);
        }
    };

    /** Evict LRU unreferenced buffers while over budget (locked). */
    void evictOverBudget();

    mutable std::mutex mutex_;
    std::uint64_t budget_bytes_;
    std::unordered_map<Key, Slot, KeyHash> buffers_;
    std::list<Key> lru_;
    Plan *plans_ = nullptr;  ///< Registered plans, linked by next_.
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::uint64_t> bypasses_{0};
    std::atomic<std::uint64_t> bytes_{0};
    std::atomic<std::uint64_t> records_generated_{0};
};

/**
 * A sweep's plan, registered with `cache` for the object's lifetime:
 * `systems` lists every System the sweep will build (see the file
 * comment for how acquire() uses it). The plan keeps that list sorted
 * by stream and links itself into the cache's list of plans, so
 * registering allocates nothing under the cache's mutex.
 */
class TraceCache::Plan
{
  public:
    Plan(TraceCache &cache, std::vector<TraceDemand> systems);
    ~Plan();

    Plan(const Plan &) = delete;
    Plan &operator=(const Plan &) = delete;

  private:
    friend class TraceCache;

    TraceCache &cache_;
    /// Sorted by stream; immutable once registered, read under the
    /// cache's mutex.
    std::vector<TraceDemand> systems_;
    Plan *next_ = nullptr;  ///< Next registered plan.
};

/**
 * The System-facing entry point: makeWorkload() through the trace
 * cache (or directly, when caching is off or a sweep plan bypasses
 * it). With `translated` set, the stream is pre-composed with the
 * seed-derived first-touch translation (see TraceCache::acquire).
 */
std::unique_ptr<TraceSource>
acquireWorkloadSource(const std::string &workload, CoreId core,
                      std::uint64_t seed, bool translated = false);

} // namespace bingo

#endif // BINGO_WORKLOAD_TRACE_CACHE_HPP
