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
 * unplanned streams open (planned ones never do; see below). A freed
 * buffer's chunks stay with the cache as spares for the next buffer to
 * fill (ChunkStore), within the same budget.
 *
 * Sweep plans: caching pays only for a stream that is replayed more
 * than once, and a buffer in use is never evicted. So the sweep runner
 * registers a Plan listing every System it is about to build (its
 * pending jobs plus the baselines it will compute); the plan lives
 * exactly as long as the sweep call, including when it throws.
 * - Identity: a plan counts uses per cache key — (workload, core,
 *   seed, translated) — so a System with N cores plans N streams.
 *   Run length is not part of the key; a stream remembers the largest
 *   System that plans it. Concurrent sweeps' plans add up. Each
 *   acquisition of a planned stream takes one of its planned uses.
 * - Last use: no System the plans know of asks for a stream after its
 *   last planned use, so that acquisition takes the buffer out of the
 *   cache, and the buffer lives only as long as the Systems replaying
 *   it. A sweep's memory then holds the streams of the jobs still to
 *   run, not every stream it has touched. With no buffer cached (a
 *   stream planned for one System, or one evicted between its uses)
 *   the last use is served by a private generator instead, so the core
 *   reads generator output without the buffer fill; so are
 *   acquisitions past the planned count (a retried job).
 * - Budget: a stream whose largest planned System would pin more than
 *   the budget — cores x (warm-up + measure) instructions x 24 bytes,
 *   as if every record stood for one instruction — is always served
 *   privately: a pinned buffer cannot be evicted, so caching it would
 *   overshoot.
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

#include "common/stats.hpp"
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
    /// acquire() served by a private generator: caching off, a plan
    /// over the budget, or a planned stream's last use (or one past
    /// it) with no buffer cached.
    std::uint64_t bypasses = 0;
    std::uint64_t buffers = 0;     ///< Buffers currently cached.
    /// Chunk bytes of every live buffer: cached, or let go at its last
    /// planned use and still replayed.
    std::uint64_t bytes = 0;
    std::uint64_t records_generated = 0;  ///< Total records produced.
};

/**
 * Visit every TraceCacheStats counter once, in declaration order, as
 * `visit(name, field)`: the counter list behind a sweep's
 * trace_cache.json.
 */
template <MaybeConst<TraceCacheStats> Stats, typename Visitor>
constexpr void
visitCounters(Stats &stats, Visitor &&visit)
{
    visit("hits", stats.hits);
    visit("misses", stats.misses);
    visit("evictions", stats.evictions);
    visit("bypasses", stats.bypasses);
    visit("buffers", stats.buffers);
    visit("bytes", stats.bytes);
    visit("records_generated", stats.records_generated);
}
static_assert(counterCount<TraceCacheStats>() * sizeof(std::uint64_t) ==
                  sizeof(TraceCacheStats),
              "visitCounters must name every TraceCacheStats counter");

class ChunkStore;

/** The trace streams one System acquires, as a sweep plans them. */
struct TraceDemand
{
    std::string workload;
    std::uint64_t seed = 0;
    /// Physical-address streams (see TraceCache::acquire).
    bool translated = true;
    /// Cores 0..cores-1 each acquire one stream.
    unsigned cores = 1;
    /// Instructions each core replays (warm-up + measure): a bound on
    /// its records, which may each stand for a run of instructions.
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
     * @param store Where chunks come from and go back to.
     * @param total_records Process-wide generated-record counter.
     */
    TraceBuffer(std::unique_ptr<TraceSource> generator, ChunkStore &store,
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
    std::vector<std::unique_ptr<std::byte[]>> chunks_;
    ChunkStore &store_;
    std::atomic<std::uint64_t> *total_records_;
};

/**
 * The chunks of a cache's trace buffers. Live chunks are counted, and
 * a freed buffer's chunks are kept as spares for the next buffer that
 * grows, while live and spare bytes stay within a limit (the cache's
 * budget). Streams then replace one another in memory the process
 * already holds, with no fresh pages to fault in, and the chunks held
 * are the most that were ever live at once, whichever threads freed
 * and took them.
 */
class ChunkStore
{
  public:
    using Chunk = std::unique_ptr<std::byte[]>;

    /// Bytes of one chunk.
    static constexpr std::size_t kChunkBytes =
        TraceBuffer::kChunkRecords * TraceBuffer::kRecordBytes;

    /** A spare chunk if one is kept, else a new one; counted live. */
    Chunk take();

    /** Uncount `chunk`; keep it as a spare if the limit allows. */
    void give(Chunk chunk);

    /** Bytes of live chunks. */
    std::uint64_t
    liveBytes() const
    {
        return live_bytes_.load(std::memory_order_relaxed);
    }

    /** Set the limit on live plus spare bytes; frees spares over it. */
    void setLimit(std::uint64_t bytes);

    /** Free every spare. */
    void clear();

  private:
    std::mutex mutex_;
    std::vector<Chunk> spares_;
    std::atomic<std::uint64_t> live_bytes_{0};
    std::uint64_t limit_ = 0;
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
     * Drop every unreferenced buffer, free the spare chunks and zero
     * the counters (tests). Buffers still referenced by live sources
     * survive untouched.
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

    /** What the registered plans say about one acquisition. */
    struct PlannedUse
    {
        bool planned = false;            ///< Some plan lists the key.
        std::uint64_t later_uses = 0;    ///< Planned uses after this one.
        std::uint64_t pinned_bytes = 0;  ///< Largest System's trace.
    };

    /**
     * Count one acquisition of `key` against the registered plans: it
     * takes a planned use from the first plan with one left (locked).
     */
    PlannedUse claimPlannedUse(const Key &key);

    /** Orders keys by stream, then core. */
    static bool
    keyLess(const Key &a, const Key &b)
    {
        return std::tie(a.workload, a.seed, a.translated, a.core) <
               std::tie(b.workload, b.seed, b.translated, b.core);
    }

    /** Evict LRU unreferenced buffers while over budget (locked). */
    void evictOverBudget();

    mutable std::mutex mutex_;
    std::uint64_t budget_bytes_;
    /// Declared before buffers_, which give their chunks back to it.
    ChunkStore chunks_;
    std::unordered_map<Key, Slot, KeyHash> buffers_;
    std::list<Key> lru_;
    Plan *plans_ = nullptr;  ///< Registered plans, linked by next_.
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> evictions_{0};
    std::atomic<std::uint64_t> bypasses_{0};
    std::atomic<std::uint64_t> records_generated_{0};
};

/**
 * A sweep's plan, registered with `cache` for the object's lifetime:
 * `systems` lists every System the sweep will build (see the file
 * comment for how acquire() uses it). The plan turns that list into
 * one sorted use count per stream and core before it links itself into
 * the cache's list of plans, so registering allocates nothing under
 * the cache's mutex.
 */
class TraceCache::Plan
{
  public:
    Plan(TraceCache &cache, const std::vector<TraceDemand> &systems);
    ~Plan();

    Plan(const Plan &) = delete;
    Plan &operator=(const Plan &) = delete;

  private:
    friend class TraceCache;

    /** One core's stream: the Systems that plan it, and how many of
     *  them have acquired it. */
    struct Use
    {
        Key key;
        std::uint64_t systems = 0;
        std::uint64_t acquired = 0;
        std::uint64_t pinned_bytes = 0;  ///< Largest System's trace.
    };

    TraceCache &cache_;
    /// Sorted by key; once registered, only `acquired` changes, under
    /// the cache's mutex.
    std::vector<Use> uses_;
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
