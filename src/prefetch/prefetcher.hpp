/**
 * @file
 * Prefetcher interface and shared helpers.
 *
 * All prefetchers observe the LLC demand access stream (hits and
 * misses) of one core, as in the paper: "All methods are triggered upon
 * LLC accesses and prefetch directly into the LLC." A prefetcher
 * returns candidate block addresses; the system issues them into the
 * LLC. Eviction events are broadcast so PPH prefetchers can close page
 * generations.
 */

#ifndef BINGO_PREFETCH_PREFETCHER_HPP
#define BINGO_PREFETCH_PREFETCHER_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace bingo
{

/** One LLC demand access as seen by a prefetcher. */
struct PrefetchAccess
{
    Addr pc = 0;
    Addr block = 0;     ///< Block-aligned byte address.
    CoreId core = 0;
    bool hit = false;
    AccessType type = AccessType::Load;
    Cycle cycle = 0;
};

/** Base class of every prefetcher. */
class Prefetcher
{
  public:
    explicit Prefetcher(const PrefetcherConfig &config)
        : config_(config)
    {
    }

    virtual ~Prefetcher() = default;

    /**
     * Observe a demand access; append prefetch candidates (block
     * addresses) to `out`.
     */
    virtual void onAccess(const PrefetchAccess &access,
                          std::vector<Addr> &out) = 0;

    /** A block left the LLC (eviction or invalidation). */
    virtual void onEviction(Addr block) { (void)block; }

    /**
     * Chaos hook: flip one bit (or a comparably small unit) of this
     * prefetcher's metadata, choosing the victim entry from `rng`.
     * Models a soft error in the metadata SRAM — the model must
     * tolerate any resulting state (mispredictions are fine, crashes
     * are not; the GuardedPrefetcher wrapper quarantines the latter).
     * The default is a no-op for models without perturbable state.
     */
    virtual void perturbMetadata(Rng &rng) { (void)rng; }

    /** Display name matching the paper's figures. */
    virtual std::string name() const = 0;

    const PrefetcherConfig &config() const { return config_; }
    const StatSet &stats() const { return stats_; }
    StatSet &stats() { return stats_; }

    /**
     * Report this prefetcher's StatSet into `out` under `prefix`.
     * Virtual so wrappers can report both their own and the wrapped
     * models' counters.
     */
    virtual void metrics(const std::string &prefix, MetricMap &out) const;

  protected:
    PrefetcherConfig config_;
    StatSet stats_;
};

/** Instantiate the prefetcher selected by `config.kind`. */
std::unique_ptr<Prefetcher> makePrefetcher(const PrefetcherConfig &config);

/**
 * Resolve a lower-case command-line name ("bingo", "isb", ...) to its
 * PrefetcherKind. Throws std::invalid_argument listing every
 * registered name when `name` is unknown.
 */
PrefetcherKind prefetcherKindFromName(const std::string &name);

/** Every registered command-line name, in registry order. */
std::vector<std::string> registeredPrefetcherNames();

/**
 * The five trigger-event heuristics of the paper's Figure 2, longest
 * to shortest. Each maps a trigger access to the 64-bit key the history
 * table is searched with.
 */
enum class EventKind : unsigned
{
    PcAddress = 0,  ///< PC of trigger + trigger block address.
    PcOffset = 1,   ///< PC of trigger + offset within the region.
    Pc = 2,
    Address = 3,    ///< Trigger block address alone.
    Offset = 4,     ///< Offset within the region alone.
};

/** Number of EventKind values. */
constexpr unsigned kNumEventKinds = 5;

/** Display name of an event heuristic. */
std::string eventKindName(EventKind kind);

/** Compute the event key of `kind` for a trigger (pc, block address). */
std::uint64_t eventKey(EventKind kind, Addr pc, Addr block);

} // namespace bingo

#endif // BINGO_PREFETCH_PREFETCHER_HPP
