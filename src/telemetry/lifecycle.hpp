/**
 * @file
 * Prefetch lifecycle tracker: measures *timeliness*, the dimension the
 * aggregate useful/useless counters hide.
 *
 * The cache reports four events per prefetched block — issue (MSHR
 * allocated), fill (block installed), first demand use, and unused
 * eviction — and the tracker resolves them into:
 *
 *  - **issue-to-fill** distance: how long the memory system took to
 *    bring the block in (a histogram);
 *  - **fill-to-first-use** distance: how far ahead of the demand the
 *    prefetch ran (a histogram; long tails indicate cache pollution
 *    risk, short ones indicate barely-in-time prefetching);
 *  - a **timely / late / unused** classification per block: timely
 *    blocks were resident before their first demand, late blocks were
 *    still in flight when the demand arrived (the demand merged into
 *    the prefetch's MSHR and ate part of the miss), unused blocks were
 *    evicted untouched.
 *
 * Per-block state lives in a hash map keyed by block address, bounded
 * by MSHRs in flight plus resident prefetched blocks. The tracker is
 * only wired into a cache when telemetry is enabled; a disabled run
 * pays one null-pointer branch per event site.
 */

#ifndef BINGO_TELEMETRY_LIFECYCLE_HPP
#define BINGO_TELEMETRY_LIFECYCLE_HPP

#include <cstdint>
#include <unordered_map>

#include "common/types.hpp"
#include "telemetry/histogram.hpp"

namespace bingo::telemetry
{

/**
 * Terminal classification of one prefetched block. The lifecycle
 * tracker resolves cache events into these verdicts for telemetry;
 * the hybrid arbiter keeps its own always-on bookkeeping in the same
 * vocabulary (so its per-engine attribution lines up with the
 * lifecycle columns in the benches) without depending on telemetry
 * being enabled.
 */
enum class PrefetchVerdict : std::uint8_t
{
    Timely,  ///< Resident before its first demand.
    Late,    ///< Demanded while still in flight.
    Unused,  ///< Evicted (or displaced) untouched.
};

/** Lower-case display name of a verdict ("timely"/"late"/"unused"). */
const char *verdictName(PrefetchVerdict verdict);

/** Tracks every in-flight / resident prefetched block of one cache. */
class PrefetchLifecycle
{
  public:
    /** A prefetch took an MSHR at `now`. */
    void onIssue(Addr block, Cycle now);

    /** The prefetched `block` was installed at `now`. */
    void onFill(Addr block, Cycle now);

    /** First demand hit on the resident prefetched `block` (timely). */
    void onDemandHit(Addr block, Cycle now);

    /** A demand merged into the in-flight prefetch's MSHR (late). */
    void onLateMerge(Addr block, Cycle now);

    /** The still-unused prefetched `block` was evicted. */
    void onEvictUnused(Addr block);

    /** Clear distributions and verdicts; keep in-flight state. */
    void resetStats();

    std::uint64_t timely() const { return timely_; }
    std::uint64_t late() const { return late_; }
    std::uint64_t unused() const { return unused_; }
    /** Blocks issued but not yet used/evicted (end-of-run leftover). */
    std::uint64_t liveEntries() const { return live_.size(); }

    const LogHistogram &issueToFill() const { return issue_to_fill_; }
    const LogHistogram &fillToFirstUse() const
    {
        return fill_to_first_use_;
    }

  private:
    struct Entry
    {
        Cycle issue = 0;
        Cycle fill = 0;
        bool filled = false;
        bool late = false;
    };

    std::unordered_map<Addr, Entry> live_;
    LogHistogram issue_to_fill_;
    LogHistogram fill_to_first_use_;
    std::uint64_t timely_ = 0;
    std::uint64_t late_ = 0;
    std::uint64_t unused_ = 0;
};

} // namespace bingo::telemetry

#endif // BINGO_TELEMETRY_LIFECYCLE_HPP
