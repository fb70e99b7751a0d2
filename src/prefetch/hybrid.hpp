/**
 * @file
 * Hybrid prefetcher: N engines behind one `Prefetcher` interface, with
 * a per-PC accuracy arbiter routing the issue bandwidth.
 *
 * Every engine observes every LLC access (training is never gated, so
 * each engine's metadata evolves exactly as it would standalone), but
 * what actually gets issued is decided by the arbiter:
 *
 *  - A **tracker** table remembers each issued block together with the
 *    requesting PC and the set of engines that proposed it. Cache
 *    events resolve tracked blocks into timely / late / unused
 *    verdicts (the PrefetchLifecycle vocabulary, but maintained
 *    internally so arbitration works with telemetry off).
 *  - A **per-PC table** keeps a windowed timely/unused event count
 *    per engine and derives each confidence as the accuracy ratio
 *    over that window (late is neutral: the idea was right, the
 *    timing was not). A ratio — unlike a saturating up/down walk —
 *    survives the eviction-time bursts in which unused verdicts
 *    arrive: a burst dips the confidence in proportion to its share
 *    of the window instead of wiping out the accumulated history,
 *    so only genuinely inaccurate engines sink to the mute point.
 *  - On each access the engines are ranked by their counter for the
 *    triggering PC; candidates are issued in rank order under a
 *    per-engine allowance and a global per-access budget. Trusted
 *    engines (top quarter of the counter scale) get the whole budget,
 *    fully distrusted ones are muted apart from a periodic probe, and
 *    in between the allowance scales linearly with confidence. Blocks
 *    proposed by several engines are issued once, and every proposer
 *    shares the verdict credit.
 *
 * The composition is declared in `PrefetcherConfig::hybrid_engines`
 * and each engine is built through the regular factory, so anything
 * the factory can name can be federated.
 */

#ifndef BINGO_PREFETCH_HYBRID_HPP
#define BINGO_PREFETCH_HYBRID_HPP

#include <array>
#include <memory>

#include "common/table.hpp"
#include "prefetch/prefetcher.hpp"
#include "telemetry/lifecycle.hpp"

namespace bingo
{

/** Per-PC confidence-arbitrated multi-engine prefetcher. */
class HybridPrefetcher : public Prefetcher
{
  public:
    explicit HybridPrefetcher(const PrefetcherConfig &config);

    void onAccess(const PrefetchAccess &access,
                  std::vector<Addr> &out) override;
    void onEviction(Addr block) override;
    void perturbMetadata(Rng &rng) override;

    std::string name() const override { return "Hybrid"; }

    /** Own counters plus each engine's under `prefix<engine>.`. */
    void metrics(const std::string &prefix,
                 MetricMap &out) const override;

    /** Hosted engines (tests/diagnostics). */
    std::size_t engineCount() const { return engines_.size(); }
    const Prefetcher &engine(std::size_t i) const
    {
        return *engines_[i];
    }

    /** Arbiter confidence of `engine_index` for `pc` (tests). */
    unsigned confidenceFor(Addr pc, std::size_t engine_index);

    /** Issued blocks awaiting a verdict (tests/diagnostics). */
    std::size_t trackerOccupancy() const
    {
        return tracker_.occupancy();
    }

  private:
    static constexpr std::size_t kMaxEngines = 8;
    static constexpr std::size_t kWays = 8;
    /// A muted (conf-0) engine still issues one candidate every this
    /// many accesses of the PC that muted it, so its verdict counts
    /// keep collecting evidence and a recovery path stays open.
    static constexpr std::uint8_t kProbePeriod = 64;
    /// Verdict counts are halved every this many accesses of the PC.
    /// Aging by the PC's own access clock — never by verdict arrival —
    /// is what makes the ratio burst-proof: a PC's unused verdicts
    /// arrive in huge consecutive runs (its untouched blocks are the
    /// LLC's coldest and age out together, often while the PC is
    /// quiescent), and an event-ordered window would let one run erase
    /// the whole timely history. With saturating counts between
    /// halvings, the worst such run drags confidence to mid-scale,
    /// no further.
    static constexpr unsigned kAgePeriod = 128;
    /// Verdicts needed before the window overrides the optimistic
    /// initial confidence.
    static constexpr unsigned kMinEvidence = 8;

    /** Per-engine accuracy state of one PC. */
    struct PcEntry
    {
        /// Derived confidence (0..cmax), recomputed from the verdict
        /// window on every resolved verdict.
        std::array<std::uint8_t, kMaxEngines> conf{};
        /// Accesses since each muted engine's last probe.
        std::array<std::uint8_t, kMaxEngines> probe{};
        /// Saturating timely/unused verdict counts, halved together
        /// every kAgePeriod accesses of the PC.
        std::array<std::uint8_t, kMaxEngines> timely{};
        std::array<std::uint8_t, kMaxEngines> unused{};
        /// Accesses since the verdict counts last aged.
        std::uint8_t age = 0;
    };

    /** One issued block awaiting its verdict. */
    struct TrackEntry
    {
        Addr pc = 0;
        std::uint8_t mask = 0;  ///< Engines that proposed the block.
    };

    /** Fold a resolved verdict into the proposers' PC counters. */
    void applyVerdict(const TrackEntry &tracked,
                      telemetry::PrefetchVerdict verdict);

    std::vector<std::unique_ptr<Prefetcher>> engines_;
    std::vector<std::string> engine_keys_;  ///< Lower-case names.
    SetAssocTable<PcEntry> pc_table_;
    SetAssocTable<TrackEntry> tracker_;
    unsigned counter_bits_;
    unsigned cmax_;       ///< Counter saturation value.
    unsigned init_conf_;  ///< Optimistic mid-scale start.
    unsigned budget_;     ///< Global issue budget per access.
    /// Per-engine candidate scratch, reused across accesses.
    std::vector<std::vector<Addr>> scratch_;

    /// Stat names are built once so CachedStat sees stable storage.
    std::vector<std::array<std::string, 4>> stat_names_;
    std::array<std::array<CachedStat, 4>, kMaxEngines> engine_stats_;
    CachedStat dup_suppressed_stat_;
};

} // namespace bingo

#endif // BINGO_PREFETCH_HYBRID_HPP
