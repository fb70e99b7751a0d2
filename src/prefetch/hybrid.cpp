#include "prefetch/hybrid.hpp"

#include <algorithm>
#include <cctype>

#include "common/hash.hpp"

namespace bingo
{

namespace
{

std::string
lowered(std::string name)
{
    for (char &c : name)
        c = static_cast<char>(
            std::tolower(static_cast<unsigned char>(c)));
    return name;
}

} // namespace

HybridPrefetcher::HybridPrefetcher(const PrefetcherConfig &config)
    : Prefetcher(config),
      pc_table_(config.hybrid_pc_entries / kWays, kWays),
      tracker_(config.hybrid_tracker_entries / kWays, kWays),
      counter_bits_(config.hybrid_counter_bits),
      cmax_((1U << config.hybrid_counter_bits) - 1),
      init_conf_((cmax_ + 1) / 2),
      budget_(config.hybrid_issue_budget)
{
    for (PrefetcherKind kind : config.hybrid_engines) {
        PrefetcherConfig sub = config;
        sub.kind = kind;
        engines_.push_back(makePrefetcher(sub));
        engine_keys_.push_back(lowered(engines_.back()->name()));
    }
    scratch_.resize(engines_.size());
    for (const std::string &key : engine_keys_)
        stat_names_.push_back({"issued." + key, "timely." + key,
                               "late." + key, "unused." + key});
}

void
HybridPrefetcher::applyVerdict(const TrackEntry &tracked,
                               telemetry::PrefetchVerdict verdict)
{
    for (std::size_t i = 0; i < engines_.size(); ++i) {
        if ((tracked.mask & (1U << i)) == 0)
            continue;
        engine_stats_[i][1 + static_cast<std::size_t>(verdict)].bump(
            stats_, stat_names_[i][1 + static_cast<std::size_t>(verdict)]
                        .c_str());
        if (verdict == telemetry::PrefetchVerdict::Late)
            continue;  // Right idea, wrong timing: neutral.
        auto *entry = pc_table_.find(
            pc_table_.setIndex(mix64(tracked.pc)), tracked.pc,
            /*touch=*/false);
        if (entry == nullptr)
            continue;  // The PC's counters were evicted meanwhile.
        std::uint8_t &conf = entry->data.conf[i];
        // Confidence is an accuracy ratio over saturating verdict
        // counts, not a saturating up/down walk — a walk has only cmax
        // points of headroom, so one burst of unused verdicts would
        // zero out a PC whose lifetime record is strongly timely.
        // Counts only grow here; they age on the PC's access clock
        // (see onAccess), which keeps the estimate burst-proof.
        std::uint8_t &t = entry->data.timely[i];
        std::uint8_t &u = entry->data.unused[i];
        if (verdict == telemetry::PrefetchVerdict::Timely)
            t = static_cast<std::uint8_t>(std::min(255, t + 1));
        else
            u = static_cast<std::uint8_t>(std::min(255, u + 1));
        const unsigned sum = static_cast<unsigned>(t) + u;
        if (sum >= kMinEvidence)
            conf = static_cast<std::uint8_t>(
                std::min(cmax_, ((cmax_ + 1) * t) / sum));
    }
}

void
HybridPrefetcher::onAccess(const PrefetchAccess &access,
                           std::vector<Addr> &out)
{
    // Resolve the verdict of a demanded tracked block first: a hit
    // means the prefetch arrived in time, a miss means it was issued
    // but not resident (late / lost).
    const std::size_t tset = tracker_.setIndex(mix64(access.block));
    if (auto *tracked = tracker_.find(tset, access.block,
                                      /*touch=*/false)) {
        applyVerdict(tracked->data,
                     access.hit ? telemetry::PrefetchVerdict::Timely
                                : telemetry::PrefetchVerdict::Late);
        tracker_.erase(tset, access.block);
    }

    // Every engine trains on every access — routing never distorts
    // what an engine learns, only what it gets to issue.
    for (std::size_t i = 0; i < engines_.size(); ++i) {
        scratch_[i].clear();
        engines_[i]->onAccess(access, scratch_[i]);
    }

    // Rank engines by their confidence for the triggering PC.
    const std::size_t pset = pc_table_.setIndex(mix64(access.pc));
    auto *pc_entry = pc_table_.find(pset, access.pc);
    if (pc_entry == nullptr) {
        PcEntry fresh;
        fresh.conf.fill(static_cast<std::uint8_t>(init_conf_));
        pc_entry = &pc_table_.insert(pset, access.pc, fresh);
    }
    // Age the verdict counts on the PC's own access clock. When the
    // evidence thins below the bar the last estimate stands — a muted
    // engine recovers only by earning timely probe verdicts, not by
    // waiting its blame out (a flood-prone engine's probes keep its
    // blame alive, an accurate one's probes lift it quickly).
    if (++pc_entry->data.age >= kAgePeriod) {
        pc_entry->data.age = 0;
        for (std::size_t i = 0; i < engines_.size(); ++i) {
            std::uint8_t &t = pc_entry->data.timely[i];
            std::uint8_t &u = pc_entry->data.unused[i];
            t = static_cast<std::uint8_t>(t / 2);
            u = static_cast<std::uint8_t>(u / 2);
            const unsigned sum = static_cast<unsigned>(t) + u;
            if (sum >= kMinEvidence)
                pc_entry->data.conf[i] = static_cast<std::uint8_t>(
                    std::min(cmax_, ((cmax_ + 1) * t) / sum));
        }
    }
    const PcEntry &pc_conf = pc_entry->data;

    std::array<std::size_t, kMaxEngines> order{};
    for (std::size_t i = 0; i < engines_.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(),
                     order.begin() +
                         static_cast<std::ptrdiff_t>(engines_.size()),
                     [&pc_conf](std::size_t a, std::size_t b) {
                         return pc_conf.conf[a] > pc_conf.conf[b];
                     });

    // Issue in rank order: per-engine allowance scales with
    // confidence, the global budget caps the access, and a block
    // proposed by several engines is issued once with shared credit.
    struct Issued
    {
        Addr block;
        std::uint8_t mask;
    };
    std::array<Issued, 64> issued{};
    std::size_t n_issued = 0;
    for (std::size_t rank = 0; rank < engines_.size(); ++rank) {
        const std::size_t idx = order[rank];
        const unsigned conf = pc_conf.conf[idx];
        // Allowance policy: an engine that is right at least half the
        // time gets the whole budget — a prefetch that hits one access
        // in two is already a net win, and truncating a footprint is
        // costly because engines do not re-propose dropped candidates.
        // A fully distrusted engine is muted outright — its junk would
        // evict the good engines' prefetches — except for a periodic
        // probe access that keeps a recovery path open; in between,
        // the allowance scales linearly with confidence.
        unsigned allowance;
        const unsigned trust = (cmax_ + 1) / 2;
        if (conf >= trust) {
            allowance = budget_;
        } else if (conf > 0) {
            // Scale against the trust point, not the counter range:
            // an engine halfway back to trusted gets half the budget,
            // so a recovery climb is not starved of the verdicts it
            // needs to finish.
            allowance = std::max(1U, budget_ * conf / trust);
        } else {
            // A muted engine issues nothing, so its verdict counts
            // would freeze and the mute would be absorbing. The
            // periodic probe keeps evidence flowing: if the engine has
            // become accurate, probe timelies tilt the ratio until the
            // confidence lifts off zero on its own. The probe stays
            // armed until the engine actually gets a candidate taken
            // (the clock resets below, after the issue loop) — many
            // engines only propose on specific accesses, e.g. a region
            // activation, and a probe burned on an empty candidate
            // list would starve the recovery path.
            std::uint8_t &clock = pc_entry->data.probe[idx];
            if (clock < kProbePeriod)
                ++clock;
            allowance = clock >= kProbePeriod ? 1U : 0U;
        }
        unsigned taken = 0;
        for (Addr cand : scratch_[idx]) {
            if (taken >= allowance || n_issued >= budget_ ||
                n_issued >= issued.size())
                break;
            bool duplicate = false;
            for (std::size_t j = 0; j < n_issued; ++j) {
                if (issued[j].block == cand) {
                    // Another engine already claimed the slot; this
                    // one still earns a share of the verdict.
                    issued[j].mask |=
                        static_cast<std::uint8_t>(1U << idx);
                    dup_suppressed_stat_.bump(stats_,
                                              "dup_suppressed");
                    duplicate = true;
                    break;
                }
            }
            if (duplicate)
                continue;
            issued[n_issued++] = {
                cand, static_cast<std::uint8_t>(1U << idx)};
            ++taken;
            engine_stats_[idx][0].bump(stats_,
                                       stat_names_[idx][0].c_str());
        }
        if (conf == 0 && taken > 0)
            pc_entry->data.probe[idx] = 0;  // Probe consumed.
    }

    for (std::size_t j = 0; j < n_issued; ++j) {
        out.push_back(issued[j].block);
        // A re-issued block inherits the fresh proposers; an LRU
        // eviction here silently drops a pending verdict, which only
        // costs a little counter learning.
        tracker_.insert(tracker_.setIndex(mix64(issued[j].block)),
                        issued[j].block,
                        TrackEntry{access.pc, issued[j].mask});
    }
}

void
HybridPrefetcher::onEviction(Addr block)
{
    // A tracked block leaving the LLC untouched is an unused
    // prefetch; decay its proposers.
    const std::size_t tset = tracker_.setIndex(mix64(block));
    if (auto *tracked = tracker_.find(tset, block, /*touch=*/false)) {
        applyVerdict(tracked->data,
                     telemetry::PrefetchVerdict::Unused);
        tracker_.erase(tset, block);
    }
    for (auto &engine : engines_)
        engine->onEviction(block);
}

unsigned
HybridPrefetcher::confidenceFor(Addr pc, std::size_t engine_index)
{
    auto *entry = pc_table_.find(pc_table_.setIndex(mix64(pc)), pc,
                                 /*touch=*/false);
    if (entry == nullptr)
        return init_conf_;
    return entry->data.conf[engine_index];
}

void
HybridPrefetcher::perturbMetadata(Rng &rng)
{
    // Either forward the fault into one engine's metadata or flip a
    // bit of the arbiter's own confidence state. The draw count is
    // fixed per site so the fault schedule stays deterministic.
    const std::uint64_t draw = rng.below(engines_.size() + 1);
    if (draw < engines_.size()) {
        engines_[draw]->perturbMetadata(rng);
        return;
    }
    const std::uint64_t victim = rng.below(pc_table_.capacity());
    const std::uint64_t bit_draw = rng.next();
    auto &entry = pc_table_.entryAt(victim);
    if (!entry.valid)
        return;  // Invalid victim consumes the draws.
    std::uint8_t &conf =
        entry.data.conf[bit_draw % engines_.size()];
    conf ^= static_cast<std::uint8_t>(
        1U << ((bit_draw >> 8) % counter_bits_));
}

void
HybridPrefetcher::metrics(const std::string &prefix, MetricMap &out) const
{
    Prefetcher::metrics(prefix, out);
    for (std::size_t i = 0; i < engines_.size(); ++i)
        engines_[i]->metrics(prefix + engine_keys_[i] + ".", out);
}

} // namespace bingo
