/**
 * @file
 * Quarantine wrapper: graceful degradation for faulty prefetchers.
 *
 * A buggy or chaos-perturbed prefetcher model must never take down a
 * run — the run completes prefetcher-off and the sweep records a
 * DEGRADED verdict instead of aborting. GuardedPrefetcher wraps any
 * model and intercepts every virtual entry point: a SimError or other
 * exception escaping the model, a candidate outside the physical
 * address space, or a runaway candidate burst quarantines the model
 * mid-run. Once quarantined the wrapper swallows all further calls
 * (the machine keeps running, prefetcher-off) and remembers the first
 * failure's reason and cycle for the JobOutcome / run.json verdict.
 */

#ifndef BINGO_CHAOS_GUARDED_PREFETCHER_HPP
#define BINGO_CHAOS_GUARDED_PREFETCHER_HPP

#include <memory>
#include <string>
#include <vector>

#include "prefetch/prefetcher.hpp"

namespace bingo::chaos
{

/** Fault-isolating wrapper around any Prefetcher (see file comment). */
class GuardedPrefetcher : public Prefetcher
{
  public:
    /// Candidate-burst bound per access: no real model emits more than
    /// a region's worth of blocks times a small degree; thousands mean
    /// the model is looping.
    static constexpr std::size_t kMaxCandidatesPerAccess = 512;

    /// Physical addresses are < 2^50 (38-bit PPN + 12-bit page offset);
    /// a candidate at or above this bound is fabricated, not mapped.
    static constexpr Addr kMaxCandidateAddr = 1ULL << 52;

    GuardedPrefetcher(std::unique_ptr<Prefetcher> inner,
                      std::string component);

    void onAccess(const PrefetchAccess &access,
                  std::vector<Addr> &out) override;
    void onEviction(Addr block) override;
    void perturbMetadata(Rng &rng) override;
    std::string name() const override { return name_; }

    /** Report the guard's own counters under `prefix`+"guard." and the
     *  wrapped model's under `prefix` (clean-run keys unchanged). */
    void metrics(const std::string &prefix,
                 MetricMap &out) const override;

    /**
     * Arm a chaos-injected fault: the next onAccess throws inside the
     * guarded region, exercising the real quarantine path.
     */
    void injectFault() { fault_pending_ = true; }

    bool quarantined() const { return quarantined_; }
    const std::string &quarantineReason() const { return reason_; }
    Cycle quarantineCycle() const { return quarantine_cycle_; }

    /** The wrapped model (valid for the wrapper's lifetime). */
    Prefetcher *inner() const { return inner_.get(); }

  private:
    void quarantine(Cycle cycle, const std::string &reason);

    std::unique_ptr<Prefetcher> inner_;
    std::string component_;
    std::string name_;
    bool fault_pending_ = false;
    bool quarantined_ = false;
    std::string reason_;
    Cycle quarantine_cycle_ = 0;
};

} // namespace bingo::chaos

#endif // BINGO_CHAOS_GUARDED_PREFETCHER_HPP
