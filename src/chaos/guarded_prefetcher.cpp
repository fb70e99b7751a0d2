#include "chaos/guarded_prefetcher.hpp"

#include <cstdio>

#include "common/sim_check.hpp"

namespace bingo::chaos
{

GuardedPrefetcher::GuardedPrefetcher(std::unique_ptr<Prefetcher> inner,
                                     std::string component)
    : Prefetcher(inner->config()), inner_(std::move(inner)),
      component_(std::move(component)), name_(inner_->name())
{
}

void
GuardedPrefetcher::quarantine(Cycle cycle, const std::string &reason)
{
    quarantined_ = true;
    reason_ = reason;
    quarantine_cycle_ = cycle;
    stats_.add("quarantined");
    stats_.set("quarantine_cycle", cycle);
}

void
GuardedPrefetcher::onAccess(const PrefetchAccess &access,
                            std::vector<Addr> &out)
{
    if (quarantined_)
        return;
    const std::size_t before = out.size();
    try {
        if (fault_pending_) {
            fault_pending_ = false;
            throw SimError(component_, access.cycle,
                           "chaos-injected prefetcher fault");
        }
        inner_->onAccess(access, out);
        if (out.size() - before > kMaxCandidatesPerAccess)
            throw SimError(
                component_, access.cycle,
                name_ + " emitted " +
                    std::to_string(out.size() - before) +
                    " candidates in one access (bound " +
                    std::to_string(kMaxCandidatesPerAccess) + ")");
        for (std::size_t i = before; i < out.size(); ++i) {
            if (out[i] >= kMaxCandidateAddr) {
                char buf[32];
                std::snprintf(buf, sizeof buf, "0x%llx",
                              static_cast<unsigned long long>(out[i]));
                throw SimError(component_, access.cycle,
                               name_ +
                                   " emitted out-of-range candidate " +
                                   buf);
            }
        }
    } catch (const std::exception &e) {
        out.resize(before);
        quarantine(access.cycle, e.what());
    } catch (...) {
        out.resize(before);
        quarantine(access.cycle, "unknown exception");
    }
}

void
GuardedPrefetcher::onEviction(Addr block)
{
    if (quarantined_)
        return;
    try {
        inner_->onEviction(block);
    } catch (const std::exception &e) {
        quarantine(0, e.what());
    } catch (...) {
        quarantine(0, "unknown exception");
    }
}

void
GuardedPrefetcher::perturbMetadata(Rng &rng)
{
    if (quarantined_)
        return;
    try {
        inner_->perturbMetadata(rng);
    } catch (const std::exception &e) {
        quarantine(0, e.what());
    } catch (...) {
        quarantine(0, "unknown exception");
    }
}

void
GuardedPrefetcher::metrics(const std::string &prefix, MetricMap &out) const
{
    // The wrapped model keeps its usual keys so clean-run telemetry is
    // unchanged; the guard's verdict counters live one level down.
    inner_->metrics(prefix, out);
    Prefetcher::metrics(prefix + "guard.", out);
}

} // namespace bingo::chaos
