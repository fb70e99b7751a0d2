#include "sim/system.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "common/periodic_gate.hpp"
#include "common/sim_check.hpp"
#include "workload/trace_cache.hpp"

namespace bingo
{

namespace
{

/**
 * Cycles between watchdog/self-check pauses: frequent enough that a
 * tiny BINGO_JOB_TIMEOUT_S fires within any realistic run, rare
 * enough that the steady_clock read is invisible in the profile.
 */
constexpr Cycle kCheckIntervalMask = 0xFFF;

/**
 * Cycles between telemetry epoch-boundary checks. Denser than the
 * watchdog mask so epoch edges land within ~256 cycles of the exact
 * instruction boundary, still far too sparse to show in a profile.
 */
constexpr Cycle kEpochCheckMask = 0xFF;

/**
 * Whether BINGO_NO_SKIP disables the fast-forward path ("" or "0"
 * leave it on, mirroring the other BINGO_* switches). Read once.
 */
bool
skipDisabledByEnv()
{
    static const bool disabled = [] {
        const char *value = std::getenv("BINGO_NO_SKIP");
        return value != nullptr && *value != '\0' &&
               !(value[0] == '0' && value[1] == '\0');
    }();
    return disabled;
}

} // namespace

System::System(const SystemConfig &config, const std::string &workload)
    : config_(config)
{
    std::vector<std::unique_ptr<TraceSource>> sources;
    sources.reserve(config.num_cores);
    // Through the process-wide trace cache: sweep jobs that share a
    // (workload, core, seed) replay one generated buffer instead of
    // regenerating. Without trace-site chaos the cached stream is
    // pre-composed with the (seed-determined) address translation, so
    // replay is a raw borrow with no per-record work; trace chaos
    // must corrupt *virtual* addresses, so those runs take the
    // virtual buffer and layer corruption + translation per System in
    // build(). Either way sharing cannot couple runs.
    const bool translated = replaysTranslatedStreams(config);
    for (CoreId c = 0; c < config.num_cores; ++c) {
        sources.push_back(
            acquireWorkloadSource(workload, c, config.seed, translated));
    }
    build(std::move(sources), /*pre_translated=*/translated);
}

bool
System::replaysTranslatedStreams(const SystemConfig &config)
{
    return !config.chaos.enabled ||
           (config.chaos.site_mask &
            chaos::siteBit(chaos::ChaosSite::Trace)) == 0;
}

System::System(const SystemConfig &config,
               std::vector<std::unique_ptr<TraceSource>> sources)
    : config_(config)
{
    if (sources.size() != config.num_cores)
        throw std::invalid_argument(
            "System: got " + std::to_string(sources.size()) +
            " trace sources for " + std::to_string(config.num_cores) +
            " cores");
    build(std::move(sources));
}

void
System::build(std::vector<std::unique_ptr<TraceSource>> sources,
              bool pre_translated)
{
    skip_enabled_ = !skipDisabledByEnv();
    if (config_.chaos.enabled)
        chaos_ = std::make_unique<chaos::ChaosEngine>(config_.chaos,
                                                      config_.seed);
    // The shadow model only exists under BINGO_CHECK: it costs a map
    // insert per store and a full cache walk per check interval.
    if (simCheckEnabled())
        shadow_ = std::make_unique<chaos::ShadowMemory>();
    // Random first-touch translation (Section V): scramble page
    // numbers so the synthetic heaps' alignment regularities do not
    // alias in the physically-indexed LLC and DRAM banks.
    translator_ = AddressTranslator(config_.seed);
    sources_.clear();
    sources_.reserve(sources.size());
    for (CoreId c = 0; c < sources.size(); ++c) {
        std::unique_ptr<TraceSource> source = std::move(sources[c]);
        if (pre_translated) {
            // The stream already carries physical addresses (composed
            // with the same seed-derived translation at generation
            // time): hand it to the core untouched, so cached replay
            // stays a zero-copy borrow.
            sources_.push_back(std::move(source));
            continue;
        }
        // Trace corruption sits under the translation layer: it flips
        // bits of *virtual* addresses, so the translator's own guards
        // stay exercised and corruption can land anywhere.
        if (chaos_ && chaos_->siteEnabled(chaos::ChaosSite::Trace)) {
            source = std::make_unique<chaos::ChaosTraceSource>(
                std::move(source), chaos_->config().rate,
                chaos_->traceSeed(c),
                &chaos_->counters().trace_corruptions);
        }
        sources_.push_back(std::make_unique<TranslatingSource>(
            std::move(source), translator_));
    }

    dram_ = std::make_unique<DramController>(config_.dram);
    dram_lower_ = std::make_unique<DramLower>(*dram_, events_);
    llc_ = std::make_unique<Cache>("LLC", config_.llc, events_,
                                   *dram_lower_);
    llc_lower_ = std::make_unique<CacheLower>(*llc_);

    for (CoreId c = 0; c < config_.num_cores; ++c) {
        l1ds_.push_back(std::make_unique<Cache>(
            "L1D" + std::to_string(c), config_.l1d, events_,
            *llc_lower_));
        cores_.push_back(std::make_unique<OooCore>(
            c, config_.core, *l1ds_.back(), *sources_[c]));
        // Every model runs behind a quarantine wrapper: a faulty
        // prefetcher degrades the run instead of aborting it.
        std::unique_ptr<Prefetcher> model =
            makePrefetcher(config_.prefetcher);
        if (model != nullptr) {
            auto guard = std::make_unique<chaos::GuardedPrefetcher>(
                std::move(model), "pf" + std::to_string(c));
            guards_.push_back(guard.get());
            prefetchers_.push_back(std::move(guard));
        } else {
            guards_.push_back(nullptr);
            prefetchers_.push_back(nullptr);
        }
    }

    if (shadow_) {
        // Every store access fires its L1D's hook exactly once (hit
        // and miss paths both), and core c's L1D sees only core c's
        // accesses — so the shadow learns exact per-core write
        // provenance.
        for (auto &l1 : l1ds_) {
            l1->setAccessHook([this](const MemAccess &access, bool,
                                     Cycle) {
                if (access.type == AccessType::Store)
                    shadow_->recordWrite(access.block, access.core);
            });
        }
    }

    if (chaos_ && chaos_->siteEnabled(chaos::ChaosSite::Mshr)) {
        llc_->setMshrPressureHook([this] {
            if (!chaos_->fires(chaos::ChaosSite::Mshr))
                return false;
            ++chaos_->counters().mshr_spikes;
            return true;
        });
    }

    if (chaos_ && chaos_->siteEnabled(chaos::ChaosSite::Dram)) {
        dram_lower_->setFaultHook([this](const MemAccess &access,
                                         Cycle /*now*/,
                                         Cycle completion) {
            if (!chaos_->fires(chaos::ChaosSite::Dram))
                return completion;
            Rng &rng = chaos_->stream(chaos::ChaosSite::Dram);
            if (rng.next() & 1) {
                // Wedged response: the data limps home late.
                ++chaos_->counters().dram_delays;
                return completion + rng.range(1, 200);
            }
            // Dropped response: the controller re-issues the read
            // after a detection gap; the retry re-runs the full bank
            // timing (DramController::read classifies each call once,
            // so counter identities hold).
            ++chaos_->counters().dram_drops;
            return dram_->read(access.block,
                               completion + rng.range(16, 64));
        });
    }

    // LLC demand accesses train the requesting core's prefetcher;
    // returned candidates are issued back into the LLC immediately.
    llc_->setAccessHook([this](const MemAccess &access, bool hit,
                               Cycle now) {
        Prefetcher *pf = prefetchers_[access.core].get();
        if (pf == nullptr)
            return;
        if (chaos_) {
            // One fault opportunity per LLC demand access for the two
            // prefetcher-targeted sites. Draws are per-opportunity
            // from per-site streams, so the schedule is identical
            // whether the run loop steps or skips cycles.
            chaos::GuardedPrefetcher *guard = guards_[access.core];
            if (chaos_->fires(chaos::ChaosSite::Metadata)) {
                ++chaos_->counters().metadata_flips;
                guard->perturbMetadata(
                    chaos_->stream(chaos::ChaosSite::Metadata));
            }
            if (chaos_->fires(chaos::ChaosSite::Prefetcher)) {
                ++chaos_->counters().injected_prefetcher_faults;
                guard->injectFault();
            }
        }
        PrefetchAccess pa;
        pa.pc = access.pc;
        pa.block = access.block;
        pa.core = access.core;
        pa.hit = hit;
        pa.type = access.type;
        pa.cycle = now;
        candidate_buffer_.clear();
        pf->onAccess(pa, candidate_buffer_);
        for (Addr candidate : candidate_buffer_) {
            const Addr block = blockAlign(candidate);
            if (block == access.block)
                continue;
            llc_->prefetch(block, access.pc, access.core, now);
        }
    });

    // Evictions close page generations; broadcast to every core's
    // prefetcher (each ignores regions it does not track).
    llc_->addEvictionListener([this](Addr block) {
        for (auto &pf : prefetchers_) {
            if (pf)
                pf->onEviction(block);
        }
    });
}

void
System::setDeadline(std::chrono::steady_clock::time_point deadline)
{
    deadline_ = deadline;
    deadline_armed_ = true;
}

void
System::checkInvariants() const
{
    llc_->checkInvariants(now_);
    for (const auto &l1 : l1ds_)
        l1->checkInvariants(now_);
    dram_->checkInvariants(now_);
    if (shadow_) {
        // Differential verification against the functional model:
        // every dirty line must trace back to a store that actually
        // happened (per core in the private L1Ds, any core at the
        // shared LLC).
        for (CoreId c = 0; c < l1ds_.size(); ++c)
            shadow_->verifyPrivate(*l1ds_[c], c, now_);
        shadow_->verifyShared(*llc_, now_);
    }
}

bool
System::anyQuarantined() const
{
    for (const chaos::GuardedPrefetcher *guard : guards_) {
        if (guard != nullptr && guard->quarantined())
            return true;
    }
    return false;
}

std::string
System::quarantineReport() const
{
    std::string report;
    for (CoreId c = 0; c < guards_.size(); ++c) {
        const chaos::GuardedPrefetcher *guard = guards_[c];
        if (guard == nullptr || !guard->quarantined())
            continue;
        if (!report.empty())
            report += "; ";
        report += "pf" + std::to_string(c) + ": " +
                  guard->quarantineReason() + " @cycle " +
                  std::to_string(guard->quarantineCycle());
    }
    return report;
}

void
System::syncCoresBefore(Cycle cycle)
{
    if (cycle == 0)
        return;
    for (auto &core : cores_)
        core->syncTo(cycle - 1);
}

void
System::reportWatchdogExpiry()
{
    // The stepped loop had finished every core through now_ - 1.
    syncCoresBefore(now_);
    std::string progress;
    for (const auto &core : cores_) {
        if (!progress.empty())
            progress += ", ";
        progress += "core" + std::to_string(core->id()) + "=" +
                    std::to_string(core->stats().instructions) +
                    " instrs";
    }
    throw SimError("watchdog", now_,
                   "simulation exceeded BINGO_JOB_TIMEOUT_S; "
                   "progress at expiry: " +
                       progress);
}

void
System::reportDeadlock()
{
    // Every core has been stepped at now_ or waits on a callback that
    // will never come.
    syncCoresBefore(now_ + 1);
    std::string progress;
    for (const auto &core : cores_) {
        if (!progress.empty())
            progress += ", ";
        progress += "core" + std::to_string(core->id()) + "=" +
                    std::to_string(core->stats().instructions) +
                    " instrs";
    }
    throw SimError("system", now_,
                   "deadlock: cores are stalled with no pending event "
                   "to wake them; progress: " +
                       progress);
}

void
System::enableTelemetry(const telemetry::Options &options)
{
    telemetry_ = std::make_unique<telemetry::Telemetry>(options);
    // Prefetchers fill into the LLC, so timeliness is tracked there.
    llc_->setLifecycleTracker(&telemetry_->lifecycle());
}

MetricMap
System::metrics() const
{
    MetricMap out;
    llc_->metrics(out);
    for (const auto &l1 : l1ds_)
        l1->metrics(out);
    dram_->metrics(out);
    for (const auto &core : cores_)
        core->metrics(out);
    for (CoreId c = 0; c < config_.num_cores; ++c) {
        if (prefetchers_[c])
            prefetchers_[c]->metrics("pf" + std::to_string(c) + ".", out);
    }
    if (chaos_)
        addCounters(out, "chaos.", chaos_->counters());
    return out;
}

telemetry::EpochSnapshot
System::telemetrySnapshot() const
{
    telemetry::EpochSnapshot snap;
    for (const auto &core : cores_)
        snap.instructions += core->stats().instructions;
    for (const auto &l1 : l1ds_) {
        snap.l1d_demand_accesses += l1->stats().demand_accesses;
        snap.l1d_demand_misses += l1->stats().demand_misses;
    }
    const CacheStats &llc = llc_->stats();
    snap.llc_demand_accesses = llc.demand_accesses;
    snap.llc_demand_misses = llc.demand_misses;
    const DramStats &dram = dram_->stats();
    snap.dram_reads = dram.reads;
    snap.dram_writes = dram.writes;
    snap.dram_row_hits = dram.row_hits;
    snap.dram_row_closed = dram.row_misses + dram.row_conflicts;
    snap.pf_issued = llc.prefetch_requests - llc.prefetch_drops;
    snap.pf_fills = llc.prefetch_fills;
    snap.pf_useful = llc.useful_prefetches;
    snap.pf_useless = llc.useless_prefetches;
    snap.pf_late = llc.late_useful_prefetches;
    return snap;
}

void
System::sampleEpochIfDue()
{
    // A core the run loop has not stepped lately holds its counters at
    // its last step; the stepped loop had every core through now_ - 1
    // here.
    syncCoresBefore(now_);
    std::uint64_t instructions = 0;
    for (const auto &core : cores_)
        instructions += core->stats().instructions;
    if (telemetry_->epochs().due(instructions))
        telemetry_->epochs().sample(now_, telemetrySnapshot());
}

void
System::runPhase(std::uint64_t instructions, const char *phase)
{
    const bool checks = simCheckEnabled();
    const bool pausing = checks || deadline_armed_;
    for (auto &core : cores_)
        core->startMeasurement(instructions, now_);
    // The phase base snapshot must be taken after startMeasurement
    // cleared the core counters, or every delta would underflow.
    if (telemetry_ != nullptr) {
        telemetry_->epochs().beginPhase(
            phase, now_, telemetrySnapshot(),
            telemetry_->options().epoch_instructions);
    }
    // Absolute-boundary gates replace the `(now & mask) == 0` tests:
    // they fire on exactly the same cycles when stepping by one, and
    // still fire once per period when the loop jumps (crossed, not
    // landed-on, semantics).
    PeriodicGate check_gate(kCheckIntervalMask, now_);
    PeriodicGate epoch_gate(kEpochCheckMask, now_);
    // Cached per-core wake cycles; 0 forces a first step of each.
    core_wake_.assign(cores_.size(), 0);
    // measurementDone() can only flip inside step() (retirement is the
    // sole writer of the retired-instruction count), so the loop keeps
    // a finished-core count updated at each transition instead of
    // polling every core twice per iteration.
    std::size_t done_cores = 0;
    for (const auto &core : cores_)
        done_cores += core->measurementDone() ? 1 : 0;
    try {
        while (done_cores < cores_.size()) {
            if (pausing && check_gate.crossed(now_)) {
                if (deadline_armed_ &&
                    std::chrono::steady_clock::now() >= deadline_)
                    reportWatchdogExpiry();
                if (checks)
                    checkInvariants();
            }
            if (telemetry_ != nullptr && epoch_gate.crossed(now_))
                sampleEpochIfDue();
            events_.runDue(now_);
            // Per-core lazy stepping: a core whose cached wake lies
            // ahead does nothing another component can see before then
            // — skip its step() entirely; it replays the gap itself
            // (OooCore::syncTo) when next touched. A completion callback
            // (the wakeDirty flag) voids the cached wake; the callback
            // synced the core through now_ - 1, so its wake is recomputed
            // from there, and it steps only when that wake is now_.
            Cycle wake = kNeverCycle;
            if (skip_enabled_) {
                for (std::size_t i = 0; i < cores_.size(); ++i) {
                    OooCore &core = *cores_[i];
                    if (core.wakeDirty() && now_ > 0) {
                        core.clearWakeDirty();
                        core_wake_[i] = core.nextWakeCycle(now_ - 1);
                    }
                    if (core_wake_[i] > now_) {
                        wake = std::min(wake, core_wake_[i]);
                        continue;
                    }
                    core.clearWakeDirty();
                    const bool was_done = core.measurementDone();
                    core.step(now_);
                    if (!was_done && core.measurementDone())
                        ++done_cores;
                    core_wake_[i] = core.nextWakeCycle(now_);
                    wake = std::min(wake, core_wake_[i]);
                }
            } else {
                for (auto &core : cores_) {
                    const bool was_done = core->measurementDone();
                    core->step(now_);
                    if (!was_done && core->measurementDone())
                        ++done_cores;
                }
            }
            if (wake <= now_ + 1 || !skip_enabled_ ||
                done_cores == cores_.size()) {
                // The stepped loop exits with now_ one past the
                // finishing cycle; keep that identity rather than
                // jumping.
                ++now_;
                continue;
            }
            // Fast-forward: the memory side is fully event-driven, so
            // the earliest cycle at which anything can happen is the
            // minimum of the next event and each core's own next wake
            // (its next memory dispatch, window borrow or quota
            // retirement). DRAM computes each request's completion when
            // it arrives, in bank then bus arrival order with no
            // reordering, and a read's completion is already a queued
            // event; its bank and bus timers matter only to the next
            // request, which a core step or an event brings. Everything
            // strictly before the target is compute and stall
            // bookkeeping, replayed lazily per core. Capping at the gate
            // boundaries keeps the watchdog/self-check cadence and
            // lands telemetry samples on exactly the cycles the stepped
            // loop samples, preserving bit-identical epoch streams.
            Cycle target = std::min(wake, events_.nextEventCycle());
            if (pausing)
                target = std::min(target, check_gate.nextBoundary());
            if (telemetry_ != nullptr)
                target = std::min(target, epoch_gate.nextBoundary());
            if (target == kNeverCycle) {
                // Live cores with no pending event anywhere: the
                // stepped loop would spin forever. Report instead of
                // wedging.
                reportDeadlock();
            }
            // runDue(now_) drained everything at now_ and every wake
            // bound is strictly in the future, so target >= now_ + 1.
            const std::uint64_t stalled = target - now_ - 1;
            if (stalled > 0) {
                skipped_cycles_ += stalled;
                now_ = target;
            } else {
                ++now_;
            }
        }
    } catch (...) {
        // A failed run still reports its counters (System::metrics()
        // in the failed job's run.json): bring every core to where the
        // stepped loop had it when the error struck.
        syncCoresBefore(now_);
        throw;
    }
    if (checks)
        checkInvariants();
    if (telemetry_ != nullptr)
        telemetry_->epochs().endPhase(now_, telemetrySnapshot());
}

void
System::run(std::uint64_t warmup_instructions,
            std::uint64_t measure_instructions)
{
    if (warmup_instructions > 0)
        runPhase(warmup_instructions, "warmup");
    llc_->resetStats();
    for (auto &l1 : l1ds_)
        l1->resetStats();
    // DRAM: clear counters but keep bank/bus timing state.
    dram_->resetStatsOnly();
    if (telemetry_ != nullptr) {
        // Clear warmup verdicts/distributions; in-flight prefetch
        // state stays because those blocks span the boundary.
        telemetry_->lifecycle().resetStats();
    }
    runPhase(measure_instructions, "measure");
}

} // namespace bingo
