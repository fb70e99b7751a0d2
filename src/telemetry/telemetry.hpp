/**
 * @file
 * Telemetry bundle and environment knobs — the opt-in observability
 * subsystem's front door.
 *
 * A `Telemetry` instance is owned by one System and groups the two
 * collectors: the epoch sampler (per-epoch time-series) and the
 * prefetch lifecycle tracker (timeliness). It is deliberately
 * per-System, not global: sweep workers run many Systems concurrently
 * and each run's telemetry must be isolated and deterministic. The
 * end-of-run counters need no collector: System::metrics() reads
 * them off the components when a run is exported.
 *
 * Knobs:
 *  - BINGO_TELEMETRY_DIR: setting it makes every sweep job collect
 *    telemetry and export JSONL / JSON / Chrome-trace files into the
 *    directory (see telemetry/export.hpp). Code that reads the
 *    Telemetry object off a live System enables it on that System.
 *  - BINGO_EPOCH_INSTRS: epoch length in retired instructions summed
 *    over cores (default 250000).
 *
 * Telemetry never influences the simulation: collectors only read
 * counters, so a run with telemetry on is bit-identical to one with
 * it off (tests/test_determinism.cpp asserts this).
 */

#ifndef BINGO_TELEMETRY_TELEMETRY_HPP
#define BINGO_TELEMETRY_TELEMETRY_HPP

#include <cstdint>
#include <string>

#include "telemetry/epoch.hpp"
#include "telemetry/lifecycle.hpp"

namespace bingo::telemetry
{

/** Collection parameters (defaults honour the BINGO_* environment). */
struct Options
{
    /** Epoch length in retired instructions, summed over cores. */
    std::uint64_t epoch_instructions = 250 * 1000;
};

/** Options with BINGO_EPOCH_INSTRS applied. */
Options optionsFromEnv();

/** Export directory: BINGO_TELEMETRY_DIR ("" = no export). */
std::string outputDir();

/** Whether sweep jobs collect telemetry: BINGO_TELEMETRY_DIR is set. */
bool requested();

/** Per-run collector bundle; owned by a System. */
class Telemetry
{
  public:
    explicit Telemetry(const Options &options) : options_(options) {}

    const Options &options() const { return options_; }

    EpochSeries &epochs() { return epochs_; }
    const EpochSeries &epochs() const { return epochs_; }

    PrefetchLifecycle &lifecycle() { return lifecycle_; }
    const PrefetchLifecycle &lifecycle() const { return lifecycle_; }

  private:
    Options options_;
    EpochSeries epochs_;
    PrefetchLifecycle lifecycle_;
};

} // namespace bingo::telemetry

#endif // BINGO_TELEMETRY_TELEMETRY_HPP
