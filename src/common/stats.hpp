/**
 * @file
 * Small statistics helpers: aggregate math (mean, geometric mean), a
 * named-counter set for counters named at run time, and the
 * name->value map components report their counters into.
 */

#ifndef BINGO_COMMON_STATS_HPP
#define BINGO_COMMON_STATS_HPP

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <vector>

namespace bingo
{

/** Arithmetic mean of a series; 0 for an empty series. */
double mean(const std::vector<double> &values);

/**
 * Geometric mean of a series of ratios; 0 for an empty series.
 * Values must be positive (speedup ratios always are).
 */
double geomean(const std::vector<double> &values);

/** Percent formatting helper: 0.634 -> "63.4%". */
std::string percent(double fraction, int decimals = 1);

/**
 * Ordered collection of named 64-bit counters. Components register
 * their counters into a StatSet so experiment reports can dump every
 * number without knowing each component's internals.
 */
class StatSet
{
  public:
    /** Add `delta` to counter `name`, creating it at zero if new. */
    void add(const std::string &name, std::uint64_t delta = 1);

    /** Set counter `name` to `value`. */
    void set(const std::string &name, std::uint64_t value);

    /** Value of counter `name`; 0 if never touched. */
    std::uint64_t get(const std::string &name) const;

    /** All counters in name order. */
    const std::map<std::string, std::uint64_t> &all() const
    {
        return counters_;
    }

    /** Merge another set into this one (summing shared names). */
    void merge(const StatSet &other);

    /** Reset every counter to zero. */
    void clear() { counters_.clear(); }

    /**
     * Direct reference to counter `name`, creating it at zero if new.
     * Map nodes are stable, so the reference stays valid for the
     * set's lifetime (clear() invalidates it) — hot paths resolve a
     * name once and bump through the pointer instead of paying a
     * string-keyed lookup per event.
     */
    std::uint64_t &counter(const std::string &name)
    {
        return counters_[name];
    }

  private:
    std::map<std::string, std::uint64_t> counters_;
};

/**
 * Lazily-resolved cached counter: the first bump() looks the name up
 * in the StatSet (creating the counter, exactly like add()), later
 * bumps are a single pointer increment. Laziness keeps the exported
 * key set identical to per-call add() — a counter that never fires
 * never appears.
 */
class CachedStat
{
  public:
    void
    bump(StatSet &stats, const char *name, std::uint64_t delta = 1)
    {
        if (ptr_ == nullptr)
            ptr_ = &stats.counter(name);
        *ptr_ += delta;
    }

  private:
    std::uint64_t *ptr_ = nullptr;
};

/**
 * Counter values by name, in name order: what components report into
 * for run.json's `metrics` (System::metrics()).
 */
using MetricMap = std::map<std::string, std::uint64_t>;

/**
 * `Stats` is `S` or `const S`. A stats struct's visitCounters takes
 * either, so one counter list serves the readers and the writers of
 * its fields (the journal decoder writes them).
 */
template <typename Stats, typename S>
concept MaybeConst = std::is_same_v<std::remove_const_t<Stats>, S>;

/**
 * Number of counters a stats struct's visitCounters names. Beside each
 * list, a static_assert holds it to the struct's size, so a counter
 * added to the struct but not to its list, or left out of the list,
 * fails to compile.
 */
template <typename Stats>
constexpr std::size_t
counterCount()
{
    Stats stats{};
    std::size_t count = 0;
    visitCounters(stats, [&count](const char *, std::uint64_t &) {
        ++count;
    });
    return count;
}

/**
 * Add every counter of `stats` to `out` as `prefix` + its name,
 * through the struct's visitCounters list.
 */
template <typename Stats>
void
addCounters(MetricMap &out, const std::string &prefix, const Stats &stats)
{
    visitCounters(stats, [&](const char *name, std::uint64_t value) {
        out[prefix + name] = value;
    });
}

} // namespace bingo

#endif // BINGO_COMMON_STATS_HPP
