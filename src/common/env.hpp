/**
 * @file
 * The parsers for numeric environment knobs: integers (BINGO_JOBS,
 * BINGO_TRACE_CACHE_MB, BINGO_DIST_POISON_KILLS, ...) and seconds
 * (BINGO_JOB_TIMEOUT_S, BINGO_DIST_*_S). Call sites add their own
 * rules on top (what 0 means, clamps), never their own parsing. A
 * value that does not parse is named on stderr, so a knob never falls
 * back to its default unnoticed.
 */

#ifndef BINGO_COMMON_ENV_HPP
#define BINGO_COMMON_ENV_HPP

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>
#include <string>

namespace bingo
{

/**
 * Say on stderr, once per variable and process, that `name`'s set
 * value was rejected. An empty value reads as unset and passes
 * silently, as `NAME= cmd` asks for the default.
 */
inline void
envWarnRejected(const char *name, const char *value)
{
    static std::mutex mutex;
    static std::set<std::string> warned;
    std::lock_guard<std::mutex> lock(mutex);
    if (*value != '\0' && warned.insert(name).second)
        std::fprintf(stderr,
                     "bingo: ignoring %s=\"%s\", not a valid value; "
                     "using the default\n",
                     name, value);
}

/**
 * `name` as a base-10 unsigned integer, or `fallback` when it is unset
 * or anything but digits: an empty value, a sign, whitespace, trailing
 * junk or an overflow never reads as a number.
 */
inline std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *value = std::getenv(name);
    if (value == nullptr)
        return fallback;
    const char *end = value + std::strlen(value);
    std::uint64_t parsed = 0;
    const auto [ptr, ec] = std::from_chars(value, end, parsed);
    if (ec != std::errc() || ptr != end) {
        envWarnRejected(name, value);
        return fallback;
    }
    return parsed;
}

/**
 * `name` as a whole decimal number of seconds, finite and ≥ 0, or
 * `fallback` when it is unset or anything else: an empty value, a
 * leading space, trailing junk, a negative value, inf, nan or an
 * out-of-range exponent never reads as a number.
 */
inline double
envSeconds(const char *name, double fallback)
{
    const char *value = std::getenv(name);
    if (value == nullptr)
        return fallback;
    const char *end = value + std::strlen(value);
    double parsed = 0.0;
    const auto [ptr, ec] = std::from_chars(value, end, parsed);
    if (ec != std::errc() || ptr != end || !std::isfinite(parsed) ||
        parsed < 0.0) {
        envWarnRejected(name, value);
        return fallback;
    }
    return parsed;
}

} // namespace bingo

#endif // BINGO_COMMON_ENV_HPP
