/**
 * @file
 * The one parser for integer environment knobs (BINGO_JOBS,
 * BINGO_TRACE_CACHE_MB, BINGO_DIST_POISON_KILLS, ...). Call sites add
 * their own rules on top (what 0 means, clamps), never their own
 * parsing.
 */

#ifndef BINGO_COMMON_ENV_HPP
#define BINGO_COMMON_ENV_HPP

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>

namespace bingo
{

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
    if (ec != std::errc() || ptr != end)
        return fallback;
    return parsed;
}

} // namespace bingo

#endif // BINGO_COMMON_ENV_HPP
