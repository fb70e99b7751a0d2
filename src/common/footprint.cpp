#include "common/footprint.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/sim_check.hpp"

namespace bingo
{
namespace
{

/**
 * An out-of-range offset can only reach a footprint through corrupt
 * metadata (a bad region decode, a perturbed table entry); fail as a
 * located machine invariant rather than silently shifting past the
 * region. These are the always-on cheap preconditions of the
 * self-check layer — one predicted-never branch per bit op.
 */
void
checkOffset(unsigned offset, unsigned width)
{
    if (offset >= width) {
        throw SimError("footprint", 0,
                       "offset " + std::to_string(offset) +
                           " outside region width " +
                           std::to_string(width));
    }
}

void
checkSameWidth(unsigned a, unsigned b)
{
    if (a != b) {
        throw SimError("footprint", 0,
                       "width mismatch: " + std::to_string(a) +
                           " vs " + std::to_string(b));
    }
}

} // namespace

Footprint::Footprint(unsigned width)
    : width_(width)
{
    if (width < 1 || width > 64) {
        throw std::invalid_argument(
            "Footprint width must be in [1, 64], got " +
            std::to_string(width));
    }
}

void
Footprint::set(unsigned offset)
{
    checkOffset(offset, width_);
    bits_ |= 1ULL << offset;
}

void
Footprint::clear(unsigned offset)
{
    checkOffset(offset, width_);
    bits_ &= ~(1ULL << offset);
}

bool
Footprint::test(unsigned offset) const
{
    checkOffset(offset, width_);
    return (bits_ >> offset) & 1;
}

Footprint
Footprint::fromRaw(std::uint64_t bits, unsigned width)
{
    Footprint fp(width);
    const std::uint64_t mask =
        width >= 64 ? ~0ULL : ((1ULL << width) - 1);
    fp.bits_ = bits & mask;
    return fp;
}

std::vector<unsigned>
Footprint::offsets() const
{
    std::vector<unsigned> result;
    result.reserve(count());
    std::uint64_t bits = bits_;
    while (bits) {
        const unsigned off = std::countr_zero(bits);
        result.push_back(off);
        bits &= bits - 1;
    }
    return result;
}

Footprint
Footprint::operator&(const Footprint &other) const
{
    checkSameWidth(width_, other.width_);
    return fromRaw(bits_ & other.bits_, width_);
}

Footprint
Footprint::operator|(const Footprint &other) const
{
    checkSameWidth(width_, other.width_);
    return fromRaw(bits_ | other.bits_, width_);
}

unsigned
Footprint::overlap(const Footprint &actual) const
{
    checkSameWidth(width_, actual.width_);
    return std::popcount(bits_ & actual.bits_);
}

std::string
Footprint::toString() const
{
    std::string out;
    out.reserve(width_);
    for (unsigned i = 0; i < width_; ++i)
        out.push_back(test(i) ? '1' : '0');
    return out;
}

FootprintVote::FootprintVote(unsigned width)
    : counts_(width, 0), width_(width)
{
}

void
FootprintVote::add(const Footprint &fp)
{
    checkSameWidth(fp.width(), width_);
    const std::uint64_t bits = fp.raw();
    for (unsigned i = 0; i < width_; ++i) {
        if ((bits >> i) & 1)
            ++counts_[i];
    }
    ++voters_;
}

Footprint
FootprintVote::resolve(double threshold) const
{
    Footprint result(width_);
    if (voters_ == 0)
        return result;
    const auto needed = static_cast<unsigned>(
        std::ceil(threshold * static_cast<double>(voters_)));
    const auto min_votes =
        static_cast<std::uint16_t>(needed == 0 ? 1 : needed);
    std::uint64_t bits = 0;
    for (unsigned i = 0; i < width_; ++i) {
        if (counts_[i] >= min_votes)
            bits |= std::uint64_t{1} << i;
    }
    return Footprint::fromRaw(bits, width_);
}

} // namespace bingo
