#include "dist/protocol.hpp"

#include <bit>
#include <sstream>
#include <type_traits>
#include <vector>

#include "sim/journal.hpp"

namespace bingo
{
namespace dist
{

namespace
{

constexpr std::size_t kMaxString = 1u * 1024u * 1024u;

std::uint64_t
doubleBits(double value)
{
    return std::bit_cast<std::uint64_t>(value);
}

double
doubleFromBits(std::uint64_t bits)
{
    return std::bit_cast<double>(bits);
}

/** Expect `keyword` as the next token; false on anything else. */
bool
expect(std::istream &in, const char *keyword)
{
    std::string token;
    return static_cast<bool>(in >> token) && token == keyword;
}

/** Length-prefixed string: `<len> <bytes>`. */
void
putString(std::ostream &out, const std::string &value)
{
    out << value.size() << ' ' << value;
}

bool
getString(std::istream &in, std::string &out)
{
    std::size_t length = 0;
    if (!(in >> length) || length > kMaxString || in.get() != ' ')
        return false;
    out.resize(length);
    return static_cast<bool>(
        in.read(out.data(), static_cast<std::streamsize>(length)));
}

const char *
groupLabel(ConfigGroup group)
{
    switch (group) {
    case ConfigGroup::Machine:
        return "machine";
    case ConfigGroup::Temporal:
        return "temporal";
    case ConfigGroup::Chaos:
        return "chaos";
    }
    return "";
}

/** The largest valid value of each enum the wire carries. */
constexpr unsigned
maxValue(ReplacementKind)
{
    return static_cast<unsigned>(ReplacementKind::Random);
}

constexpr unsigned
maxValue(PrefetcherKind)
{
    return static_cast<unsigned>(PrefetcherKind::Hybrid);
}

/** Hybrid arbiters host at most this many engines on the wire. */
constexpr std::size_t kMaxEngines = 8;

/**
 * Writes every config group through visitConfigFields, one line per
 * group: its label, then each field (enums and bools as unsigned,
 * doubles as their IEEE-754 bits).
 */
struct ConfigWriter
{
    std::ostream &out;

    bool
    group(ConfigGroup group, bool)
    {
        out << '\n' << groupLabel(group);
        return true;
    }

    template <typename T>
    void
    operator()(const T &value)
    {
        if constexpr (std::is_same_v<T, double>)
            out << ' ' << doubleBits(value);
        else if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>)
            out << ' ' << static_cast<unsigned>(value);
        else
            out << ' ' << value;
    }

    void
    operator()(const std::vector<PrefetcherKind> &engines)
    {
        out << ' ' << engines.size();
        for (const PrefetcherKind engine : engines)
            (*this)(engine);
    }
};

/**
 * Reads what ConfigWriter wrote, range-checking every enum and the
 * engine count, and requiring a fixed (const) field to carry its one
 * value; `ok` turns false at the first malformed field.
 */
struct ConfigReader
{
    std::istream &in;
    bool ok = true;

    bool
    group(ConfigGroup group, bool)
    {
        ok = ok && expect(in, groupLabel(group));
        return ok;
    }

    template <typename T>
    void
    operator()(T &value)
    {
        if (!ok)
            return;
        if constexpr (std::is_const_v<T>) {
            std::remove_const_t<T> read{};
            ok = (in >> read) && read == value;
        } else if constexpr (std::is_same_v<T, double>) {
            std::uint64_t bits = 0;
            ok = static_cast<bool>(in >> bits);
            value = doubleFromBits(bits);
        } else if constexpr (std::is_same_v<T, bool>) {
            unsigned raw = 0;
            ok = static_cast<bool>(in >> raw);
            value = raw != 0;
        } else if constexpr (std::is_enum_v<T>) {
            unsigned raw = 0;
            ok = (in >> raw) && raw <= maxValue(T{});
            if (ok)
                value = static_cast<T>(raw);
        } else {
            ok = static_cast<bool>(in >> value);
        }
    }

    void
    operator()(std::vector<PrefetcherKind> &engines)
    {
        std::size_t count = 0;
        ok = ok && (in >> count) && count <= kMaxEngines;
        if (!ok)
            return;
        engines.assign(count, PrefetcherKind::None);
        for (PrefetcherKind &engine : engines)
            (*this)(engine);
    }
};

} // namespace

std::string
encodeJob(const WireJob &wire)
{
    std::ostringstream out;
    out << "job 4\n";
    out << "index " << wire.index << '\n';
    out << "lease " << wire.lease << '\n';
    out << "fingerprint " << wire.fingerprint << '\n';
    out << "workload ";
    putString(out, wire.job.workload);
    out << '\n';
    out << "options " << wire.job.options.warmup_instructions << ' '
        << wire.job.options.measure_instructions << ' '
        << wire.job.options.seed;
    visitConfigFields(wire.job.config, ConfigWriter{out});
    out << "\nend\n";
    return out.str();
}

bool
decodeJob(const std::string &payload, WireJob &out)
{
    std::istringstream in(payload);
    unsigned version = 0;
    if (!expect(in, "job") || !(in >> version) || version != 4)
        return false;

    WireJob wire;
    if (!expect(in, "index") || !(in >> wire.index))
        return false;
    if (!expect(in, "lease") || !(in >> wire.lease))
        return false;
    if (!expect(in, "fingerprint") || !(in >> wire.fingerprint))
        return false;
    if (!expect(in, "workload") || !getString(in, wire.job.workload))
        return false;
    if (!expect(in, "options") ||
        !(in >> wire.job.options.warmup_instructions >>
          wire.job.options.measure_instructions >>
          wire.job.options.seed))
        return false;
    ConfigReader reader{in};
    visitConfigFields(wire.job.config, reader);
    if (!reader.ok || !expect(in, "end"))
        return false;
    out = std::move(wire);
    return true;
}

std::string
encodeResult(const WireResult &result)
{
    std::ostringstream out;
    out << "result 3\n";
    out << "index " << result.index << '\n';
    out << "lease " << result.lease << '\n';
    out << "status " << static_cast<unsigned>(result.status) << '\n';
    out << "attempts " << result.attempts << '\n';
    out << "wall " << doubleBits(result.wall_seconds) << '\n';
    out << "runs " << result.runs << '\n';
    out << "cycles " << result.cycles << '\n';
    out << "error ";
    putString(out, result.error);
    out << '\n';
    out << "record ";
    putString(out, result.record);
    out << '\n';
    out << "end\n";
    return out.str();
}

bool
decodeResult(const std::string &payload, WireResult &out)
{
    std::istringstream in(payload);
    unsigned version = 0;
    if (!expect(in, "result") || !(in >> version) || version != 3)
        return false;
    WireResult wire;
    unsigned status = 0;
    std::uint64_t wall_bits = 0;
    if (!expect(in, "index") || !(in >> wire.index))
        return false;
    if (!expect(in, "lease") || !(in >> wire.lease))
        return false;
    if (!expect(in, "status") || !(in >> status) ||
        status > static_cast<unsigned>(JobStatus::Failed))
        return false;
    wire.status = static_cast<JobStatus>(status);
    if (!expect(in, "attempts") || !(in >> wire.attempts))
        return false;
    if (!expect(in, "wall") || !(in >> wall_bits))
        return false;
    wire.wall_seconds = doubleFromBits(wall_bits);
    if (!expect(in, "runs") || !(in >> wire.runs))
        return false;
    if (!expect(in, "cycles") || !(in >> wire.cycles))
        return false;
    if (!expect(in, "error") || !getString(in, wire.error))
        return false;
    if (!expect(in, "record") || !getString(in, wire.record))
        return false;
    if (!expect(in, "end"))
        return false;
    out = std::move(wire);
    return true;
}

std::string
encodeHeartbeat(const WireHeartbeat &beat)
{
    std::ostringstream out;
    out << "hb 2 " << (beat.busy ? 1 : 0) << '\n';
    return out.str();
}

bool
decodeHeartbeat(const std::string &payload, WireHeartbeat &out)
{
    std::istringstream in(payload);
    unsigned version = 0;
    unsigned busy = 0;
    WireHeartbeat beat;
    if (!expect(in, "hb") || !(in >> version) || version != 2 ||
        !(in >> busy))
        return false;
    beat.busy = busy != 0;
    out = beat;
    return true;
}

} // namespace dist
} // namespace bingo
