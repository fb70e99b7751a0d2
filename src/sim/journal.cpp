#include "sim/journal.hpp"

#include <bit>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "chaos/chaos.hpp"
#include "sim/experiment.hpp"
#include "telemetry/export.hpp"

namespace bingo
{

namespace
{

constexpr char kFormatTag[] = "bingo-journal";
// v2: CacheStats gained late_useful_prefetches. Old records fail the
// version check and the jobs simply re-run.
constexpr unsigned kFormatVersion = 2;

/** FNV-1a 64-bit over the serialized job identity. */
std::uint64_t
fnv1a(const std::string &data)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : data) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

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

/** Append one field to the identity serialization. */
template <typename T>
void
put(std::ostringstream &out, T value)
{
    out << value << '|';
}

/**
 * Writes a SystemConfig's identity through visitConfigFields: enums as
 * unsigned, doubles as their IEEE-754 bits. An optional group opens
 * with its marker (2 for Temporal, 1 for Chaos) and is written only
 * when it is on, so the fingerprints of configs that leave it off are
 * byte-identical to those from before the group existed.
 */
struct IdentityWriter
{
    std::ostringstream &out;

    bool
    group(ConfigGroup group, bool on)
    {
        if (on && group != ConfigGroup::Machine)
            put(out, group == ConfigGroup::Temporal ? 2u : 1u);
        return on;
    }

    template <typename T>
    void
    operator()(const T &value)
    {
        if constexpr (std::is_same_v<T, bool>) {
            // chaos.enabled: the Chaos group's marker already says so.
        } else if constexpr (std::is_same_v<T, double>) {
            put(out, doubleBits(value));
        } else if constexpr (std::is_enum_v<T>) {
            put(out, static_cast<unsigned>(value));
        } else {
            put(out, value);
        }
    }

    void
    operator()(const std::vector<PrefetcherKind> &engines)
    {
        put(out, engines.size());
        for (const PrefetcherKind engine : engines)
            (*this)(engine);
    }
};

/** Expect `keyword` as the next token; false on anything else. */
bool
expect(std::istream &in, const char *keyword)
{
    std::string token;
    return static_cast<bool>(in >> token) && token == keyword;
}

} // namespace

std::string
jobFingerprint(const SweepJob &job)
{
    std::ostringstream identity;
    put(identity, job.workload);
    // The runner overwrites config.seed with options.seed and overlays
    // the BINGO_CHAOS fault plan before simulating; normalize both here
    // so the fingerprint names what actually runs — and so a chaos run
    // can never be resumed from (or poison) a clean journal.
    SystemConfig cfg = job.config;
    cfg.seed = job.options.seed;
    chaos::applyEnvChaos(cfg);
    visitConfigFields(cfg, IdentityWriter{identity});
    put(identity, job.options.warmup_instructions);
    put(identity, job.options.measure_instructions);
    put(identity, job.options.seed);

    const std::string data = identity.str();
    // Two independent hashes (plain and length-salted) halve nothing
    // semantically but give a 128-bit name, making accidental
    // collisions across a sweep's few hundred jobs implausible.
    const std::uint64_t lo = fnv1a(data);
    const std::uint64_t hi =
        fnv1a(std::to_string(data.size()) + "#" + data);
    char buf[33];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64 "%016" PRIx64, hi, lo);
    return buf;
}

std::string
journalRecordPath(const std::string &dir, const std::string &fingerprint)
{
    return (std::filesystem::path(dir) / (fingerprint + ".run"))
        .string();
}

bool
journalLoad(const std::string &dir, const std::string &fingerprint,
            RunResult &out)
{
    std::ifstream file(journalRecordPath(dir, fingerprint),
                       std::ios::binary);
    if (!file)
        return false;
    std::ostringstream text;
    text << file.rdbuf();
    return journalDecode(text.str(), fingerprint, out);
}

bool
journalDecode(const std::string &text, const std::string &fingerprint,
              RunResult &out)
{
    std::istringstream in(text);

    std::string tag;
    unsigned version = 0;
    if (!(in >> tag >> version) || tag != kFormatTag ||
        version != kFormatVersion)
        return false;

    std::string recorded;
    if (!expect(in, "fingerprint") || !(in >> recorded) ||
        recorded != fingerprint)
        return false;

    RunResult result;
    unsigned kind = 0;
    std::size_t cores = 0;
    // Workload names contain spaces, so they are length-prefixed.
    std::size_t name_len = 0;
    if (!expect(in, "workload") || !(in >> name_len) ||
        name_len > 4096 || in.get() != ' ')
        return false;
    result.workload.resize(name_len);
    if (!in.read(result.workload.data(),
                 static_cast<std::streamsize>(name_len)))
        return false;
    if (!expect(in, "kind") || !(in >> kind) ||
        kind > static_cast<unsigned>(PrefetcherKind::Hybrid))
        return false;
    result.kind = static_cast<PrefetcherKind>(kind);
    if (!expect(in, "cores") || !(in >> cores) || cores == 0 ||
        cores > 1024)
        return false;
    if (!expect(in, "ipc"))
        return false;
    result.core_ipc.resize(cores);
    for (std::size_t c = 0; c < cores; ++c) {
        std::uint64_t bits;
        if (!(in >> std::hex >> bits >> std::dec))
            return false;
        result.core_ipc[c] = doubleFromBits(bits);
    }
    if (!expect(in, "instructions") || !(in >> result.instructions))
        return false;

    // One line per stats struct: its label, then its counters in
    // visitCounters order.
    const auto readCounters = [&in](const char *label, auto &stats) {
        bool ok = expect(in, label);
        visitCounters(stats, [&](const char *, std::uint64_t &value) {
            ok = ok && static_cast<bool>(in >> value);
        });
        return ok;
    };
    if (!readCounters("llc", result.llc) ||
        !readCounters("l1d", result.l1d) ||
        !readCounters("dram", result.dram))
        return false;

    if (!expect(in, "storage") ||
        !(in >> result.prefetch_storage_bytes))
        return false;
    // Optional degraded verdict (length-prefixed reason, like the
    // workload name): absent in clean-run records, including every
    // record written before the field existed.
    std::string token;
    if (!(in >> token))
        return false;
    if (token == "degraded") {
        std::size_t reason_len = 0;
        if (!(in >> reason_len) || reason_len > 4096 ||
            in.get() != ' ')
            return false;
        result.degraded = true;
        result.degraded_reason.resize(reason_len);
        if (!in.read(result.degraded_reason.data(),
                     static_cast<std::streamsize>(reason_len)))
            return false;
        if (!(in >> token))
            return false;
    }
    if (token != "end")
        return false;

    out = std::move(result);
    return true;
}

std::string
journalEncode(const std::string &fingerprint, const RunResult &result)
{
    std::ostringstream out;
    out << kFormatTag << ' ' << kFormatVersion << '\n';
    out << "fingerprint " << fingerprint << '\n';
    out << "workload " << result.workload.size() << ' '
        << result.workload << '\n';
    out << "kind " << static_cast<unsigned>(result.kind) << '\n';
    out << "cores " << result.core_ipc.size() << '\n';
    out << "ipc" << std::hex;
    for (const double ipc : result.core_ipc)
        out << ' ' << doubleBits(ipc);
    out << std::dec << '\n';
    out << "instructions " << result.instructions << '\n';

    const auto writeCounters = [&out](const char *label,
                                      const auto &stats) {
        out << label;
        visitCounters(stats, [&out](const char *, std::uint64_t value) {
            out << ' ' << value;
        });
        out << '\n';
    };
    writeCounters("llc", result.llc);
    writeCounters("l1d", result.l1d);
    writeCounters("dram", result.dram);

    out << "storage " << result.prefetch_storage_bytes << '\n';
    if (result.degraded) {
        out << "degraded " << result.degraded_reason.size() << ' '
            << result.degraded_reason << '\n';
    }
    out << "end\n";
    return out.str();
}

void
journalStore(const std::string &dir, const std::string &fingerprint,
             const RunResult &result)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(dir, ec);
    if (ec)
        throw std::runtime_error("journal: cannot create " + dir +
                                 ": " + ec.message());
    telemetry::atomicWrite(journalRecordPath(dir, fingerprint),
                           journalEncode(fingerprint, result));
}

void
journalCommit(const std::string &dir, const std::string &fingerprint,
              const RunResult &result)
{
    if (dir.empty())
        return;
    try {
        journalStore(dir, fingerprint, result);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bingo: %s\n", e.what());
    }
}

void
journalDropTornWrites(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.path().filename().string().find(".tmp.") !=
            std::string::npos)
            fs::remove(entry.path(), ec);
    }
}

} // namespace bingo
