/**
 * @file
 * Benchmark sampler: one sample of one workload per process, so the
 * trace cache and baseline cache start empty as users see them.
 *
 *   perfbench_sample --workload <name> --seed <n> [--mode sweep|trace]
 *                    [--setup-reps <r>] [--canary]
 *                    [--threads <t> | --workers <w>]
 *
 * sweep (default): time the workload's runSweepOutcomes call, then
 *   construct one System per distinct (application, prefetcher) pair
 *   <r> times (setup time). --canary also simulates the first jobs of
 *   the seed-42 job list, for the reference check of seeds that have
 *   no reference of their own. --threads runs the sweep on <t>
 *   in-process threads and --workers on <w> bingo_worker processes,
 *   instead of the workload's own dispatch.
 * trace: the traced run of trace.hpp.
 *
 * Prints one JSON object on stdout; run.py turns samples into metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "dist/supervisor.hpp"
#include "sim/experiment.hpp"
#include "sim/system.hpp"
#include "trace.hpp"
#include "workload/trace_cache.hpp"
#include "workloads.hpp"

namespace
{

using namespace bingo;
using Clock = std::chrono::steady_clock;

/** Seed whose job list the canary check re-simulates. */
constexpr std::uint64_t kCanarySeed = 42;
constexpr std::size_t kCanaryJobs = 3;

double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n == 0)
        return 0.0;
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char ch : s) {
        if (ch == '"' || ch == '\\')
            out += '\\';
        out += ch;
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

std::string
jsonList(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        out += (i > 0 ? "," : "") + items[i];
    return out + "]";
}

/**
 * Host-speed probe: a fixed amount of work shaped like the
 * simulator's (random read-modify-writes over a 2 MB table, a pointer
 * chase through 8 MB, and branchy integer arithmetic), timed. On a
 * shared host the same sweep can take half as long again in busy
 * minutes; run.py divides each sample's host times by this probe's,
 * taken next to the sample, to take that drift out. It never calls
 * the simulator, so a faster simulator still reads faster.
 */
double
probeSeconds()
{
    constexpr std::size_t kTableWords = std::size_t{1} << 18;
    constexpr std::size_t kChaseSlots = std::size_t{1} << 21;
    std::vector<std::uint64_t> table(kTableWords);
    for (std::size_t i = 0; i < kTableWords; ++i)
        table[i] = i * 2654435761ULL;
    std::vector<std::uint32_t> next(kChaseSlots);
    for (std::size_t i = 0; i < kChaseSlots; ++i)
        next[i] = static_cast<std::uint32_t>(i);
    std::uint64_t x = 88172645463325252ULL;
    const auto xorshift = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (std::size_t i = kChaseSlots - 1; i > 0; --i)
        std::swap(next[i], next[xorshift() % i]);

    const Clock::time_point start = Clock::now();
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < 30'000'000; ++i) {
        std::uint64_t &slot = table[xorshift() & (kTableWords - 1)];
        acc += slot;
        slot += i;
    }
    std::uint32_t p = 0;
    for (int i = 0; i < 750'000; ++i)
        p = next[p];
    for (int i = 0; i < 15'000'000; ++i) {
        const std::uint64_t r = xorshift();
        if (r & 1)
            acc += r >> 3;
        else
            acc ^= r * 3;
        if ((r >> 5) % 3 == 0)
            acc += 11;
    }
    const double elapsed = seconds(start, Clock::now());
    // Keep the work observable so the compiler cannot drop it.
    if (acc + p == 42)
        std::fprintf(stderr, "perfbench: probe checksum %llu\n",
                     static_cast<unsigned long long>(acc + p));
    return elapsed;
}

/** Median over `reps` of the summed System construction time. */
double
setupSeconds(const perfbench::Workload &workload, unsigned reps)
{
    std::vector<SweepJob> pairs;
    std::set<std::pair<std::string, PrefetcherKind>> seen;
    for (const SweepJob &job : perfbench::simulatedJobs(workload.jobs)) {
        if (seen.emplace(job.workload, job.config.prefetcher.kind).second)
            pairs.push_back(job);
    }
    std::vector<double> totals;
    for (unsigned r = 0; r < reps; ++r) {
        TraceCache::instance().clear();
        double total = 0.0;
        for (const SweepJob &job : pairs) {
            SystemConfig config = job.config;
            config.seed = job.options.seed;
            const Clock::time_point start = Clock::now();
            const System system(config, job.workload);
            total += seconds(start, Clock::now());
        }
        totals.push_back(total);
    }
    TraceCache::instance().clear();
    return median(totals);
}

/** The result of a job that ran cleanly; nullptr if failed/degraded. */
const RunResult *
cleanResult(const JobOutcome &outcome)
{
    return outcome.status == JobStatus::Ok && !outcome.result.degraded
               ? &outcome.result
               : nullptr;
}

std::string
digestOf(const RunResult *result)
{
    return jsonString(result != nullptr ? perfbench::digest(*result)
                                        : "failed");
}

int
sweepMode(const perfbench::Workload &workload, unsigned setup_reps,
          bool canary)
{
    if (workload.dist_workers > 0) {
        ::setenv("BINGO_DIST_WORKERS",
                 std::to_string(workload.dist_workers).c_str(), 1);
        if (dist::workerBinaryPath().empty()) {
            std::fprintf(stderr, "perfbench: bingo_worker not found\n");
            return 2;
        }
    }
    const double probe_before_s = probeSeconds();
    const Clock::time_point start = Clock::now();
    const std::vector<JobOutcome> outcomes =
        runSweepOutcomes(workload.jobs, workload.threads);
    const double sweep_s = seconds(start, Clock::now());
    ::unsetenv("BINGO_DIST_WORKERS");

    struct rusage self_usage = {};
    ::getrusage(RUSAGE_SELF, &self_usage);
    const TraceCacheStats cache = TraceCache::instance().stats();
    // After the peak-memory reading, which the probe's tables must
    // not raise.
    const double probe_after_s = probeSeconds();

    // Jobs, then the baselines the sweep computed alongside them.
    const std::vector<SweepJob> simulated =
        perfbench::simulatedJobs(workload.jobs);
    std::vector<std::string> digests;
    std::vector<std::string> job_walls;
    std::size_t failed = 0;
    double err_sum = 0.0, err_count = 0.0;
    std::uint64_t instructions = 0;
    for (std::size_t i = 0; i < simulated.size(); ++i) {
        const SweepJob &job = simulated[i];
        instructions += perfbench::nominalInstructions(job);
        const RunResult *result = nullptr;
        if (i < outcomes.size()) {
            job_walls.push_back(jsonNumber(outcomes[i].wall_seconds));
            result = cleanResult(outcomes[i]);
        } else {
            result = tryBaselineFor(job.workload, SystemConfig{},
                                    job.options);
        }
        digests.push_back(digestOf(result));
        if (result == nullptr) {
            ++failed;
            continue;
        }
        const double paper = perfbench::paperMpki(job.workload);
        if (result->kind == PrefetcherKind::None && paper > 0.0) {
            err_sum += std::fabs(result->llcMpki() - paper) / paper;
            err_count += 1.0;
        }
    }

    const double setup_s = setupSeconds(workload, setup_reps);

    std::vector<std::string> canary_digests;
    if (canary) {
        std::vector<SweepJob> jobs = perfbench::simulatedJobs(
            perfbench::buildWorkload(workload.name, kCanarySeed).jobs);
        jobs.resize(std::min(jobs.size(), kCanaryJobs));
        for (const JobOutcome &outcome : runSweepOutcomes(jobs, 1))
            canary_digests.push_back(digestOf(cleanResult(outcome)));
    }

    std::printf(
        "{\"threads\":%u,\"sweep_s\":%s,\"setup_s\":%s,\"probe_s\":%s,"
        "\"job_wall_s\":%s,\"digests\":%s,\"canary_digests\":%s,"
        "\"failed\":%zu,\"instructions\":%llu,\"mpki_err_pct\":%s,"
        "\"peak_rss_kb\":%ld,"
        "\"trace_cache\":{\"hits\":%llu,\"misses\":%llu,"
        "\"bytes\":%llu,\"records_generated\":%llu}}\n",
        std::max(workload.threads, workload.dist_workers),
        jsonNumber(sweep_s).c_str(), jsonNumber(setup_s).c_str(),
        jsonList({jsonNumber(probe_before_s), jsonNumber(probe_after_s)})
            .c_str(),
        jsonList(job_walls).c_str(), jsonList(digests).c_str(),
        jsonList(canary_digests).c_str(), failed,
        static_cast<unsigned long long>(instructions),
        jsonNumber(100.0 * (err_count > 0 ? err_sum / err_count : 0.0))
            .c_str(),
        self_usage.ru_maxrss,
        static_cast<unsigned long long>(cache.hits),
        static_cast<unsigned long long>(cache.misses),
        static_cast<unsigned long long>(cache.bytes),
        static_cast<unsigned long long>(cache.records_generated));
    return 0;
}

int
traceMode(const perfbench::Workload &workload)
{
    const perfbench::TraceReport report = perfbench::runTraced(workload);
    std::vector<std::string> digests, metrics;
    for (const std::string &d : report.digests)
        digests.push_back(jsonString(d));
    for (const auto &[name, value] : report.metrics)
        metrics.push_back(jsonString(name) + ":" + jsonNumber(value));
    std::string metric_obj = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        metric_obj += (i > 0 ? "," : "") + metrics[i];
    metric_obj += "}";
    std::printf("{\"traced_wall_s\":%s,\"digests\":%s,"
                "\"failed\":%zu,\"metrics\":%s}\n",
                jsonNumber(report.traced_wall_s).c_str(),
                jsonList(digests).c_str(), report.failed,
                metric_obj.c_str());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_sample --workload <name> --seed <n> "
                 "[--mode sweep|trace] [--setup-reps <r>] [--canary] "
                 "[--threads <t> | --workers <w>]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name, mode = "sweep";
    std::uint64_t seed = 0;
    bool have_seed = false, canary = false;
    unsigned setup_reps = 3;
    long threads = 0, workers = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const bool has_value = i + 1 < argc;
        if (arg == "--workload" && has_value) {
            workload_name = argv[++i];
        } else if (arg == "--seed" && has_value) {
            seed = std::strtoull(argv[++i], nullptr, 10);
            have_seed = true;
        } else if (arg == "--mode" && has_value) {
            mode = argv[++i];
        } else if (arg == "--setup-reps" && has_value) {
            setup_reps = static_cast<unsigned>(
                std::max(1L, std::strtol(argv[++i], nullptr, 10)));
        } else if (arg == "--canary") {
            canary = true;
        } else if (arg == "--threads" && has_value) {
            threads = std::strtol(argv[++i], nullptr, 10);
        } else if (arg == "--workers" && has_value) {
            workers = std::strtol(argv[++i], nullptr, 10);
        } else {
            return usage();
        }
    }
    if (workload_name.empty() || !have_seed ||
        (mode != "sweep" && mode != "trace") || threads < 0 ||
        workers < 0 || (threads > 0 && workers > 0) || threads > 64 ||
        workers > 64)
        return usage();

    try {
        perfbench::Workload workload =
            perfbench::buildWorkload(workload_name, seed);
        if (threads > 0 || workers > 0) {
            workload.threads = static_cast<unsigned>(threads);
            workload.dist_workers = static_cast<unsigned>(workers);
        }
        return mode == "trace" ? traceMode(workload)
                               : sweepMode(workload, setup_reps, canary);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench_sample: %s\n", e.what());
        return 1;
    }
}
