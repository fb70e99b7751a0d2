/**
 * @file
 * The benchmark's workloads as sweep job lists, plus the per-job
 * result digest the correctness oracle compares.
 */

#ifndef BINGO_PERFBENCH_WORKLOADS_HPP
#define BINGO_PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace perfbench
{

/** One benchmark workload: the sweep it times and how it runs. */
struct Workload
{
    std::string name;
    std::vector<bingo::SweepJob> jobs;
    /// Sweep threads passed to runSweepOutcomes; 0 when the sweep is
    /// dispatched to worker processes, whose runner picks its own.
    unsigned threads = 1;
    /// bingo_worker processes to dispatch to (0 = in-process).
    unsigned dist_workers = 0;
};

/** Names accepted by buildWorkload(), in documentation order. */
const std::vector<std::string> &workloadNames();

/**
 * The job list of workload `name` generated from `seed`. Throws
 * std::invalid_argument for an unknown name.
 */
Workload buildWorkload(const std::string &name, std::uint64_t seed);

/**
 * Every simulation the sweep performs: the jobs in order, then one
 * no-prefetcher baseline per distinct stream of the jobs that set
 * compare_baseline, in first-seen order. This is also the order of
 * the digest list.
 */
std::vector<bingo::SweepJob>
simulatedJobs(const std::vector<bingo::SweepJob> &jobs);

/** Simulated instructions of `job`: warm-up + measure, all cores. */
std::uint64_t nominalInstructions(const bingo::SweepJob &job);

/**
 * Hex digest of a run's simulated statistics: prefetcher kind,
 * per-core IPC bit patterns, instruction count, L1D/LLC counters and
 * DRAM counters.
 */
std::string digest(const bingo::RunResult &result);

/** Paper Table II LLC MPKI of `workload`; 0 when not in Table II. */
double paperMpki(const std::string &workload);

} // namespace perfbench

#endif // BINGO_PERFBENCH_WORKLOADS_HPP
