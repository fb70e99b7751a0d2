/**
 * @file
 * The traced run: the workload's simulations driven System by System
 * through the public API, with spans around the calls into each
 * layer, followed by stand-alone replays of captured access streams
 * into the prefetch and cache layers.
 */

#ifndef BINGO_PERFBENCH_TRACE_HPP
#define BINGO_PERFBENCH_TRACE_HPP

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace perfbench
{

/** Per-layer numbers of one traced run. */
struct TraceReport
{
    /// Digest per simulated job, in simulatedJobs() order.
    std::vector<std::string> digests;
    std::size_t failed = 0;
    /// Host seconds of the traced simulations, trace fills included.
    double traced_wall_s = 0.0;
    /// Per-layer metrics measured inside the traced run, by name.
    std::map<std::string, double> metrics;
};

/** Run `workload` traced. Never throws for a failing job. */
TraceReport runTraced(const Workload &workload);

} // namespace perfbench

#endif // BINGO_PERFBENCH_TRACE_HPP
