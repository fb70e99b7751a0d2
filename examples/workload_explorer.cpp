/**
 * @file
 * Characterize the synthetic workload suite without running timing
 * simulation: memory-op density, unique-region footprint, hottest
 * region share, sequential-neighbour rate, and pointer-dependence
 * fraction. Useful when tuning generators or adding a new workload —
 * each column maps to a locality class the prefetchers react to.
 *
 * Usage: workload_explorer [instructions-per-workload]
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <set>

#include "sim/report.hpp"
#include "workload/generator.hpp"

int
main(int argc, char **argv)
{
    using namespace bingo;

    const int budget =
        argc > 1 ? std::atoi(argv[1]) : 400 * 1000;

    std::printf("Workload characterization over %d instructions per "
                "workload (core 0, seed 42)\n\n",
                budget);

    TextTable table({"Workload", "Mem ops", "Mem %", "Regions",
                     "Hottest region", "Sequential", "Dependent"});
    for (const std::string &name : workloadNames()) {
        auto source = makeWorkload(name, 0, 42);
        std::set<Addr> regions;
        std::map<Addr, int> region_counts;
        Addr prev_block = 0;
        int mem = 0;
        int sequential = 0;
        int dependent = 0;
        // A compute record stands for `count` instructions.
        for (std::int64_t instructions = 0; instructions < budget;) {
            const TraceRecord rec = source->next();
            instructions += rec.count;
            if (!isMemory(rec.type))
                continue;
            ++mem;
            dependent += rec.dependent;
            const Addr region = regionNumber(rec.addr);
            regions.insert(region);
            ++region_counts[region];
            if (prev_block != 0 &&
                blockNumber(rec.addr) == prev_block + 1) {
                ++sequential;
            }
            prev_block = blockNumber(rec.addr);
        }
        int hottest = 0;
        for (const auto &[region, count] : region_counts)
            hottest = std::max(hottest, count);

        table.addRow(
            {name, std::to_string(mem),
             fmtPercent(static_cast<double>(mem) / budget),
             std::to_string(regions.size()),
             fmtPercent(static_cast<double>(hottest) / (mem + 1)),
             fmtPercent(static_cast<double>(sequential) / (mem + 1)),
             fmtPercent(static_cast<double>(dependent) / (mem + 1))});
    }
    table.print();

    std::printf("\nReading the columns: high 'Sequential' favours "
                "delta prefetchers; high 'Dependent' marks latency-"
                "bound pointer chasing; a large region count with low "
                "'Hottest' share means compulsory-miss streaming; "
                "low 'Mem %%' means compute-bound.\n");
    return 0;
}
