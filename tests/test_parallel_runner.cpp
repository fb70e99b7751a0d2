/**
 * @file
 * Tests of the parallel experiment runner: ThreadPool semantics,
 * bit-identical sweep results at any thread count, and the
 * concurrency-safe memoized baseline cache.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/experiment.hpp"
#include "sim/thread_pool.hpp"
#include "test_util.hpp"

namespace
{

using namespace bingo;

/** Small runs so the whole file stays in test-suite territory. */
ExperimentOptions
smallOptions(std::uint64_t seed = 42)
{
    ExperimentOptions options;
    options.warmup_instructions = 8000;
    options.measure_instructions = 16000;
    options.seed = seed;
    return options;
}

std::vector<SweepJob>
smallSweep()
{
    const ExperimentOptions options = smallOptions();
    std::vector<SweepJob> jobs;
    for (const char *workload : {"Data Serving", "Streaming", "em3d"}) {
        for (PrefetcherKind kind :
             {PrefetcherKind::Bingo, PrefetcherKind::Sms}) {
            SystemConfig config = SystemConfig::singleCore();
            config.prefetcher.kind = kind;
            jobs.push_back({workload, config, options,
                            /*compare_baseline=*/false});
        }
    }
    return jobs;
}

TEST(ThreadPool, RunsEveryJobAndIsReusableAfterWait)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.numThreads(), 4u);

    std::atomic<int> counter{0};
    for (int batch = 0; batch < 3; ++batch) {
        for (int i = 0; i < 100; ++i)
            pool.submit([&counter] {
                counter.fetch_add(1, std::memory_order_relaxed);
            });
        pool.wait();
        EXPECT_EQ(counter.load(), (batch + 1) * 100);
    }
}

TEST(ThreadPool, WaitRethrowsFirstJobException)
{
    ThreadPool pool(2);
    std::atomic<int> completed{0};
    for (int i = 0; i < 8; ++i) {
        pool.submit([&completed, i] {
            if (i == 3)
                throw std::runtime_error("job 3 failed");
            completed.fetch_add(1, std::memory_order_relaxed);
        });
    }
    EXPECT_THROW(pool.wait(), std::runtime_error);
    // The other jobs still ran to completion.
    EXPECT_EQ(completed.load(), 7);
    // And the pool is usable again afterwards.
    pool.submit([&completed] { completed.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(completed.load(), 8);
}

TEST(ParallelRunner, SerialAndParallelSweepsAreBitIdentical)
{
    const std::vector<SweepJob> jobs = smallSweep();
    const std::vector<RunResult> serial = runSweep(jobs, 1);
    const std::vector<RunResult> parallel = runSweep(jobs, 4);

    ASSERT_EQ(serial.size(), jobs.size());
    ASSERT_EQ(parallel.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SCOPED_TRACE("job " + std::to_string(i));
        test::expectSameRun(serial[i], parallel[i]);
    }
}

TEST(ParallelRunner, ResultsComeBackInJobOrder)
{
    const std::vector<SweepJob> jobs = smallSweep();
    const std::vector<RunResult> results = runSweep(jobs, 4);
    ASSERT_EQ(results.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(results[i].workload, jobs[i].workload);
        EXPECT_EQ(results[i].kind, jobs[i].config.prefetcher.kind);
    }
}

TEST(BaselineCache, ConcurrentSameWorkloadComputesOnce)
{
    // Every thread must get the same cached entry (same address), and
    // the lost-update race of the old bare `static std::map` must not
    // corrupt anything under contention.
    const ExperimentOptions options = smallOptions(/*seed=*/777);
    const std::uint64_t runs_before = completedRuns();

    std::vector<const RunResult *> entries(8, nullptr);
    {
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < entries.size(); ++t) {
            threads.emplace_back([&entries, t, &options] {
                entries[t] = &baselineFor("Streaming", SystemConfig{},
                                          options);
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }

    for (const RunResult *entry : entries) {
        ASSERT_NE(entry, nullptr);
        EXPECT_EQ(entry, entries[0]);
    }
    // All eight callers shared one simulation.
    EXPECT_EQ(completedRuns() - runs_before, 1u);
}

TEST(BaselineCache, ConcurrentDistinctWorkloadsGetDistinctEntries)
{
    const ExperimentOptions options = smallOptions(/*seed=*/778);
    const std::vector<std::string> workloads = {
        "Data Serving", "Streaming", "em3d", "Mix 2"};

    std::vector<const RunResult *> entries(workloads.size(), nullptr);
    {
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < workloads.size(); ++t) {
            threads.emplace_back([&entries, &workloads, t, &options] {
                entries[t] = &baselineFor(workloads[t], SystemConfig{},
                                          options);
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }

    for (std::size_t t = 0; t < workloads.size(); ++t) {
        ASSERT_NE(entries[t], nullptr);
        EXPECT_EQ(entries[t]->workload, workloads[t]);
        for (std::size_t u = t + 1; u < workloads.size(); ++u)
            EXPECT_NE(entries[t], entries[u]);
    }
}

TEST(BaselineCache, KeyIncludesOptionsNotJustWorkloadName)
{
    // The old cache keyed on the workload name alone, so a second call
    // with different instruction counts returned the wrong run.
    const ExperimentOptions a = smallOptions(/*seed=*/779);
    ExperimentOptions b = a;
    b.measure_instructions = a.measure_instructions * 2;

    const RunResult &result_a = baselineFor("em3d", SystemConfig{}, a);
    const RunResult &result_b = baselineFor("em3d", SystemConfig{}, b);
    EXPECT_NE(&result_a, &result_b);
    EXPECT_GT(result_b.instructions, result_a.instructions);
}

TEST(BaselineCache, KeyIncludesEverySubstrateField)
{
    // The memo is keyed by the baseline job's fingerprint, so a config
    // differing in any substrate field (here a DRAM timing) gets a
    // baseline of its own, and it is that config's result.
    const ExperimentOptions options = smallOptions(/*seed=*/780);
    const RunResult &table_one =
        baselineFor("Streaming", SystemConfig{}, options);

    SystemConfig slow;
    slow.dram.t_cas = 80;
    const RunResult &result = baselineFor("Streaming", slow, options);
    EXPECT_NE(&result, &table_one);
    EXPECT_NE(journalEncode("run", result),
              journalEncode("run", table_one));
    test::expectSameRun(result, runWorkload("Streaming", slow, options));
}

TEST(BaselineCache, SweepRunsRequestedBaselinesAsJobsAndMemoizesThem)
{
    const ExperimentOptions options = smallOptions(/*seed=*/781);
    std::vector<SweepJob> jobs;
    for (PrefetcherKind kind :
         {PrefetcherKind::Bingo, PrefetcherKind::Sms}) {
        SystemConfig config;
        config.prefetcher.kind = kind;
        jobs.push_back({"em3d", config, options,
                        /*compare_baseline=*/true});
    }

    const std::uint64_t runs_before = completedRuns();
    const std::vector<JobOutcome> outcomes = runSweepOutcomes(jobs, 2);
    // The caller's jobs only, in order; one shared baseline ran too.
    ASSERT_EQ(outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        ASSERT_EQ(outcomes[i].status, JobStatus::Ok) << outcomes[i].error;
        EXPECT_EQ(outcomes[i].result.kind, jobs[i].config.prefetcher.kind);
    }
    EXPECT_EQ(completedRuns() - runs_before, jobs.size() + 1);

    // baselineFor reads the sweep's baseline instead of re-running it.
    const RunResult &base = baselineFor("em3d", SystemConfig{}, options);
    EXPECT_EQ(completedRuns() - runs_before, jobs.size() + 1);
    EXPECT_EQ(base.kind, PrefetcherKind::None);
    test::expectSameRun(base,
                     runWorkload("em3d", SystemConfig{}, options));

    // Memoized baselines are not run again by a later sweep.
    const std::uint64_t runs_again = completedRuns();
    (void)runSweepOutcomes(jobs, 2);
    EXPECT_EQ(completedRuns() - runs_again, jobs.size());
}

} // namespace
