/**
 * @file
 * Minimal fixed-size thread pool used by the parallel experiment
 * runner (sim/experiment.hpp).
 *
 * Deliberately simple: one mutex/condvar-protected FIFO job queue, no
 * work stealing, no futures. Simulation jobs are long (milliseconds to
 * seconds each), so queue contention is irrelevant; what matters is
 * that independent runs occupy every hardware thread. The pool is
 * reusable: submit a batch, wait() for it to drain, submit the next.
 */

#ifndef BINGO_SIM_THREAD_POOL_HPP
#define BINGO_SIM_THREAD_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bingo
{

/** Fixed set of workers draining a FIFO job queue. */
class ThreadPool
{
  public:
    /** Spawn `num_threads` workers (at least one). */
    explicit ThreadPool(unsigned num_threads);

    /** Drains the queue, then joins every worker. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue `job`; it runs on some worker in FIFO order. */
    void submit(std::function<void()> job);

    /**
     * Block until every submitted job has finished. If any job threw,
     * the first captured exception is rethrown here (remaining jobs
     * still run to completion).
     */
    void wait();

    unsigned numThreads() const
    {
        return static_cast<unsigned>(workers_.size());
    }

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable work_ready_;  ///< Signals queued jobs.
    std::condition_variable all_idle_;    ///< Signals unfinished_ == 0.
    std::size_t unfinished_ = 0;          ///< Queued + running jobs.
    std::exception_ptr first_error_;
    bool stopping_ = false;
};

} // namespace bingo

#endif // BINGO_SIM_THREAD_POOL_HPP
