#include "sim/thread_pool.hpp"

namespace bingo
{

ThreadPool::ThreadPool(unsigned num_threads)
{
    if (num_threads == 0)
        num_threads = 1;
    workers_.reserve(num_threads);
    for (unsigned i = 0; i < num_threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    work_ready_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(job));
        ++unfinished_;
    }
    work_ready_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    all_idle_.wait(lock, [this] { return unfinished_ == 0; });
    if (first_error_) {
        std::exception_ptr error = first_error_;
        first_error_ = nullptr;
        std::rethrow_exception(error);
    }
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_ready_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (queue_.empty())
                return;  // stopping_ with nothing left to run.
            job = std::move(queue_.front());
            queue_.pop_front();
        }

        // From here until the decrement below, this job is "in flight".
        // Capturing the exception (std::current_exception is noexcept)
        // and destroying the job's captured state must both happen
        // before the counter reaches zero: a waiter returning from
        // wait() may immediately free resources the job referenced,
        // and a throw escaping past the decrement would strand every
        // waiter in wait() forever.
        std::exception_ptr error;
        try {
            job();
        } catch (...) {
            error = std::current_exception();
        }
        job = nullptr;

        {
            std::lock_guard<std::mutex> lock(mutex_);
            if (error && !first_error_)
                first_error_ = std::move(error);
            if (--unfinished_ == 0)
                all_idle_.notify_all();
        }
    }
}

} // namespace bingo
