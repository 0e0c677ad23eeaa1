#include "common/thread_pool.hh"

#include <algorithm>

namespace gopim {

ThreadPool::ThreadPool(size_t threads)
{
    threads = std::max<size_t>(1, threads);
    workers_.reserve(threads);
    for (size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        // Notify while holding the lock: a worker between its empty
        // check and its wait cannot miss the wake-up (the repo-wide
        // notify-under-lock convention gopim_lint enforces).
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        cv_.notify_all();
    }
    for (auto &worker : workers_)
        worker.join();
}

size_t
ThreadPool::resolveJobs(size_t jobs)
{
    if (jobs != 0)
        return jobs;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

void
ThreadPool::enqueue(std::function<void()> job)
{
    size_t depth;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(job));
        depth = queue_.size();
        cv_.notify_one(); // under the lock: no lost wake-up window
    }
    // Relaxed: both counters are advisory utilization metrics (see
    // thread_pool.hh); the CAS-max loop is monotone and re-reads the
    // observed value on failure, so it converges under any
    // interleaving without ordering guarantees.
    tasksSubmitted_.fetch_add(1, std::memory_order_relaxed);
    uint64_t seen = maxQueueDepth_.load(std::memory_order_relaxed);
    while (seen < depth &&
           !maxQueueDepth_.compare_exchange_weak(
               seen, depth, std::memory_order_relaxed))
        ;
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> job;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping and drained
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        job(); // counts itself; exceptions land in the future
    }
}

ThreadPool &
processPool()
{
    static ThreadPool pool(ThreadPool::resolveJobs(0));
    return pool;
}

namespace {

/** Set while executing a parallelFor chunk on a pool worker. */
thread_local bool inParallelForWorker = false;

} // namespace

void
parallelFor(size_t count, size_t jobs,
            const std::function<void(size_t)> &fn)
{
    jobs = std::min(ThreadPool::resolveJobs(jobs), count);
    // Inline fallbacks: trivial parallelism, or a nested call from
    // inside a chunk (waiting on the shared pool from one of its own
    // workers would deadlock once all workers did it).
    if (jobs <= 1 || inParallelForWorker) {
        for (size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    // `jobs` contiguous chunks on the shared pool: the caller's
    // concurrency bound survives even though the pool may be larger.
    // Each chunk attempts every index and keeps its first exception;
    // rethrowing from the lowest-indexed failing chunk preserves the
    // "first failing index wins" contract of the per-task version.
    struct Chunk
    {
        std::exception_ptr error;
    };
    std::vector<Chunk> chunks(jobs);
    std::vector<std::future<void>> futures;
    futures.reserve(jobs);
    const size_t base = count / jobs;
    const size_t extra = count % jobs;
    size_t begin = 0;
    for (size_t c = 0; c < jobs; ++c) {
        const size_t size = base + (c < extra ? 1 : 0);
        const size_t end = begin + size;
        futures.push_back(processPool().submit(
            [&fn, &chunk = chunks[c], begin, end] {
                inParallelForWorker = true;
                for (size_t i = begin; i < end; ++i) {
                    try {
                        fn(i);
                    } catch (...) {
                        if (!chunk.error)
                            chunk.error = std::current_exception();
                    }
                }
                inParallelForWorker = false;
            }));
        begin = end;
    }
    for (auto &future : futures)
        future.get();
    for (const Chunk &chunk : chunks) {
        if (chunk.error)
            std::rethrow_exception(chunk.error);
    }
}

} // namespace gopim
