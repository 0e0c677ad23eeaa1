/**
 * @file
 * Fixed-size worker thread pool for embarrassingly parallel grid
 * sweeps (the comparison harness's dataset x system cells).
 *
 * Tasks are plain std::function jobs; submit() returns a
 * std::future so callers retrieve results — and rethrown exceptions
 * — in submission order regardless of completion order, which keeps
 * parallel runs bit-identical to serial ones.
 */

#ifndef GOPIM_COMMON_THREAD_POOL_HH
#define GOPIM_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace gopim {

/** Fixed pool of worker threads draining a FIFO task queue. */
class ThreadPool
{
  public:
    /** Spawn `threads` workers (>= 1; 0 is clamped to 1). */
    explicit ThreadPool(size_t threads);

    /** Drains remaining tasks, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue a callable; the future yields its result or rethrows
     * what it threw. Tasks start in FIFO order.
     */
    template <typename Fn>
    auto
    submit(Fn &&fn) -> std::future<std::invoke_result_t<Fn>>
    {
        using Result = std::invoke_result_t<Fn>;
        auto task = std::make_shared<std::packaged_task<Result()>>(
            [this, fn = std::forward<Fn>(fn)]() mutable -> Result {
                // Destroyed as fn returns or throws, before the
                // packaged_task makes the future ready: the count is
                // sequenced before the result on both paths.
                const CompletionCount count(tasksCompleted_);
                return fn();
            });
        auto future = task->get_future();
        enqueue([task] { (*task)(); });
        return future;
    }

    size_t threadCount() const { return workers_.size(); }

    /** Tasks enqueued over the pool's lifetime. */
    uint64_t tasksSubmitted() const
    {
        return tasksSubmitted_.load(std::memory_order_relaxed);
    }
    /** Tasks finished (including ones that threw). */
    uint64_t tasksCompleted() const
    {
        return tasksCompleted_.load(std::memory_order_relaxed);
    }
    /** High-water mark of tasks waiting in the queue. */
    uint64_t maxQueueDepth() const
    {
        return maxQueueDepth_.load(std::memory_order_relaxed);
    }

    /**
     * Sensible worker count for `jobs`: 0 means "all hardware
     * threads", otherwise `jobs` itself.
     */
    static size_t resolveJobs(size_t jobs);

  private:
    /** Counts one finished task when it goes out of scope. */
    class CompletionCount
    {
      public:
        explicit CompletionCount(std::atomic<uint64_t> &completed)
            : completed_(completed)
        {
        }
        ~CompletionCount()
        {
            completed_.fetch_add(1, std::memory_order_relaxed);
        }
        CompletionCount(const CompletionCount &) = delete;
        CompletionCount &operator=(const CompletionCount &) = delete;

      private:
        std::atomic<uint64_t> &completed_;
    };

    void enqueue(std::function<void()> job);
    void workerLoop();

    std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> queue_;
    bool stopping_ = false;
    // Utilization counters are relaxed atomics: they are monotone
    // sums/maxima with no payload, so no acquire/release pairing is
    // required. A task's completion is counted inside the submit()
    // wrapper, sequenced before its future becomes ready, so once
    // future.get() returns for every submitted task tasksCompleted()
    // includes them all (the shared state's release/acquire carries
    // the relaxed update). The destructor's join() orders everything;
    // other mid-run reads are advisory snapshots and may lag.
    std::atomic<uint64_t> tasksSubmitted_{0};
    std::atomic<uint64_t> tasksCompleted_{0};
    std::atomic<uint64_t> maxQueueDepth_{0};
    // Last member on purpose: members destroy in reverse declaration
    // order, so everything the worker threads touch must outlive
    // them (the concurrency-join-order lint rule).
    std::vector<std::thread> workers_;
};

/**
 * Process-wide shared pool sized to the hardware thread count.
 * Created on first use, lives for the process. parallelFor() runs on
 * it instead of constructing a fresh pool per call, so repeated
 * grid sweeps pay thread spawn/join cost once.
 */
ThreadPool &processPool();

/**
 * Run fn(i) for i in [0, count) with `jobs`-way parallelism and
 * block until all complete; exceptions are rethrown (the first, by
 * index; every index is still attempted). With jobs <= 1 the loop
 * runs inline on the caller's thread.
 *
 * Work executes on the shared processPool() as `jobs` contiguous
 * index chunks, so the effective concurrency is
 * min(jobs, hardware threads). Nested parallelFor calls from inside
 * a chunk run inline — the pool never deadlocks waiting on itself.
 */
void parallelFor(size_t count, size_t jobs,
                 const std::function<void(size_t)> &fn);

} // namespace gopim

#endif // GOPIM_COMMON_THREAD_POOL_HH
