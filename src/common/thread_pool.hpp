/**
 * @file
 * A small fixed-size thread pool for batch (offline) analysis.
 *
 * Deliberately simple — one shared FIFO queue, no work stealing: the
 * parallel analyzer submits a handful of coarse, equally-sized chunk
 * tasks, so queue contention is negligible and a plain mutex+condvar
 * queue keeps the implementation easy to reason about (and easy for
 * TSan to verify).  The streaming hot path never touches this; it is
 * used only when crunching recorded captures faster than real time.
 */

#ifndef EMPROF_COMMON_THREAD_POOL_HPP
#define EMPROF_COMMON_THREAD_POOL_HPP

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace emprof::common {

/** Fixed-size pool of worker threads consuming a shared task queue. */
class ThreadPool
{
  public:
    /**
     * @param threads Worker count; 0 means hardwareThreads().
     */
    explicit ThreadPool(std::size_t threads = 0);

    /** Joins all workers after draining already-submitted tasks. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue a task; the returned future becomes ready when the task
     * has run (or rethrows the task's exception on get()).
     *
     * After drain() has begun the task is NOT enqueued: the returned
     * future rethrows PoolDrained on get().  This keeps the
     * late-enqueue race during shutdown well-defined — the submitter
     * always gets a future, and that future always resolves.
     */
    std::future<void> submit(std::function<void()> task);

    /** Thrown (via future) by tasks submitted after drain() began. */
    struct PoolDrained : std::runtime_error
    {
        PoolDrained() : std::runtime_error("thread pool drained") {}
    };

    /**
     * Shut down deterministically: reject all further submissions,
     * run every already-queued task to completion, and join the
     * workers.  Safe to call from any thread except a pool worker
     * (a worker joining itself would deadlock), safe to call more
     * than once, and the destructor calls it implicitly.  This is
     * what a server's SIGTERM path wants: in-flight analysis
     * completes, late arrivals get a typed rejection, and after
     * return no pool thread exists.
     */
    void drain();

    /** True once drain() has begun; submissions are being rejected. */
    bool draining() const;

    /** Number of worker threads. */
    std::size_t size() const { return workers_.size(); }

    /** std::thread::hardware_concurrency(), floored at 1. */
    static std::size_t hardwareThreads();

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::packaged_task<void()>> queue_;
    mutable std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;

    /** Guards the join phase of drain(); joined_ lives under it. */
    std::mutex joinMutex_;
    bool joined_ = false;
};

} // namespace emprof::common

#endif // EMPROF_COMMON_THREAD_POOL_HPP
