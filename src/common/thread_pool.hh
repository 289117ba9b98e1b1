/**
 * @file
 * A small fixed-size thread pool with a blocking parallel-for.
 *
 * The rendering pipeline parallelises over Gaussians (projection,
 * binning) and over image tiles (rasterisation); the pool provides the
 * worker threads. A process-wide pool (globalPool()) is shared by all
 * render pipelines so thread creation cost is paid once.
 *
 * parallelFor is safe to call from inside a worker thread: nested calls
 * are detected and run inline instead of enqueuing chunks that only the
 * (blocked) workers could drain. The calling thread also participates in
 * chunk execution, so a parallelFor never idles the caller.
 */

#ifndef RTGS_COMMON_THREAD_POOL_HH
#define RTGS_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <queue>
#include <thread>
#include <vector>

#include "common/annotations.hh"
#include "common/executor.hh"
#include "common/mutex.hh"

namespace rtgs
{

/**
 * Fixed-size worker pool. Tasks are std::function<void()>; parallelFor
 * blocks the caller until all chunks complete (helping to run them).
 * Implements Executor through post(), so pool-agnostic components (the
 * async map drain) can be pointed at it or at a fleet executor alike.
 */
class ThreadPool : public Executor
{
  public:
    /**
     * Create a pool.
     *
     * @param num_threads Worker count; 0 selects one worker per CPU in
     *        the calling thread's affinity mask (hardware concurrency
     *        when the mask cannot be read).
     */
    explicit ThreadPool(size_t num_threads = 0);
    ~ThreadPool() override;

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    size_t size() const { return workers_.size(); }

    size_t workerCount() const override { return workers_.size(); }

    /** True when the calling thread is one of this pool's workers. */
    bool onWorkerThread() const;

    /**
     * Run fn(i) for every i in [begin, end), split into contiguous chunks
     * across the workers and the calling thread; blocks until all
     * iterations finish. Nested calls from worker threads run inline.
     */
    void parallelFor(size_t begin, size_t end,
                     const std::function<void(size_t)> &fn);

    /**
     * Chunked variant: fn(lo, hi) is invoked once per contiguous chunk,
     * letting hot loops avoid a std::function call per index. Same
     * blocking / nesting semantics as parallelFor. `grain` is the
     * smallest chunk worth a fork-join (chunkCount); a range of at most
     * one grain runs inline on the caller.
     */
    void parallelForChunks(size_t begin, size_t end,
                           const std::function<void(size_t, size_t)> &fn,
                           size_t grain = 1);

    /**
     * Chunks to split `total` items into when one chunk should carry at
     * least `grain` items: ceil(total / grain), capped at 4 per thread
     * (caller + workers), and at least 1. Stages with their own fixed
     * chunk boundaries size them with this, so work below one grain
     * stays a single inline chunk.
     */
    size_t chunkCount(size_t total, size_t grain) const;

    /**
     * Enqueue a standalone task and return a future that becomes ready
     * when it finishes (exceptions propagate through the future).
     * Unlike parallelFor the caller does not block or participate.
     */
    std::future<void> submit(std::function<void()> task);

    /**
     * Fire-and-forget variant of submit: no future, no packaged-task
     * allocation. The task must not throw. Used by the asynchronous
     * mapping stage, which tracks completion itself.
     */
    void post(std::function<void()> task) override;

  private:
    void workerLoop();
    void enqueue(std::function<void()> task);

    /** Immutable after construction (joined in the destructor). */
    std::vector<std::thread> workers_;

    Mutex mutex_;
    std::condition_variable cv_;
    std::queue<std::function<void()>> tasks_ RTGS_GUARDED_BY(mutex_);
    bool stopping_ RTGS_GUARDED_BY(mutex_) = false;
};

/** Process-wide shared pool, lazily created. */
ThreadPool &globalPool();

} // namespace rtgs

#endif // RTGS_COMMON_THREAD_POOL_HH
