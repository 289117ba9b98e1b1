/**
 * @file
 * The worker-thread pool: one fixed set of threads over per-worker
 * work-stealing queues, serving both kinds of parallel work in the
 * system.
 *
 *  - Fork-join: parallelFor / parallelForChunks split a range into
 *    chunks that the workers and the calling thread pull from a shared
 *    counter; the caller blocks until every chunk is done. A call made
 *    from one of the pool's own workers runs the whole range inline
 *    instead of enqueuing chunks that only the (busy) workers could
 *    drain, so nested use never deadlocks.
 *  - Tasks: post / postTo / postLocal enqueue fire-and-forget tasks
 *    (fleet session turns, async map drains, deferred forward passes).
 *
 * Nothing here is process-global: whoever needs parallelism owns a
 * pool (a SlamSystem, a FleetRuntime, a bench) and passes it down
 * explicitly. Stages that accept an optional `ThreadPool *` treat null
 * as "run inline" through the free helpers at the end of this file.
 *
 * Dequeue discipline — fairness first, deliberately NOT the classic
 * Chase-Lev LIFO-owner deque: both the owning worker (pop) and thieves
 * (steal) take the OLDEST task. A scheduler multiplexing sessions wants
 * the longest-waiting turn served next no matter which thread frees
 * up. The payoff is a strong invariant the property tests pin: tasks
 * leave each queue in exactly push order, regardless of how owner pops
 * and steals interleave, so weighted round-robin ordering survives
 * stealing.
 *
 * The pool only decides WHERE work runs, never its result: every
 * parallel stage in the system is bitwise independent of the worker
 * count.
 */

#ifndef RTGS_COMMON_THREAD_POOL_HH
#define RTGS_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/annotations.hh"
#include "common/mutex.hh"
#include "common/types.hh"

namespace rtgs
{

/**
 * One worker's task queue. Producers push at the back; the owner (pop)
 * and thieves (steal) both dequeue at the front — strict FIFO per
 * queue (see the file comment for why fairness beats locality here).
 * Internally synchronized; safe from any thread.
 *
 * Invariants (pinned by tests/test_properties.cc):
 *  - merge of all pop()/steal() results == push order, exactly;
 *  - every pushed item is dequeued at most once (no duplication) and,
 *    once the consumers drain to empty, at least once (no loss);
 *  - steal() takes the queue's oldest item (starved-first stealing).
 */
template <typename T>
class WorkStealingQueue
{
  public:
    /** Enqueue at the back (any thread). */
    void
    push(T item)
    {
        MutexLock lock(mutex_);
        items_.push_back(std::move(item));
    }

    /** Owner dequeue: the oldest item. False when empty. */
    bool pop(T &out) { return takeFront(out); }

    /** Thief dequeue: also the oldest item. False when empty. */
    bool steal(T &out) { return takeFront(out); }

    bool
    empty() const
    {
        MutexLock lock(mutex_);
        return items_.empty();
    }

  private:
    bool
    takeFront(T &out)
    {
        MutexLock lock(mutex_);
        if (items_.empty())
            return false;
        out = std::move(items_.front());
        items_.pop_front();
        return true;
    }

    mutable Mutex mutex_;
    std::deque<T> items_ RTGS_GUARDED_BY(mutex_);
};

/**
 * Fixed set of worker threads over per-worker WorkStealingQueues.
 *
 * post() distributes round-robin across the queues; postTo() pins a
 * task to one queue and postLocal() keeps it on the calling worker's
 * queue. An idle worker first pops its own queue, then scans the
 * others in ring order and steals their oldest task; with nothing
 * anywhere it sleeps until the next post. Tasks must not throw.
 *
 * start_paused stages work without running it (burst tests and the
 * fleet bench's bursty arrivals): workers sleep until start(). The
 * destructor runs everything still queued, then joins; a task posted
 * while the pool is shutting down runs inline on the poster.
 *
 * Lock order: mutex_ before a queue's internal mutex (posts push under
 * mutex_); a queue's mutex is never held while taking mutex_, and
 * mutex_ is never held across a task body.
 */
class ThreadPool
{
  public:
    using Task = std::function<void()>;

    /**
     * @param num_threads worker count; 0 selects one worker per CPU in
     *        the calling thread's affinity mask (hardware concurrency
     *        when the mask cannot be read)
     * @param start_paused workers sleep until start()
     */
    explicit ThreadPool(size_t num_threads = 0, bool start_paused = false);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads (>= 1). */
    size_t size() const { return workers_.size(); }

    /** True when the calling thread is one of this pool's workers. */
    bool onWorkerThread() const;

    /** Release paused workers. Idempotent. */
    void start();

    /**
     * Run fn(i) for every i in [begin, end), split into contiguous
     * chunks across the workers and the calling thread; blocks until
     * all iterations finish. Nested calls from worker threads run
     * inline.
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

    /** Enqueue a fire-and-forget task, round-robin across queues. */
    void post(Task task);

    /** Pin a task to queue `queue` (taken modulo size()). */
    void postTo(size_t queue, Task task);

    /** postTo(the calling worker's queue) when called on a worker —
     *  keeping a requeued fleet turn local — else post(). */
    void postLocal(Task task);

    /** Block until every task posted so far has finished. Do not call
     *  while paused with tasks staged (they cannot finish), or from a
     *  worker (a task cannot wait for itself). */
    void drain() RTGS_EXCLUDES(mutex_);

    /** Tasks a worker took from another worker's queue. */
    size_t steals() const;

  private:
    void workerLoop(size_t self);
    /** Own queue first, then steal in ring order. */
    bool takeTask(size_t self, Task &out);

    /** Immutable after construction (the vector; queues are internally
     *  synchronized). */
    std::vector<std::unique_ptr<WorkStealingQueue<Task>>> queues_;
    /** Immutable after construction (joined in the destructor). */
    std::vector<std::thread> workers_;

    /** Guards the scheduling state below. Never held across a task
     *  body. */
    mutable Mutex mutex_;
    std::condition_variable wakeCv_;  //!< workers sleep here
    std::condition_variable drainCv_; //!< drain() sleeps here
    bool started_ RTGS_GUARDED_BY(mutex_);
    bool stopping_ RTGS_GUARDED_BY(mutex_) = false;
    /** Bumped per post; the sleep/wake version check (a worker only
     *  sleeps if no post landed since it began its empty scan). */
    u64 postVersion_ RTGS_GUARDED_BY(mutex_) = 0;
    size_t nextQueue_ RTGS_GUARDED_BY(mutex_) = 0;
    u64 posted_ RTGS_GUARDED_BY(mutex_) = 0;
    u64 completed_ RTGS_GUARDED_BY(mutex_) = 0;
    u64 steals_ RTGS_GUARDED_BY(mutex_) = 0;
};

/** pool->chunkCount(total, grain); 1 (one inline chunk) for null. */
inline size_t
chunkCount(const ThreadPool *pool, size_t total, size_t grain)
{
    return pool ? pool->chunkCount(total, grain) : 1;
}

/** pool->parallelForChunks(...); fn(begin, end) inline for null. */
inline void
parallelForChunks(ThreadPool *pool, size_t begin, size_t end,
                  const std::function<void(size_t, size_t)> &fn,
                  size_t grain = 1)
{
    if (pool)
        pool->parallelForChunks(begin, end, fn, grain);
    else if (begin < end)
        fn(begin, end);
}

/** pool->parallelFor(...); a plain loop for null. */
inline void
parallelFor(ThreadPool *pool, size_t begin, size_t end,
            const std::function<void(size_t)> &fn)
{
    if (pool) {
        pool->parallelFor(begin, end, fn);
        return;
    }
    for (size_t i = begin; i < end; ++i)
        fn(i);
}

} // namespace rtgs

#endif // RTGS_COMMON_THREAD_POOL_HH
