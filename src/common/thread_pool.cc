#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>

#include <sched.h>

namespace rtgs
{

namespace
{

/** Which pool (if any) owns the calling thread, and its queue. */
thread_local ThreadPool *tl_pool = nullptr;
thread_local size_t tl_worker_index = 0;

/** post()'s "pick the next queue round-robin" marker. */
constexpr size_t kAnyQueue = ~size_t(0);

/**
 * CPUs the calling thread may run on: its affinity mask, so a process
 * pinned by taskset or a cpuset sizes its pool to the CPUs it really
 * has. Falls back to hardware_concurrency() when the mask is unknown.
 */
size_t
usableCpus()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
        const int n = CPU_COUNT(&allowed);
        if (n > 0)
            return static_cast<size_t>(n);
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

} // namespace

ThreadPool::ThreadPool(size_t num_threads, bool start_paused)
    : started_(!start_paused)
{
    const size_t count = num_threads == 0 ? usableCpus() : num_threads;
    queues_.reserve(count);
    for (size_t i = 0; i < count; ++i)
        queues_.push_back(std::make_unique<WorkStealingQueue<Task>>());
    workers_.reserve(count);
    for (size_t i = 0; i < count; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        MutexLock lock(mutex_);
        // A paused pool still owes its staged tasks an execution:
        // releasing the workers lets them drain the queues before the
        // stop flag retires them (a worker only exits on an
        // empty-everywhere scan, and stopping_ redirects new posts
        // inline, so queue contents strictly shrink from here).
        started_ = true;
        stopping_ = true;
    }
    wakeCv_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

bool
ThreadPool::onWorkerThread() const
{
    return tl_pool == this;
}

void
ThreadPool::start()
{
    {
        MutexLock lock(mutex_);
        started_ = true;
    }
    wakeCv_.notify_all();
}

void
ThreadPool::post(Task task)
{
    postTo(kAnyQueue, std::move(task));
}

void
ThreadPool::postTo(size_t queue, Task task)
{
    bool queued = false;
    {
        MutexLock lock(mutex_);
        // Teardown fallback: a task posted by a task still running
        // during shutdown executes on the poster's stack instead of
        // being lost.
        if (!stopping_) {
            if (queue == kAnyQueue) {
                queue = nextQueue_;
                nextQueue_ = (nextQueue_ + 1) % queues_.size();
            }
            queues_[queue % queues_.size()]->push(std::move(task));
            ++posted_;
            ++postVersion_;
            queued = true;
        }
    }
    if (queued)
        wakeCv_.notify_one();
    else
        task();
}

void
ThreadPool::postLocal(Task task)
{
    postTo(tl_pool == this ? tl_worker_index : kAnyQueue, std::move(task));
}

void
ThreadPool::drain()
{
    CvLock lock(mutex_);
    while (completed_ != posted_)
        lock.wait(drainCv_);
}

size_t
ThreadPool::steals() const
{
    MutexLock lock(mutex_);
    return static_cast<size_t>(steals_);
}

bool
ThreadPool::takeTask(size_t self, Task &out)
{
    if (queues_[self]->pop(out))
        return true;
    for (size_t k = 1; k < queues_.size(); ++k) {
        size_t victim = (self + k) % queues_.size();
        if (queues_[victim]->steal(out)) {
            MutexLock lock(mutex_);
            ++steals_;
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerLoop(size_t self)
{
    tl_pool = this;
    tl_worker_index = self;
    for (;;) {
        u64 seen = 0;
        {
            CvLock lock(mutex_);
            while (!started_)
                lock.wait(wakeCv_);
            // Read the version BEFORE scanning: a post that lands
            // after an unsuccessful scan necessarily bumps the version
            // past `seen`, so the sleep check below cannot miss it.
            seen = postVersion_;
        }
        Task task;
        if (takeTask(self, task)) {
            task();
            task = nullptr; // release captures before signalling
            MutexLock lock(mutex_);
            if (++completed_ == posted_)
                drainCv_.notify_all();
            continue;
        }
        CvLock lock(mutex_);
        if (stopping_)
            return; // all queues empty and no new pushes can arrive
        while (postVersion_ == seen && !stopping_)
            lock.wait(wakeCv_);
    }
}

size_t
ThreadPool::chunkCount(size_t total, size_t grain) const
{
    // 4 chunks per thread (caller + workers) keeps the tail balanced
    // without much dispatch traffic.
    const size_t g = std::max<size_t>(grain, 1);
    return std::clamp<size_t>((total + g - 1) / g, 1,
                              (workers_.size() + 1) * 4);
}

void
ThreadPool::parallelForChunks(size_t begin, size_t end,
                              const std::function<void(size_t, size_t)> &fn,
                              size_t grain)
{
    if (begin >= end)
        return;

    size_t total = end - begin;
    size_t chunks = chunkCount(total, grain);
    // A worker calling parallelFor must not block on chunks that only
    // workers can drain (it *is* the drain); run the range inline. So
    // does a range too small to pay for a fork-join.
    if (chunks == 1 || onWorkerThread()) {
        fn(begin, end);
        return;
    }

    // Caller + workers all pull chunks from a shared counter.
    size_t chunk_size = (total + chunks - 1) / chunks;

    struct State
    {
        std::atomic<size_t> next{0};
        std::atomic<size_t> done{0};
        std::mutex mutex;
        std::condition_variable cv;
        size_t begin = 0, end = 0, chunks = 0, chunk_size = 0;
        const std::function<void(size_t, size_t)> *fn = nullptr;
    };
    // Shared ownership: helper tasks may be popped from a queue after
    // the caller has already returned (all chunks claimed); they must
    // still be able to read `next` safely.
    auto state = std::make_shared<State>();
    state->begin = begin;
    state->end = end;
    state->chunks = chunks;
    state->chunk_size = chunk_size;
    state->fn = &fn;

    auto drain = [](State &s) {
        for (;;) {
            size_t c = s.next.fetch_add(1, std::memory_order_relaxed);
            if (c >= s.chunks)
                return;
            size_t lo = s.begin + c * s.chunk_size;
            size_t hi = std::min(s.end, lo + s.chunk_size);
            (*s.fn)(lo, hi);
            if (s.done.fetch_add(1) + 1 == s.chunks) {
                std::lock_guard<std::mutex> lock(s.mutex);
                s.cv.notify_all();
            }
        }
    };

    size_t helpers = std::min(workers_.size(), chunks - 1);
    for (size_t h = 0; h < helpers; ++h)
        post([state, drain] { drain(*state); });

    drain(*state);

    std::unique_lock<std::mutex> lock(state->mutex);
    state->cv.wait(lock, [&] {
        return state->done.load() == state->chunks;
    });
}

void
ThreadPool::parallelFor(size_t begin, size_t end,
                        const std::function<void(size_t)> &fn)
{
    parallelForChunks(begin, end, [&fn](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            fn(i);
    });
}

} // namespace rtgs
