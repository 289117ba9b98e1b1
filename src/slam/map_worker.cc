#include "slam/map_worker.hh"

#include <chrono>
#include <optional>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace rtgs::slam
{

MapWorker::MapWorker(size_t queue_depth, size_t batch_size, RunFn run,
                     ThreadPool &pool, OverflowPolicy policy,
                     double watchdog_seconds, DropFn on_drop)
    : queueDepth_(queue_depth),
      batchSize_(batch_size == 0 ? 1 : batch_size),
      run_(std::move(run)), policy_(policy),
      watchdogSeconds_(watchdog_seconds), onDrop_(std::move(on_drop)),
      pool_(pool)
{
}

MapWorker::~MapWorker()
{
    drain(); // after this, no drainer is live and the queue is empty
}

void
MapWorker::enqueue(MapJob job)
{
    if (queueDepth_ == 0) {
        std::vector<MapJob> batch;
        batch.push_back(std::move(job));
        run_(batch);
        return;
    }
    std::optional<MapJob> evicted;
    bool tripped = false;
    bool spawn = false;
    {
        CvLock lock(statusMutex_);
        if (policy_ == OverflowPolicy::Block && watchdogSeconds_ > 0) {
            // Watchdog-bounded backpressure: a drainer wedged longer
            // than the timeout degrades this push to drop-oldest
            // instead of wedging the frame loop with it.
            // A wait deadline, not a measurement: it reaches no output.
            // det-lint: allow(monotonic-clock)
            const auto deadline = std::chrono::steady_clock::now() +
                                  std::chrono::duration<double>(
                                      watchdogSeconds_);
            while (queue_.size() >= queueDepth_ && !tripped)
                tripped = lock.waitUntil(statusCv_, deadline) ==
                              std::cv_status::timeout &&
                          queue_.size() >= queueDepth_;
            watchdogTrips_ += tripped ? 1 : 0;
        } else if (policy_ == OverflowPolicy::Block) {
            // Blocks while `queue_depth` jobs are pending: the frame
            // loop can run at most that many keyframes ahead of the
            // map.
            while (queue_.size() >= queueDepth_)
                lock.wait(statusCv_);
        }
        if (queue_.size() >= queueDepth_) {
            // The evicted job never reaches the drainer: count it as
            // both submitted and completed so drain() still terminates.
            evicted.emplace(std::move(queue_.front()));
            queue_.pop_front();
            ++droppedJobs_;
            ++completed_;
        }
        ++submitted_;
        queue_.push_back(std::move(job));
        if (!drainerActive_) {
            drainerActive_ = true;
            spawn = true;
        }
    }
    if (tripped) {
        warn("map queue watchdog tripped after %.1fs; evicting the "
             "oldest queued job",
             watchdogSeconds_);
    }
    if (evicted && onDrop_)
        onDrop_(*evicted);
    if (spawn)
        pool_.post([this] { drainLoop(); });
}

void
MapWorker::drainLoop()
{
    std::vector<MapJob> batch;
    for (;;) {
        {
            // Count the previous batch and pop-or-retire in one
            // critical section, so a producer that pushes just after
            // the queue looks empty observes drainerActive_ == false
            // and spawns a new drainer (no lost jobs). Retiring is the
            // drainer's LAST touch of member state, and the notify
            // happens under the lock: drain() waits for
            // !drainerActive_, so this MapWorker can only be destroyed
            // after the drainer has fully let go.
            MutexLock lock(statusMutex_);
            completed_ += batch.size();
            batch.clear();
            if (queue_.empty())
                drainerActive_ = false;
            // Absorb whatever is queued, up to the batch cap. Only this
            // drainer pops, so FIFO order is preserved.
            while (!queue_.empty() && batch.size() < batchSize_) {
                batch.push_back(std::move(queue_.front()));
                queue_.pop_front();
            }
            statusCv_.notify_all();
            if (!drainerActive_)
                return;
        }
        try {
            run_(batch);
        } catch (const std::exception &e) {
            // A lost exception must not wedge drain() forever.
            warn("map batch of %zu job(s) starting at frame %u failed: "
                 "%s",
                 batch.size(), batch.front().record.frameIndex, e.what());
        } catch (...) {
            warn("map batch of %zu job(s) starting at frame %u failed",
                 batch.size(), batch.front().record.frameIndex);
        }
    }
}

size_t
MapWorker::droppedJobs() const
{
    MutexLock lock(statusMutex_);
    return droppedJobs_;
}

size_t
MapWorker::watchdogTrips() const
{
    MutexLock lock(statusMutex_);
    return watchdogTrips_;
}

void
MapWorker::drain()
{
    // Producer-side call (SPSC): every enqueue() this drain should
    // cover has already bumped submitted_, so waiting for the drainer
    // to retire with matching counters covers all pending jobs.
    CvLock lock(statusMutex_);
    while (!(completed_ == submitted_ && !drainerActive_))
        lock.wait(statusCv_);
}

} // namespace rtgs::slam
