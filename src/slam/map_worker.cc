#include "slam/map_worker.hh"

#include <chrono>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace rtgs::slam
{

MapWorker::MapWorker(size_t queue_depth, size_t batch_size, RunFn run,
                     ThreadPool &pool, OverflowPolicy policy,
                     double watchdog_seconds)
    : queueDepth_(queue_depth),
      batchSize_(batch_size == 0 ? 1 : batch_size),
      run_(std::move(run)), policy_(policy),
      watchdogSeconds_(watchdog_seconds), pool_(pool)
{
}

MapWorker::~MapWorker()
{
    drain();
    // A posted drain task still holds `this` until it retires; with the
    // queue empty it retires as soon as it starts.
    CvLock lock(statusMutex_);
    while (drainPosted_)
        lock.wait(statusCv_);
}

void
MapWorker::enqueue(MapJob job)
{
    if (queueDepth_ == 0) {
        std::vector<MapJob> batch;
        batch.push_back(std::move(job));
        std::shared_ptr<const TrackingSnapshot> snapshot = run_(batch);
        MutexLock lock(statusMutex_);
        finishLocked(batch, std::move(snapshot));
        return;
    }
    bool tripped = policy_ == OverflowPolicy::Block && makeRoom();
    if (tripped) {
        warn("map queue watchdog tripped after %.1fs; evicting the "
             "oldest queued job",
             watchdogSeconds_);
    }
    bool spawn = false;
    {
        MutexLock lock(statusMutex_);
        if (queue_.size() >= queueDepth_) {
            // The evicted job never runs; it goes back to the frame
            // loop flagged, carrying its prunes.
            queue_.front().dropped = true;
            done_.push_back(std::move(queue_.front()));
            queue_.pop_front();
            ++droppedJobs_;
        }
        queue_.push_back(std::move(job));
        if (!drainPosted_) {
            drainPosted_ = true;
            spawn = true;
        }
    }
    if (spawn)
        pool_.post([this] { drainLoop(); });
}

bool
MapWorker::makeRoom()
{
    // A wait deadline, not a measurement: it reaches no output.
    // det-lint: allow(monotonic-clock)
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(watchdogSeconds_);
    std::vector<MapJob> batch;
    {
        CvLock lock(statusMutex_);
        // Only the producer pushes, so once there is room it stays.
        while (queue_.size() >= queueDepth_ && batchRunning_) {
            if (watchdogSeconds_ <= 0) {
                lock.wait(statusCv_);
            } else if (lock.waitUntil(statusCv_, deadline) ==
                           std::cv_status::timeout &&
                       queue_.size() >= queueDepth_ && batchRunning_) {
                // The running batch is wedged: degrade this push to
                // drop-oldest instead of wedging the frame loop too.
                ++watchdogTrips_;
                return true;
            }
        }
        if (queue_.size() < queueDepth_)
            return false;
        // Full and nothing running: the drain task has not started.
        claimLocked(batch);
    }
    std::shared_ptr<const TrackingSnapshot> snapshot = runBatch(batch);
    MutexLock lock(statusMutex_);
    finishLocked(batch, std::move(snapshot));
    return false;
}

bool
MapWorker::claimLocked(std::vector<MapJob> &batch)
{
    if (batchRunning_ || queue_.empty())
        return false;
    batchRunning_ = true;
    while (!queue_.empty() && batch.size() < batchSize_) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
    }
    statusCv_.notify_all(); // room for a blocked push
    return true;
}

std::shared_ptr<const TrackingSnapshot>
MapWorker::runBatch(std::vector<MapJob> &batch)
{
    try {
        return run_(batch);
    } catch (const std::exception &e) {
        // A lost exception must not wedge drain() forever.
        warn("map batch of %zu job(s) starting at frame %u failed: %s",
             batch.size(), batch.front().record.frameIndex, e.what());
    } catch (...) {
        warn("map batch of %zu job(s) starting at frame %u failed",
             batch.size(), batch.front().record.frameIndex);
    }
    batch.clear();
    return nullptr;
}

void
MapWorker::finishLocked(std::vector<MapJob> &batch,
                        std::shared_ptr<const TrackingSnapshot> snapshot)
{
    for (MapJob &job : batch)
        done_.push_back(std::move(job));
    batch.clear();
    if (snapshot)
        published_ = std::move(snapshot);
    batchRunning_ = false;
    statusCv_.notify_all();
}

void
MapWorker::drainLoop()
{
    std::vector<MapJob> batch;
    std::shared_ptr<const TrackingSnapshot> snapshot;
    bool claimed = false;
    for (;;) {
        {
            // Hand back and claim the next batch in one critical
            // section, so while this task lives no other thread ever
            // sees queued work with no batch running. Retiring is the
            // task's LAST touch of member state, and the notify happens
            // under the lock: the destructor waits for !drainPosted_.
            MutexLock lock(statusMutex_);
            if (claimed)
                finishLocked(batch, std::move(snapshot));
            claimed = claimLocked(batch);
            if (!claimed) {
                drainPosted_ = false;
                statusCv_.notify_all();
                return;
            }
        }
        snapshot = runBatch(batch);
    }
}

void
MapWorker::drain()
{
    for (;;) {
        std::vector<MapJob> batch;
        {
            CvLock lock(statusMutex_);
            while (batchRunning_)
                lock.wait(statusCv_);
            if (!claimLocked(batch))
                return; // nothing queued, nothing running
        }
        std::shared_ptr<const TrackingSnapshot> snapshot = runBatch(batch);
        MutexLock lock(statusMutex_);
        finishLocked(batch, std::move(snapshot));
    }
}

MapReturns
MapWorker::collect()
{
    MapReturns returns;
    MutexLock lock(statusMutex_);
    returns.jobs.swap(done_);
    returns.snapshot.swap(published_);
    return returns;
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

} // namespace rtgs::slam
