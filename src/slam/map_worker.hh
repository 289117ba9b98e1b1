/**
 * @file
 * The enqueue-map stage: a bounded keyframe work queue whose jobs run
 * asynchronously on the owning system's ThreadPool, overlapping mapping
 * with the tracking of subsequent frames (the loop-level restructuring
 * CaRtGS / RTG-SLAM use to reach real time). With queue depth 0 the
 * same jobs run in place instead: enqueue() runs each as a one-job
 * batch on the caller, so sync mapping is the async path drained in
 * place rather than a second code path.
 *
 * Threading model (queue depth >= 1):
 *  - The frame loop (producer) pushes one MapJob per keyframe; when
 *    `queue_depth` jobs are already pending the overflow policy
 *    decides: Block (bounded-staleness backpressure, the default,
 *    optionally watchdog-bounded) or DropOldest (shed the stalest
 *    queued keyframe, with accounting).
 *  - At most ONE drain task exists at a time: it loops, popping up to
 *    `batch_size` queued jobs per iteration and running them as one
 *    batch, until the queue is empty, then retires. A push that finds
 *    no active drainer posts one to the pool. Jobs run strictly
 *    FIFO (within and across batches), and no pool worker ever parks
 *    waiting for another job to finish (tracking's parallelFor keeps
 *    its workers).
 *  - One mutex guards the pending-job deque and the completion
 *    ledger: a blocking or watchdog-timed push, evict-oldest, and the
 *    drainer's pop-or-retire are each one critical section on it, and
 *    one condition variable wakes producers, the drainer's retirement
 *    and drain() alike. Callbacks (the batch body, on-drop) never run
 *    under it.
 *  - Batching amortises per-drain setup (state-lock acquisition,
 *    snapshot publication, scratch-arena checkout) across keyframe
 *    bursts: when several keyframes are queued — rotation onset, a new
 *    room — they drain as one batch instead of FIFO-serially.
 *  - The drain task runs on a pool worker, so the render fork-joins
 *    inside it run inline (the pool's nested-call rule). A batch's
 *    multi-view mapping steps (multiViewWindow >= 2) post per-view
 *    forward passes back to the pool; AsyncForward::take() runs any
 *    pass no other worker has started yet itself, so the drain never
 *    parks behind a busy worker — in a fleet, another session's turn.
 *  - drain() blocks until every enqueued job has finished; the
 *    destructor drains implicitly.
 */

#ifndef RTGS_SLAM_MAP_WORKER_HH
#define RTGS_SLAM_MAP_WORKER_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <vector>

#include "common/annotations.hh"
#include "common/mutex.hh"
#include "slam/keyframe.hh"
#include "slam/mapper.hh"

namespace rtgs
{
class ThreadPool;
}

namespace rtgs::slam
{

/** One unit of mapping work. */
struct MapJob
{
    KeyframeRecord record;
    u32 mapIterationBudget = 0; //!< 0 = mapper config default
    size_t reportIndex = 0;     //!< row in SlamSystem::reports_ to fill
    /** Stable ids the tracking clone had masked at enqueue (ascending);
     *  the batch masks them in the map before optimising. */
    std::vector<u64> maskedIds;
    /** Stable ids tracking pruned since the previous job was enqueued
     *  (ascending); the batch drops them from the map before
     *  optimising. */
    std::vector<u64> prunedIds;
};

/**
 * What enqueue() does when the bounded queue is full.
 *
 *  - Block: wait for the drainer (bounded-staleness backpressure; the
 *    historical behaviour and the default).
 *  - DropOldest: evict the oldest queued job to make room. The evicted
 *    job never runs; it is accounted (droppedJobs()) and reported to
 *    the owner through the on-drop callback, so a flooded queue sheds
 *    stale keyframes instead of stalling the frame loop.
 */
enum class OverflowPolicy
{
    Block,
    DropOldest
};

/** Bounded asynchronous batch executor for keyframe mapping jobs. */
class MapWorker
{
  public:
    /** Executes one FIFO batch of jobs (called on a pool worker). */
    using RunFn = std::function<void(std::vector<MapJob> &batch)>;
    /** Observes a job evicted under the DropOldest policy (called on
     *  the producer thread, before enqueue() returns, with no lock
     *  held). */
    using DropFn = std::function<void(MapJob &dropped)>;

    /**
     * @param queue_depth max pending jobs before the overflow policy
     *                    engages; 0 runs every job in place inside
     *                    enqueue() (no queue, no drain task, nothing
     *                    ever dropped)
     * @param batch_size  max jobs popped per drain iteration (>= 1)
     * @param run         executes one batch (on a pool worker, or on
     *                    the enqueue() caller at depth 0)
     * @param pool        where drain tasks run: the owning system's
     *                    pool, which in a fleet is the one pool every
     *                    session shares. Must outlive this worker.
     * @param policy      what a full queue does to enqueue()
     * @param watchdog_seconds with the Block policy, how long a push
     *                    may stall before the watchdog trips and the
     *                    push falls back to evicting the oldest job
     *                    (degrade instead of wedge); <= 0 disables
     * @param on_drop     invoked for every evicted job
     */
    MapWorker(size_t queue_depth, size_t batch_size, RunFn run,
              ThreadPool &pool,
              OverflowPolicy policy = OverflowPolicy::Block,
              double watchdog_seconds = 0, DropFn on_drop = nullptr);
    ~MapWorker();

    MapWorker(const MapWorker &) = delete;
    MapWorker &operator=(const MapWorker &) = delete;

    /**
     * Submit a job. At queue depth 0 this runs the job before it
     * returns (an exception from the batch propagates to the caller).
     * Otherwise, with the Block policy this blocks while the queue
     * is at capacity (up to the watchdog timeout when one is set);
     * with DropOldest it never blocks.
     */
    void enqueue(MapJob job) RTGS_EXCLUDES(statusMutex_);

    /** Wait until all jobs submitted so far have completed (dropped
     *  jobs count as completed — they will never run). */
    void drain() RTGS_EXCLUDES(statusMutex_);

    size_t batchSize() const { return batchSize_; }

    /** Jobs evicted without running (DropOldest / watchdog fallback). */
    size_t droppedJobs() const;

    /** Times the Block-policy watchdog expired on a stalled push. */
    size_t watchdogTrips() const;

  private:
    void drainLoop() RTGS_EXCLUDES(statusMutex_);

    /** 0: enqueue() runs each job in place. */
    size_t queueDepth_;
    size_t batchSize_;
    RunFn run_;
    OverflowPolicy policy_;
    double watchdogSeconds_;
    DropFn onDrop_;
    /** Immutable after construction; internally synchronized. */
    ThreadPool &pool_;

    /** Guards the pending jobs and the completion ledger below. */
    mutable Mutex statusMutex_;
    /** Signalled when a job leaves the queue (room for a blocked
     *  push) and when the drainer retires (drain() may finish). */
    std::condition_variable statusCv_;
    /** Jobs enqueued and not yet popped by the drainer, oldest first. */
    std::deque<MapJob> queue_ RTGS_GUARDED_BY(statusMutex_);
    size_t submitted_ RTGS_GUARDED_BY(statusMutex_) = 0;
    size_t completed_ RTGS_GUARDED_BY(statusMutex_) = 0;
    size_t droppedJobs_ RTGS_GUARDED_BY(statusMutex_) = 0;
    size_t watchdogTrips_ RTGS_GUARDED_BY(statusMutex_) = 0;
    /** True while a drain task is live on the pool (at most one). */
    bool drainerActive_ RTGS_GUARDED_BY(statusMutex_) = false;
};

} // namespace rtgs::slam

#endif // RTGS_SLAM_MAP_WORKER_HH
