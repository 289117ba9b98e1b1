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
 * The worker is the only channel between the frame loop and the map:
 * jobs go in through enqueue(), and collect() hands back every job
 * that has left the queue (mapped, carrying its results, or evicted,
 * flagged dropped) plus the newest snapshot a batch published. The
 * frame loop decides what to do with them; nothing else crosses.
 *
 * Threading model (queue depth >= 1):
 *  - The frame loop (the one producer) pushes one MapJob per keyframe;
 *    when `queue_depth` jobs are already pending the overflow policy
 *    decides: Block (bounded-staleness backpressure, the default,
 *    optionally watchdog-bounded) or DropOldest (shed the stalest
 *    queued keyframe, with accounting).
 *  - At most ONE batch runs at a time, popped oldest-first, so jobs
 *    run strictly FIFO within and across batches. A batch is up to
 *    `batch_size` queued jobs run as one; it is claimed and handed
 *    back under the mutex.
 *  - A push that finds no drain task posts one to the pool. The task
 *    loops: it hands back its batch and claims the next in one
 *    critical section, until the queue is empty, then retires. A task
 *    that starts while another thread holds the batch retires at once
 *    instead of parking a pool worker.
 *  - A thread that must wait for work no live thread is running runs
 *    it itself: drain(), and a Block push that finds the queue full,
 *    claim and run the oldest batch whenever no batch is running (the
 *    posted drain task has not started — in a fleet it may sit behind
 *    the very worker that waits). They wait only on a batch another
 *    thread is running, so no thread ever waits on a queued task.
 *  - One mutex guards the pending queue, the running flag and the
 *    hand-back (finished jobs, newest snapshot); one condition
 *    variable wakes producers and drain() alike. The batch body never
 *    runs under it.
 *  - Batching amortises per-drain setup (state-lock acquisition,
 *    snapshot publication, scratch-arena checkout) across keyframe
 *    bursts: when several keyframes are queued — rotation onset, a new
 *    room — they drain as one batch instead of FIFO-serially.
 *  - A drain task runs on a pool worker, so the render fork-joins
 *    inside it run inline (the pool's nested-call rule). A batch's
 *    multi-view mapping steps (multiViewWindow >= 2) post per-view
 *    forward passes back to the pool; AsyncForward::take() runs any
 *    pass no other worker has started yet itself, by the same rule.
 *  - drain() returns once every enqueued job has been mapped or
 *    dropped; the destructor drains and waits out the drain task.
 */

#ifndef RTGS_SLAM_MAP_WORKER_HH
#define RTGS_SLAM_MAP_WORKER_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
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

/**
 * An immutable, generation-tagged view of the map published for
 * lock-free tracking. The cloud shares its column buffers with the
 * authoritative map via copy-on-write, so publishing costs O(columns)
 * refcount bumps; the map batch re-materialises only the columns it
 * later mutates.
 */
struct TrackingSnapshot
{
    gs::GaussianCloud cloud;
    u64 generation = 0;     //!< 1-based publication counter
    u32 lastMappedFrame = 0; //!< newest keyframe folded into the map
};

/** One unit of mapping work, and what came of it. */
struct MapJob
{
    // --- In: what the frame loop hands over.
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

    // --- Out: filled by the batch that mapped the job.
    /** Evicted by the overflow policy: the job never ran, every field
     *  below is zero, and `prunedIds` still needs a carrier. */
    bool dropped = false;
    size_t densified = 0;
    double mapLoss = 0;
    u32 multiViews = 0;
    /** Batch wall time amortised over its jobs. */
    double mapSeconds = 0;
    /** The map's footprint after the batch. */
    size_t gaussianCount = 0;
    size_t gaussianBytes = 0;
    u64 publishedGeneration = 0;
    /** Publication wall time (only on the batch's last job). */
    double publishSeconds = 0;
    u32 batchJobs = 0;
};

/**
 * What enqueue() does when the bounded queue is full.
 *
 *  - Block: wait for the running batch (bounded-staleness
 *    backpressure; the historical behaviour and the default).
 *  - DropOldest: evict the oldest queued job to make room. The evicted
 *    job never runs; it is accounted (droppedJobs()) and handed back
 *    flagged `dropped`, so a flooded queue sheds stale keyframes
 *    instead of stalling the frame loop.
 */
enum class OverflowPolicy
{
    Block,
    DropOldest
};

/** What collect() hands back to the frame loop. */
struct MapReturns
{
    /** Every job mapped or evicted since the last collect(), in the
     *  order they left the queue. */
    std::vector<MapJob> jobs;
    /** The newest snapshot a batch published since the last collect()
     *  (null if none); older uncollected ones are superseded. */
    std::shared_ptr<const TrackingSnapshot> snapshot;
};

/** Bounded asynchronous batch executor for keyframe mapping jobs. */
class MapWorker
{
  public:
    /** Executes one FIFO batch of jobs, fills their results, and
     *  returns the snapshot it published (null for none). */
    using RunFn = std::function<std::shared_ptr<const TrackingSnapshot>(
        std::vector<MapJob> &batch)>;

    /**
     * @param queue_depth max pending jobs before the overflow policy
     *                    engages; 0 runs every job in place inside
     *                    enqueue() (no queue, no drain task, nothing
     *                    ever dropped)
     * @param batch_size  max jobs popped per batch (>= 1)
     * @param run         executes one batch (on a pool worker, or on
     *                    a thread that waits for it)
     * @param pool        where drain tasks run: the owning system's
     *                    pool, which in a fleet is the one pool every
     *                    session shares. Must outlive this worker.
     * @param policy      what a full queue does to enqueue()
     * @param watchdog_seconds with the Block policy, how long a push
     *                    may wait on a running batch before the
     *                    watchdog trips and the push falls back to
     *                    evicting the oldest job (degrade instead of
     *                    wedge); <= 0 disables
     */
    MapWorker(size_t queue_depth, size_t batch_size, RunFn run,
              ThreadPool &pool,
              OverflowPolicy policy = OverflowPolicy::Block,
              double watchdog_seconds = 0);
    ~MapWorker();

    MapWorker(const MapWorker &) = delete;
    MapWorker &operator=(const MapWorker &) = delete;

    /**
     * Submit a job. At queue depth 0 this runs the job before it
     * returns (an exception from the batch propagates to the caller).
     * Otherwise, with the Block policy a full queue makes room first
     * (running the oldest batch here when none is running, else
     * waiting up to the watchdog timeout when one is set); with
     * DropOldest it never blocks.
     */
    void enqueue(MapJob job) RTGS_EXCLUDES(statusMutex_);

    /** Return once every job submitted so far has been mapped or
     *  dropped, running queued batches here that no thread has
     *  started. Producer thread only. */
    void drain() RTGS_EXCLUDES(statusMutex_);

    /** Take what has come back since the last call (see MapReturns). */
    MapReturns collect() RTGS_EXCLUDES(statusMutex_);

    /** Jobs evicted without running (DropOldest / watchdog fallback). */
    size_t droppedJobs() const;

    /** Times the Block-policy watchdog expired on a stalled push. */
    size_t watchdogTrips() const;

  private:
    void drainLoop() RTGS_EXCLUDES(statusMutex_);

    /** Block policy: wait until the queue has room. Runs the oldest
     *  batch here when none is running; returns true when the
     *  watchdog tripped instead. */
    bool makeRoom() RTGS_EXCLUDES(statusMutex_);

    /** Pop the oldest batch into `batch` and mark it running; false
     *  when a batch is already running or nothing is queued. */
    bool claimLocked(std::vector<MapJob> &batch)
        RTGS_REQUIRES(statusMutex_);

    /** Run a claimed batch (no lock held); a batch that throws is
     *  logged and cleared, so its jobs are not handed back. */
    std::shared_ptr<const TrackingSnapshot>
    runBatch(std::vector<MapJob> &batch);

    /** Hand a finished batch and its snapshot back and end the claim
     *  (a null snapshot ends it without publishing). */
    void finishLocked(std::vector<MapJob> &batch,
                      std::shared_ptr<const TrackingSnapshot> snapshot)
        RTGS_REQUIRES(statusMutex_);

    /** 0: enqueue() runs each job in place. */
    size_t queueDepth_;
    size_t batchSize_;
    RunFn run_;
    OverflowPolicy policy_;
    double watchdogSeconds_;
    /** Immutable after construction; internally synchronized. */
    ThreadPool &pool_;

    /** Guards the queue, the batch claim and the hand-back below. */
    mutable Mutex statusMutex_;
    /** Signalled when a batch is claimed (room for a blocked push),
     *  when one is handed back (drain() may finish) and when the
     *  drain task retires (the destructor may finish). */
    std::condition_variable statusCv_;
    /** Jobs enqueued and not yet claimed, oldest first. */
    std::deque<MapJob> queue_ RTGS_GUARDED_BY(statusMutex_);
    /** Jobs mapped or evicted and not yet collected. */
    std::vector<MapJob> done_ RTGS_GUARDED_BY(statusMutex_);
    /** Newest uncollected snapshot a batch published. */
    std::shared_ptr<const TrackingSnapshot>
        published_ RTGS_GUARDED_BY(statusMutex_);
    size_t droppedJobs_ RTGS_GUARDED_BY(statusMutex_) = 0;
    size_t watchdogTrips_ RTGS_GUARDED_BY(statusMutex_) = 0;
    /** True while some thread runs a claimed batch (at most one). */
    bool batchRunning_ RTGS_GUARDED_BY(statusMutex_) = false;
    /** True from posting a drain task until it retires (at most one). */
    bool drainPosted_ RTGS_GUARDED_BY(statusMutex_) = false;
};

} // namespace rtgs::slam

#endif // RTGS_SLAM_MAP_WORKER_HH
