/**
 * @file
 * End-to-end SLAM system assembling tracking + mapping with one of the
 * four base-algorithm profiles the paper evaluates (Sec. 2.3/6.1):
 *
 *  - GS-SLAM-like:   keyframes on pose distance, RGB-D tracking
 *  - MonoGS-like:    keyframes on fixed intervals, RGB-D tracking,
 *                    denser maps
 *  - Photo-SLAM-like: keyframes on photometric change; tracking uses a
 *                    classical geometric (projective ICP) backend
 *                    instead of rendering backpropagation
 *  - SplaTAM-like:   every frame is mapped (no keyframe selection)
 *
 * Each profile only configures this one system; the RTGS algorithm
 * layer (src/core) plugs pruning and downsampling into any of them.
 */

#ifndef RTGS_SLAM_PIPELINE_HH
#define RTGS_SLAM_PIPELINE_HH

#include <algorithm>
#include <functional>
#include <memory>
#include <vector>

#include "common/annotations.hh"
#include "common/mutex.hh"
#include "common/thread_pool.hh"

#include "data/dataset.hh"
#include "slam/health_monitor.hh"
#include "slam/keyframe.hh"
#include "slam/relocalizer.hh"
#include "slam/map_worker.hh"
#include "slam/mapper.hh"
#include "slam/preprocess.hh"
#include "slam/profiler.hh"
#include "slam/tracker.hh"

namespace rtgs::slam
{

/** The base 3DGS-SLAM algorithm profiles from the paper. */
enum class BaseAlgorithm { GsSlam, MonoGs, PhotoSlam, SplaTam };

/** Human-readable algorithm name. */
const char *algorithmName(BaseAlgorithm algo);

/** Full system configuration. */
struct SlamConfig
{
    BaseAlgorithm algorithm = BaseAlgorithm::MonoGs;
    TrackerConfig tracker;
    MapperConfig mapper;

    // Keyframe policy parameters (profile-dependent).
    u32 kfInterval = 8;
    Real kfTranslationThreshold = Real(0.15);
    Real kfRotationThreshold = Real(0.20);
    Real kfPhotometricRmse = Real(0.08);

    /** Projective-ICP iterations for the Photo-SLAM tracking backend. */
    u32 icpIterations = 6;
    /** Pixel stride for ICP point sampling. */
    u32 icpStride = 4;

    /**
     * Asynchronous-mapping queue depth. 0 (the default) runs each
     * keyframe's map job in place inside processFrame, which then ends
     * with waitForMapping() — the drained async run, exactly
     * reproducing the monolithic loop; >= 1 runs keyframe mapping on
     * the system's pool behind a bounded queue of this depth,
     * overlapping it with the tracking of subsequent frames. See
     * src/slam/README.md for the threading/ownership model.
     */
    u32 mapQueueDepth = 0;

    /**
     * Max queued keyframes one asynchronous drain iteration absorbs
     * and runs as a single batch (>= 1). A batch shares the backward
     * gradient arena and per-drain setup across its keyframes and
     * publishes one tracking snapshot instead of one per job, so
     * keyframe bursts drain together instead of FIFO-serially.
     * mapBatchSize == 1 reproduces the per-job async path exactly;
     * ignored in sync mode.
     */
    u32 mapBatchSize = 1;

    /**
     * Multi-view mapping window B (the ROADMAP's cross-keyframe render
     * batching): how many window keyframes each map optimiser step
     * renders (>= 1; the constructor rejects 0). 1 (the default) keeps
     * the sequential one-view-per-step alternation, byte-identical to
     * the pre-multi-view recipe. B >= 2 renders min(B,
     * mapper.windowSize) views per step — the newest
     * keyframe plus a rotating pick of the rest — accumulates their
     * gradients into one shared arena with a deterministic fixed-chunk
     * reduction (bitwise independent of the render worker count), and
     * applies a single averaged update, overlapping one view's forward
     * with another's backward through the pool. B >= 2 changes the
     * numerics; the bench_fig15 multi-view ablation records the
     * wall-clock/PSNR trade. Handed to the Mapper at construction.
     */
    u32 multiViewWindow = 1;

    /**
     * What a full async map queue does to the enqueue-map stage:
     * Block (bounded-staleness backpressure, the default) or DropOldest
     * (shed the stalest queued keyframe; the drop is accounted in that
     * keyframe's FrameReport row). Ignored in sync mode.
     */
    OverflowPolicy mapOverflowPolicy = OverflowPolicy::Block;

    /**
     * With the Block policy, how long (seconds) an enqueue-map push may
     * wait on a full queue whose running batch is wedged before the
     * watchdog trips and that push degrades to evicting the oldest job
     * instead of wedging the frame loop: a fault mode, never needed for
     * progress (a push runs queued work no thread has started itself).
     * <= 0 (the default) waits indefinitely.
     */
    double mapWatchdogSeconds = 0;

    /**
     * The worker pool for everything the system runs in parallel: the
     * render fork-joins (projection, binning, sort, raster, backward)
     * and the async map drain. Null (the default) makes the system own
     * a ThreadPool(0), one worker per CPU in the affinity mask.
     * FleetRuntime injects its pool here so every session runs on one
     * thread set. Non-owning; must outlive the SlamSystem. Outputs are
     * bitwise independent of the pool and its size.
     */
    ThreadPool *pool = nullptr;

    /**
     * Tracking-health monitoring (input validation, divergence
     * detection, escalating recovery). Disabled by default; on a
     * fault-free stream an enabled monitor never intervenes, so the
     * output stays byte-identical either way.
     */
    HealthConfig health;

    /**
     * Map-based relocalization for LOST recovery (the final rung of
     * the health escalation). Requires the health monitor: the
     * relocalizer only engages while the monitor reports Lost, so on
     * clean input (or with health disabled) an enabled relocalizer
     * never changes the output. See src/slam/relocalizer.hh.
     */
    RelocalizerConfig reloc;

    /**
     * Approximation-ladder rung (gs::PipelinePreset). `precise` (the
     * default) keeps today's byte-exact scalar pipeline; `fast`
     * dispatches the SIMD row kernels with a faithfully-rounded exp;
     * `fastest_approx` adds the polynomial exp and stores the cloud's
     * colour/opacity columns as fp16. Applied to the render pipeline
     * and the authoritative cloud at construction; COW snapshots and
     * tracking clones inherit the storage precision automatically.
     */
    gs::PipelineConfig pipeline;

    /** Build the per-profile default configuration. */
    static SlamConfig forAlgorithm(BaseAlgorithm algo);
};

/**
 * Per-frame iteration budgets, produced by the similarity gate
 * (core::SimilarityGate). 0 means "use the configured count"; non-zero
 * values only ever lower the configured count — unless `allowExceed`
 * is set (the health monitor's recovery boost), in which case a
 * non-zero tracking budget may raise it.
 */
struct FrameBudget
{
    u32 trackIterations = 0;
    u32 mapIterations = 0;
    bool allowExceed = false;
};

/** Per-frame outcome report. */
struct FrameReport
{
    u32 frameIndex = 0;
    bool isKeyframe = false;
    SE3 pose;
    double trackLoss = 0;
    double mapLoss = 0;
    size_t gaussianCount = 0;
    size_t gaussianBytes = 0;
    size_t densified = 0;
    double trackSeconds = 0;
    double mapSeconds = 0;

    // Staged-pipeline observability.
    u32 trackIterations = 0;       //!< tracking iterations executed
    u32 trackIterationBudget = 0;  //!< gated budget applied (0 = config)
    u32 mapIterationBudget = 0;    //!< gated budget applied (0 = config)
    u64 trackFragments = 0;        //!< fragments summed over iterations
    /**
     * True when this keyframe's mapping was deferred to the async
     * worker; mapLoss / densified / mapSeconds / gaussianCount are
     * filled in once the job completes (guaranteed after
     * waitForMapping()).
     */
    bool mappedAsync = false;

    // Copy-on-write snapshot observability.
    u64 snapshotGeneration = 0;  //!< map generation tracking rendered
    /** Generation this keyframe's map batch published on completion
     *  (worker-filled; 0 on non-keyframe rows). */
    u64 publishedGeneration = 0;
    /** Queue staleness: frames between this frame and the newest
     *  keyframe folded into the snapshot tracking rendered against. */
    u32 snapshotStaleFrames = 0;
    /** Wall time of the snapshot publication this keyframe's batch
     *  performed (only set on the batch's last keyframe row). */
    double snapshotPublishSeconds = 0;
    /** Jobs in the drain batch that mapped this keyframe (1 in sync
     *  mode). */
    u32 mapBatchJobs = 0;
    /** Views rendered by this keyframe's final map optimiser step
     *  (1 on the sequential path, up to multiViewWindow once the
     *  keyframe window has filled; 0 on non-keyframe rows). */
    u32 mapMultiViews = 0;

    // Tracking-health / robustness observability (all neutral unless
    // config.health.enabled or an overflow policy intervened).
    HealthState healthState = HealthState::Ok;
    /** Frames since the monitor last reported Ok (0 when Ok). */
    u32 framesSinceHealthy = 0;
    /** Input validation rejected this frame; tracking was skipped and
     *  the constant-velocity pose held. */
    bool inputRejected = false;
    bool inputNan = false;          //!< non-finite rgb/depth pixels
    bool inputBadTimestamp = false; //!< duplicate/regressed timestamp
    /** Depth was mostly invalid; the frame tracked RGB-only. */
    bool depthIgnored = false;
    /** Divergence detected: the tracked pose was discarded and the
     *  constant-velocity prediction kept instead. */
    bool poseHeld = false;
    /** Recovery boost: tracking ran MORE than the configured
     *  iterations this frame. */
    bool budgetBoosted = false;
    /** This keyframe was forced by the recovery re-anchor. */
    bool forcedRecoveryKeyframe = false;
    /** Probe PSNR (dB) when the divergence probe ran; -1 otherwise. */
    double probePsnrDb = -1;
    /** This keyframe's async map job was evicted by the overflow
     *  policy and never mapped (mapLoss/densified stay zero). */
    bool mapJobDropped = false;

    // Relocalization observability (all neutral unless
    // config.reloc.enabled and the monitor went Lost).
    /** Relocalization attempts on this frame (0 or 1). */
    u32 relocAttempts = 0;
    /** Candidate poses probe-scored by this frame's attempt. */
    u32 relocCandidatesScored = 0;
    /** Probe PSNR (dB) of the refined relocalization pose when an
     *  attempt ran; -1 otherwise. */
    double relocProbePsnr = -1;
    /** This frame's pose came from an accepted relocalization. */
    bool relocAccepted = false;
    /** Cumulative frames the monitor has reported Lost so far. */
    u32 framesLost = 0;
};

/**
 * Aggregate COW-snapshot observability over a run's reports (shared by
 * the examples and benches). Feed every row through add(). Sync-mode
 * rows count too: a sync run publishes and clones snapshots exactly as
 * a drained async run does.
 */
struct SnapshotStats
{
    /** Total publication wall time recorded in keyframe rows. The
     *  publications waitForMapping's flush performs to fold in prunes
     *  and masks made after the last batch have no report row and are
     *  not attributed. */
    double publishSeconds = 0;
    u64 publishes = 0;         //!< highest published generation seen
    u64 staleSum = 0;
    u64 staleFrames = 0;

    void
    add(const FrameReport &r)
    {
        publishSeconds += r.snapshotPublishSeconds;
        publishes = std::max(publishes, r.publishedGeneration);
        if (r.snapshotGeneration > 0) {
            staleSum += r.snapshotStaleFrames;
            ++staleFrames;
        }
    }

    /** Mean queue staleness over tracked frames (0 if none). */
    double
    meanStaleFrames() const
    {
        return staleFrames ? static_cast<double>(staleSum) /
                                 static_cast<double>(staleFrames)
                           : 0.0;
    }
};

/**
 * The SLAM system, organised as an explicit stage graph per frame:
 *
 *   preprocess -> track -> keyframe decision -> enqueue-map -> map
 *
 * There is one map path. Tracking always renders against a
 * copy-on-write clone of the newest published snapshot, and keyframe
 * mapping is always a MapJob run through the same batch body, which
 * folds in the tracking-side prunes and masks the job carries, maps,
 * and publishes a new snapshot. With config.mapQueueDepth == 0 the job
 * runs in place on the caller thread and processFrame ends with
 * waitForMapping(), so a sync run IS a drained async run
 * (byte-identical to the original monolithic loop). With a positive
 * depth the map stage runs asynchronously on the system's pool
 * (SlamConfig::pool) behind a bounded keyframe queue; each drain
 * iteration pops up to config.mapBatchSize queued keyframes and maps
 * them as one batch. The MapWorker is the only channel between the
 * frame loop and the map: jobs go in, and finished jobs and the newest
 * published snapshot come back, which the frame loop collects into its
 * own report rows and snapshot whenever it reads them. In async mode,
 * call waitForMapping() before reading cloud()/reports() (the
 * map-iteration hook also fires on a pool worker then).
 *
 * Feed frames in order via processFrame(); read the trajectory, map,
 * and reports afterwards.
 */
class SlamSystem
{
  public:
    SlamSystem(const SlamConfig &config, const Intrinsics &intrinsics);

    const SlamConfig &config() const { return config_; }

    /**
     * The authoritative cloud, lock-free. Legal from the frame loop in
     * sync mode (each frame ends drained, so between frames it holds
     * every prune and mask made inside processFrame; RtgsSlam drains
     * again after its post-frame Taming prune), after
     * waitForMapping() in async mode (no batch runs again until the
     * next enqueue), and from map-iteration hooks (which already run
     * under the state lock).
     * The analysis escape is deliberate: locking here would deadlock
     * the hook path.
     */
    const gs::GaussianCloud &
    cloud() const RTGS_NO_THREAD_SAFETY_ANALYSIS
    {
        return cloud_;
    }

    /** See the const overload for when this is legal. */
    gs::GaussianCloud &
    cloud() RTGS_NO_THREAD_SAFETY_ANALYSIS
    {
        return cloud_;
    }

    const std::vector<SE3> &trajectory() const { return trajectory_; }

    /**
     * All per-frame reports; frame-loop state like trajectory(). A
     * keyframe row gets its map results when the frame loop collects
     * the finished job, so async-mode rows marked mappedAsync are
     * complete only after waitForMapping().
     */
    const std::vector<FrameReport> &reports() const { return reports_; }

    const gs::RenderPipeline &renderPipeline() const { return pipeline_; }
    StageProfiler &profiler() { return profiler_; }

    /** The mapper; same quiescence contract as cloud(). */
    Mapper &mapper() RTGS_NO_THREAD_SAFETY_ANALYSIS { return mapper_; }

    /** The tracking-health monitor; null unless config.health.enabled. */
    const HealthMonitor *healthMonitor() const { return health_.get(); }

    /** The relocalizer; null unless config.reloc.enabled (and the
     *  health monitor is on — it is the monitor's LOST exit). */
    const Relocalizer *relocalizer() const { return reloc_.get(); }

    /** Async map jobs evicted by the overflow policy (0 in sync mode). */
    size_t mapJobsDropped() const { return mapWorker_->droppedJobs(); }

    /** Times the map-queue watchdog tripped (0 in sync mode). */
    size_t mapWatchdogTrips() const { return mapWorker_->watchdogTrips(); }

    /**
     * The cloud tracking renders against: the per-frame copy-on-write
     * clone of the newest published snapshot, in both modes. Iteration
     * hooks (RTGS pruning, workload capture) must read THIS cloud — the
     * authoritative one lags the clone's prunes and masks until the
     * next map batch or flush, and may be mid-mutation on a map worker.
     * Empty until rendering-based tracking first runs (the geometric
     * Photo-SLAM backend renders nothing and never refreshes it outside
     * relocalization). Only valid on the frame-loop thread.
     */
    gs::GaussianCloud &trackingCloud() { return trackCloud_; }
    const gs::GaussianCloud &trackingCloud() const { return trackCloud_; }

    /**
     * Tracking-side pruning: record that tracking decided to drop the
     * entries where keep[i] == 0 of the CURRENT tracking clone (call
     * before compacting the clone — the mask is translated through the
     * clone's stable ids). The dropped ids ride in the next MapJob
     * (or waitForMapping()'s flush), whose batch drops them from the
     * authoritative cloud under the state lock, with the mapper's
     * optimiser state remapped in the same motion; tracking clones
     * filter them out until a refreshed snapshot no longer holds them,
     * so tracking never resurrects what it pruned. Frame-loop thread
     * only.
     */
    void requestTrackingPrune(const std::vector<u8> &keep);

    /**
     * Hand the frame loop off to a different thread. The frame-loop
     * state (trajectory, keyframe policy, tracking clone) carries no
     * lock, and the health monitor / relocalizer are pinned to one
     * thread by a ThreadAffinity capability — a fleet scheduler that
     * migrates a session's turns across workers calls this at the
     * start of each turn so the thread-affine state follows the turn
     * instead of panicking. Legal ONLY between frames, from a thread
     * that is (or is becoming) the sole caller of processFrame(), with
     * a happens-before edge from the previous frame (the fleet's
     * scheduler mutex provides it). State is preserved, not reset.
     */
    void rebindFrameLoopThread();

    /**
     * Block until every enqueued mapping job has been mapped or
     * dropped (running queued batches on this thread when no other
     * thread has started them), collect them into the report rows,
     * then flush: fold the prunes no job carried and the tracking
     * clone's masks into the authoritative cloud, publishing a
     * snapshot straight into the frame loop's when that changed
     * anything. Sync-mode processFrame ends with this call. Call
     * before reading the cloud, reports, or rendering when
     * mapQueueDepth > 0. Frame-loop thread only (it reads the tracking
     * clone, the unsent prunes and the report rows).
     */
    void waitForMapping() RTGS_EXCLUDES(stateMutex_);

    /** Largest Gaussian-parameter footprint seen so far (bytes). */
    size_t
    peakGaussianBytes() const
    {
        // Async map jobs update the peak under the state lock.
        MutexLock lock(stateMutex_);
        return peakBytes_;
    }

    /** Per-iteration observers (RTGS pruning / HW trace capture). */
    void setTrackIterationHook(TrackIterationHook hook);
    void setMapIterationHook(MapIterationHook hook);

    /**
     * Process the next frame. `tracking_scale` (0 < s <= 1) optionally
     * tracks against a downsampled observation (RTGS dynamic
     * downsampling); 1 keeps the native resolution.
     *
     * @param force_keyframe when non-null, overrides the keyframe
     *        policy with the given decision (RTGS decides keyframe
     *        status before tracking so downsampling can reuse it)
     * @param budget optional per-frame iteration budgets from the
     *        similarity gate; null keeps the configured counts
     * @return report for this frame (see FrameReport::mappedAsync for
     *         which fields may still be pending in async mode)
     */
    FrameReport processFrame(const data::Frame &frame,
                             Real tracking_scale = Real(1),
                             const bool *force_keyframe = nullptr,
                             const FrameBudget *budget = nullptr);

    /**
     * Predict the keyframe decision for the upcoming frame before
     * tracking it, using the constant-velocity pose guess. RTGS's
     * dynamic downsampling reuses this prediction (Sec. 4.2).
     */
    bool predictKeyframe(const data::Frame &frame) const;

    /**
     * Render the current map at a given pose/resolution (evaluation).
     */
    ImageRGB renderView(const SE3 &pose) const;

    /** Decide keyframe status for a tracked frame (exposed for tests). */
    bool decideKeyframe(const KeyframeQuery &query) const;

  private:
    /** processFrame() minus the sync-mode drain: the stage graph. */
    FrameReport runFrameStages(const data::Frame &frame,
                               Real tracking_scale,
                               const bool *force_keyframe,
                               const FrameBudget *budget);

    SE3 constantVelocityGuess() const;

    /** The keyframe policy's view of `frame` at `pose` against the
     *  last keyframe. */
    KeyframeQuery keyframeQuery(const data::Frame &frame,
                                const SE3 &pose) const;

    /** Photo-SLAM-style classical tracking: projective point ICP. */
    SE3 geometricTrack(const data::Frame &frame, const SE3 &init) const;

    // ------------------------------------------------- frame stages
    /** Preprocess + track: returns the frame's pose estimate.
     *  `ignore_depth` tracks RGB-only (health-detected depth dropout);
     *  `init_override` replaces the constant-velocity initial pose
     *  (the relocalizer's refinement burst starts from its best
     *  candidate instead); `tracker_override` swaps in a differently
     *  configured tracker (the burst's cold-start optimizer). */
    SE3 stageTrack(const data::Frame &frame, Real tracking_scale,
                   const FrameBudget *budget, FrameReport &report,
                   bool ignore_depth = false,
                   const SE3 *init_override = nullptr,
                   Tracker *tracker_override = nullptr);

    /** Relocalization stage (LOST only): deterministic candidate
     *  search scored by downsampled probe renders, then a boosted
     *  refinement burst. Returns true and fills `pose_out` when the
     *  refined pose's probe PSNR clears the accept threshold. */
    bool stageRelocalize(const data::Frame &frame, Real tracking_scale,
                         FrameReport &report, SE3 &pose_out);

    /** Health path: skip a rejected frame — hold the constant-velocity
     *  pose, no keyframe, prev-frame tracking state untouched. */
    FrameReport rejectFrame(FrameReport &report);

    /** Divergence probe: PSNR (dB) of a downsampled render at `pose` of
     *  the map this frame's tracking rendered (the newest published
     *  map for the geometric backend) vs the observation; negative
     *  when no map is available. Never takes stateMutex_ (an in-flight
     *  async batch may hold it). */
    double probePsnr(const data::Frame &frame, const SE3 &pose);

    /** Probe scorer shared by the divergence probe and relocalization:
     *  downsamples `frame` once to `probe_width`, then returns the PSNR
     *  (dB, capped at 99 for identical images) of a render of `cloud`
     *  at a given pose against it. `frame` and `cloud` must outlive
     *  the scorer. */
    std::function<double(const SE3 &)>
    probeScorer(const data::Frame &frame, u32 probe_width,
                const gs::GaussianCloud &cloud) const;

    /**
     * Append the frame's report row and return its index. The row
     * records the footprint of the newest map published by the time
     * of the call, which lacks this frame's prunes (in sync mode too:
     * the drain comes at the end of the frame); collecting a keyframe
     * row's finished job later overwrites it with its post-map
     * numbers.
     */
    size_t pushReport(FrameReport &report);

    /**
     * Take what the map worker handed back: write each finished job's
     * results into its report row, flag an evicted job's row and hand
     * its prunes to the next job or flush, and adopt the newest
     * published snapshot. Frame-loop thread only; every read of the
     * rows or the snapshot collects first.
     */
    void collectMapReturns();

    /** Keyframe decision from the tracked pose / policy override. */
    bool stageKeyframeDecision(const data::Frame &frame, const SE3 &pose,
                               const bool *force_keyframe);

    /** Enqueue-map stage: hand the keyframe, the tracking clone's
     *  masks and the prunes not yet sent to the map worker (which runs
     *  the job in place in sync mode). */
    void stageEnqueueMap(const data::Frame &frame, const SE3 &pose,
                         const FrameBudget *budget, size_t report_index);

    /** Map stage body: one FIFO batch of up to mapBatchSize keyframes,
     *  on a pool worker (async) or in place (sync, one job). Folds in
     *  the union of its jobs' prunes and its last job's masks, maps,
     *  fills each job's results, and returns the one snapshot it
     *  published. */
    std::shared_ptr<const TrackingSnapshot>
    runMapBatch(std::vector<MapJob> &jobs);

    /**
     * Latest published map snapshot. Map batches publish a fresh
     * immutable generation when they complete, so tracking never waits
     * on an in-flight job (it reads the newest finished map).
     */
    std::shared_ptr<const TrackingSnapshot> snapshotCloud();

    /**
     * Refresh the per-frame tracking clone from the newest published
     * snapshot (O(columns) copy-on-write), filter out the pruned ids
     * the snapshot still holds, and stamp the report's snapshot
     * generation/staleness fields.
     */
    void refreshTrackingClone(const data::Frame &frame,
                              FrameReport &report);

    /**
     * Drop the entries with the given stable ids (ascending; ids the
     * map lacks are skipped) from the authoritative cloud and remap the
     * optimiser state to match. Returns whether anything was dropped.
     */
    bool pruneIdsLocked(const std::vector<u64> &ids)
        RTGS_REQUIRES(stateMutex_);

    /** Publish cloud_ as a new snapshot generation. */
    std::shared_ptr<const TrackingSnapshot>
    publishSnapshotLocked(u32 last_mapped_frame)
        RTGS_REQUIRES(stateMutex_);

    // --- Immutable after construction / internally synchronized.
    /** The pool when config.pool is null. Declared first so it outlives
     *  every member that posts to it (mapWorker_ drains before it). */
    std::unique_ptr<ThreadPool> ownedPool_;
    SlamConfig config_;
    Intrinsics intrinsics_;
    /** Internally synchronized (scratch-arena free list). */
    gs::RenderPipeline pipeline_;
    Tracker tracker_;
    std::unique_ptr<KeyframePolicy> keyframePolicy_;
    /** Internally synchronized. */
    StageProfiler profiler_;
    /** Set before the first frame; read by the frame loop (track) and
     *  by map workers under stateMutex_ (map). */
    TrackIterationHook trackHook_;
    MapIterationHook mapHook_;

    // --- Frame-loop-confined: only processFrame() and its stages (all
    // on the caller thread) touch these; no lock needed.
    std::vector<SE3> trajectory_;
    u32 lastKeyframeIndex_ = 0;
    ImageRGB lastKeyframeImage_;
    SE3 lastKeyframePose_;
    // Previous frame data for the geometric (ICP) tracking backend.
    ImageF prevDepth_;
    SE3 prevPose_;
    bool bootstrapped_ = false;
    /** Tracking-health monitor; null unless config.health.enabled.
     *  Thread-confined internally via its ThreadAffinity capability. */
    std::unique_ptr<HealthMonitor> health_;
    /** Map-based relocalizer; null unless config.reloc.enabled AND the
     *  health monitor exists. Thread-confined like the monitor. */
    std::unique_ptr<Relocalizer> reloc_;
    /** Trajectory index of the last accepted relocalization pose: the
     *  constant-velocity model must not extrapolate the correction
     *  jump, so the guess right after a relocalization is
     *  zero-velocity. ~0 = none. */
    size_t velocityResetIndex_ = ~size_t(0);
    /** Per-frame tracking clone of the snapshot. */
    gs::GaussianCloud trackCloud_;
    /** Generation trackCloud_ was cloned from (the sentinel forces the
     *  first refresh to clone). */
    u64 trackCloneGeneration_ = ~u64(0);
    /** Stable ids tracking pruned that the newest refreshed snapshot
     *  still held, plus those pruned since (ascending). Clone refreshes
     *  filter them out and forget the ones the snapshot lacks. */
    std::vector<u64> prunedInFlight_;
    /** The pruned ids no map job has carried yet (ascending): the next
     *  job takes them, an evicted job hands its own back, and
     *  waitForMapping()'s flush folds in what is left. */
    std::vector<u64> prunedUnsent_;
    /** One row per processed frame; keyframe rows are completed when
     *  their finished map job is collected. */
    std::vector<FrameReport> reports_;
    /** The newest published snapshot collected from the map worker (or
     *  published by waitForMapping()'s flush). */
    std::shared_ptr<const TrackingSnapshot> trackingSnapshot_;

    /** Guards the authoritative map state against the async map stage.
     *  The only other lock on the map path is the MapWorker's own. */
    mutable Mutex stateMutex_;
    gs::GaussianCloud cloud_ RTGS_GUARDED_BY(stateMutex_);
    Mapper mapper_ RTGS_GUARDED_BY(stateMutex_);
    size_t peakBytes_ RTGS_GUARDED_BY(stateMutex_) = 0;
    /** Snapshot publication counter. */
    u64 mapGeneration_ RTGS_GUARDED_BY(stateMutex_) = 0;
    /** Newest keyframe folded into a published snapshot. */
    u32 lastPublishedFrame_ RTGS_GUARDED_BY(stateMutex_) = 0;

    /** The map stage: a bounded async drain, or (mapQueueDepth == 0)
     *  runs each job in place. Declared last so its destructor drains
     *  in-flight jobs before members are torn down. Immutable after
     *  construction; internally synchronized. */
    // det-lint: allow(unguarded-field)
    std::unique_ptr<MapWorker> mapWorker_;
};

} // namespace rtgs::slam

#endif // RTGS_SLAM_PIPELINE_HH
