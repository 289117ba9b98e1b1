#include "slam/pipeline.hh"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "common/logging.hh"
#include "image/metrics.hh"

namespace rtgs::slam
{

namespace
{

/** Solve the 6x6 system H x = b with partial-pivot Gaussian elimination. */
bool
solve6(double h[6][6], double b[6], double x[6])
{
    for (int col = 0; col < 6; ++col) {
        int best = col;
        for (int r = col + 1; r < 6; ++r)
            if (std::abs(h[r][col]) > std::abs(h[best][col]))
                best = r;
        if (std::abs(h[best][col]) < 1e-12)
            return false;
        if (best != col) {
            for (int c = 0; c < 6; ++c)
                std::swap(h[col][c], h[best][c]);
            std::swap(b[col], b[best]);
        }
        for (int r = col + 1; r < 6; ++r) {
            double f = h[r][col] / h[col][col];
            for (int c = col; c < 6; ++c)
                h[r][c] -= f * h[col][c];
            b[r] -= f * b[col];
        }
    }
    for (int r = 5; r >= 0; --r) {
        double acc = b[r];
        for (int c = r + 1; c < 6; ++c)
            acc -= h[r][c] * x[c];
        x[r] = acc / h[r][r];
    }
    return true;
}

/** Stable ids of the masked (active == 0) entries, ascending. */
std::vector<u64>
maskedIds(const gs::GaussianCloud &cloud)
{
    std::vector<u64> masked;
    const auto &act = cloud.active.view();
    const auto &ids = cloud.ids.view();
    for (size_t k = 0; k < act.size(); ++k)
        if (!act[k])
            masked.push_back(ids[k]); // ascending: ids are sorted
    return masked;
}

/** Set active = 0 on the entries whose stable ids are in `ids`
 *  (ascending; ids the cloud lacks are skipped). Re-materialises the
 *  active column only when an entry changes; returns whether one did. */
bool
maskIds(gs::GaussianCloud &cloud, const std::vector<u64> &ids)
{
    if (ids.empty())
        return false;
    std::vector<u8> unmasked = cloud.translateKeepMask(ids);
    const auto &act = cloud.active.view();
    bool changed = false;
    for (size_t k = 0; k < unmasked.size() && !changed; ++k)
        changed = !unmasked[k] && act[k];
    if (!changed)
        return false;
    auto &mut = cloud.active.mut();
    for (size_t k = 0; k < unmasked.size(); ++k)
        if (!unmasked[k])
            mut[k] = 0;
    return true;
}

/** Merge ascending `ids` into ascending `into` (set union). */
void
mergeIds(std::vector<u64> &into, const std::vector<u64> &ids)
{
    if (ids.empty())
        return;
    std::vector<u64> merged;
    merged.reserve(into.size() + ids.size());
    std::set_union(into.begin(), into.end(), ids.begin(), ids.end(),
                   std::back_inserter(merged));
    into.swap(merged);
}

} // namespace

const char *
algorithmName(BaseAlgorithm algo)
{
    switch (algo) {
      case BaseAlgorithm::GsSlam: return "GS-SLAM";
      case BaseAlgorithm::MonoGs: return "MonoGS";
      case BaseAlgorithm::PhotoSlam: return "Photo-SLAM";
      case BaseAlgorithm::SplaTam: return "SplaTAM";
    }
    return "unknown";
}

SlamConfig
SlamConfig::forAlgorithm(BaseAlgorithm algo)
{
    SlamConfig cfg;
    cfg.algorithm = algo;
    switch (algo) {
      case BaseAlgorithm::GsSlam:
        // Scene-change keyframing, moderate map density.
        cfg.mapper.densifyStride = 5;
        break;
      case BaseAlgorithm::MonoGs:
        // Fixed-interval keyframes; denser maps for detail recovery
        // (Sec. 2.3: MonoGS uses more Gaussians).
        cfg.kfInterval = 8;
        cfg.mapper.densifyStride = 3;
        break;
      case BaseAlgorithm::PhotoSlam:
        // Classical geometric tracking; hybrid design keeps the map
        // lean (Sec. 2.3: acceptable storage). Dense ICP sampling and
        // extra iterations buy noise robustness.
        cfg.mapper.densifyStride = 6;
        cfg.mapper.iterations = 12;
        cfg.icpStride = 2;
        cfg.icpIterations = 8;
        break;
      case BaseAlgorithm::SplaTam:
        // Per-frame mapping, no keyframe selection; fewer iterations
        // per stage since both run on every frame.
        cfg.tracker.iterations = 10;
        cfg.mapper.iterations = 10;
        cfg.mapper.windowSize = 2;
        cfg.mapper.densifyStride = 5;
        break;
    }
    return cfg;
}

SlamSystem::SlamSystem(const SlamConfig &config,
                       const Intrinsics &intrinsics)
    : ownedPool_(config.pool ? nullptr : std::make_unique<ThreadPool>()),
      config_(config), intrinsics_(intrinsics),
      tracker_(config.tracker),
      mapper_(config.mapper, config.multiViewWindow)
{
    if (config.multiViewWindow == 0)
        fatal("SlamConfig::multiViewWindow must be >= 1 (1 maps one "
              "keyframe view per optimiser step)");
    ThreadPool &pool = config.pool ? *config.pool : *ownedPool_;

    gs::RenderSettings settings;
    settings.background = {0.03f, 0.03f, 0.05f};
    settings.pipeline = config.pipeline;
    pipeline_ = gs::RenderPipeline(settings);
    pipeline_.setPool(&pool);

    {
        // No worker can exist yet; the lock just keeps the guarded
        // accesses uniform for the static analysis.
        MutexLock lock(stateMutex_);
        // The preset's storage side: narrow the low-sensitivity columns
        // of the authoritative cloud. Every COW snapshot / tracking
        // clone copies the column (and its precision) wholesale, so
        // this single application covers the whole system's storage.
        gs::applyStoragePrecision(cloud_, config.pipeline);
    }

    switch (config.algorithm) {
      case BaseAlgorithm::GsSlam:
        keyframePolicy_ = std::make_unique<PoseDistanceKeyframePolicy>(
            config.kfTranslationThreshold, config.kfRotationThreshold);
        break;
      case BaseAlgorithm::MonoGs:
        keyframePolicy_ =
            std::make_unique<IntervalKeyframePolicy>(config.kfInterval);
        break;
      case BaseAlgorithm::PhotoSlam:
        keyframePolicy_ = std::make_unique<PhotometricKeyframePolicy>(
            config.kfPhotometricRmse);
        break;
      case BaseAlgorithm::SplaTam:
        keyframePolicy_ = std::make_unique<EveryFrameKeyframePolicy>();
        break;
    }

    mapWorker_ = std::make_unique<MapWorker>(
        config.mapQueueDepth, std::max<u32>(1, config.mapBatchSize),
        [this](std::vector<MapJob> &jobs) { return runMapBatch(jobs); },
        pool, config.mapOverflowPolicy, config.mapWatchdogSeconds);

    if (config.health.enabled)
        health_ = std::make_unique<HealthMonitor>(config.health);
    if (config.reloc.enabled) {
        if (!config.health.enabled) {
            warn("relocalizer enabled without the health monitor; it "
                 "can never engage (no LOST state) and stays off");
        } else {
            reloc_ = std::make_unique<Relocalizer>(config.reloc);
        }
    }
}

void
SlamSystem::waitForMapping()
{
    mapWorker_->drain();
    collectMapReturns();
    // Prunes and masks made after the last map job was enqueued (or
    // handed back by an evicted one) have no job left to carry them;
    // fold them in now so cloud() honours every tracking decision once
    // this returns. No batch is running, so this publication is the
    // newest.
    std::vector<u64> masked = maskedIds(trackCloud_);
    std::vector<u64> pruned;
    pruned.swap(prunedUnsent_);
    MutexLock lock(stateMutex_);
    bool pruned_any = pruneIdsLocked(pruned);
    bool masked_any = maskIds(cloud_, masked);
    if (pruned_any || masked_any)
        trackingSnapshot_ = publishSnapshotLocked(lastPublishedFrame_);
}

void
SlamSystem::collectMapReturns()
{
    MapReturns returns = mapWorker_->collect();
    if (returns.snapshot)
        trackingSnapshot_ = std::move(returns.snapshot);
    for (const MapJob &job : returns.jobs) {
        rtgs_assert(job.reportIndex < reports_.size());
        FrameReport &row = reports_[job.reportIndex];
        if (job.dropped) {
            // Accounted instead of silently reading as an unmapped
            // keyframe; the next job or flush carries its prunes.
            row.mapJobDropped = true;
            mergeIds(prunedUnsent_, job.prunedIds);
            continue;
        }
        row.densified = job.densified;
        row.mapLoss = job.mapLoss;
        row.mapMultiViews = job.multiViews;
        row.mapSeconds = job.mapSeconds;
        row.gaussianCount = job.gaussianCount;
        row.gaussianBytes = job.gaussianBytes;
        row.mapBatchJobs = job.batchJobs;
        row.publishedGeneration = job.publishedGeneration;
        row.snapshotPublishSeconds = job.publishSeconds;
    }
}

void
SlamSystem::requestTrackingPrune(const std::vector<u8> &keep)
{
    rtgs_assert(keep.size() == trackCloud_.size());
    std::vector<u64> dropped;
    const auto &ids = trackCloud_.ids.view();
    for (size_t k = 0; k < keep.size(); ++k)
        if (!keep[k])
            dropped.push_back(ids[k]); // ascending: ids are sorted
    mergeIds(prunedUnsent_, dropped);
    mergeIds(prunedInFlight_, dropped);
}

void
SlamSystem::rebindFrameLoopThread()
{
    if (health_)
        health_->rebindThread();
    if (reloc_)
        reloc_->rebindThread();
}

bool
SlamSystem::pruneIdsLocked(const std::vector<u64> &ids)
{
    if (ids.empty())
        return false;
    std::vector<u8> keep = cloud_.translateKeepMask(ids);
    if (std::find(keep.begin(), keep.end(), u8(0)) == keep.end())
        return false; // the map already lacks every id
    cloud_.compact(keep);
    mapper_.remapOptimizer(keep);
    return true;
}

std::shared_ptr<const TrackingSnapshot>
SlamSystem::publishSnapshotLocked(u32 last_mapped_frame)
{
    auto snapshot = std::make_shared<TrackingSnapshot>();
    snapshot->cloud = cloud_; // COW: one refcount bump per column
    snapshot->generation = ++mapGeneration_;
    snapshot->lastMappedFrame = last_mapped_frame;
    lastPublishedFrame_ = last_mapped_frame;
    return snapshot;
}

void
SlamSystem::setTrackIterationHook(TrackIterationHook hook)
{
    trackHook_ = std::move(hook);
}

void
SlamSystem::setMapIterationHook(MapIterationHook hook)
{
    mapHook_ = std::move(hook);
}

SE3
SlamSystem::constantVelocityGuess() const
{
    size_t n = trajectory_.size();
    if (n == 0)
        return SE3::identity();
    // Right after an accepted relocalization the previous-to-last pose
    // is pre-discontinuity: extrapolating across the correction would
    // throw the guess far off. Assume zero velocity for that one frame.
    if (n == 1 || n - 1 == velocityResetIndex_)
        return trajectory_[n - 1];
    // delta maps pose[n-2] to pose[n-1]; apply it once more.
    SE3 delta = trajectory_[n - 1] * trajectory_[n - 2].inverse();
    return delta * trajectory_[n - 1];
}

SE3
SlamSystem::geometricTrack(const data::Frame &frame,
                           const SE3 &init) const
{
    if (prevDepth_.empty())
        return init;

    SE3 cam_to_world = init.inverse();
    SE3 prev_cam_to_world = prevPose_.inverse();
    u32 stride = std::max<u32>(1, config_.icpStride);

    // Sensor depth noise would make finite-difference normals useless;
    // smooth the reference depth with a small box filter over valid
    // pixels first (standard practice for normal estimation).
    ImageF smooth(prevDepth_.width(), prevDepth_.height());
    for (u32 y = 0; y < smooth.height(); ++y) {
        for (u32 x = 0; x < smooth.width(); ++x) {
            Real acc = 0;
            u32 n = 0;
            for (i32 dy = -1; dy <= 1; ++dy) {
                for (i32 dx = -1; dx <= 1; ++dx) {
                    i32 sx = static_cast<i32>(x) + dx;
                    i32 sy = static_cast<i32>(y) + dy;
                    if (sx < 0 || sy < 0 ||
                        sx >= static_cast<i32>(smooth.width()) ||
                        sy >= static_cast<i32>(smooth.height())) {
                        continue;
                    }
                    Real d = prevDepth_.at(static_cast<u32>(sx),
                                           static_cast<u32>(sy));
                    if (d > 0) {
                        acc += d;
                        ++n;
                    }
                }
            }
            smooth.at(x, y) = n >= 5 ? acc / static_cast<Real>(n)
                                     : Real(0);
        }
    }

    // Surface normals of the previous depth map (world frame), for
    // point-to-plane residuals; point-to-point slides on the planar
    // surfaces that dominate indoor scenes.
    auto prev_point = [&](i32 x, i32 y) -> Vec3f {
        Real d = smooth.at(static_cast<u32>(x), static_cast<u32>(y));
        return intrinsics_.unproject({static_cast<Real>(x) + Real(0.5),
                                      static_cast<Real>(y) + Real(0.5)},
                                     d);
    };

    for (u32 iter = 0; iter < config_.icpIterations; ++iter) {
        double h[6][6] = {};
        double b[6] = {};
        size_t pairs = 0;

        for (u32 y = stride / 2; y < frame.depth.height(); y += stride) {
            for (u32 x = stride / 2; x < frame.depth.width(); x += stride) {
                Real d = frame.depth.at(x, y);
                if (d <= 0)
                    continue;
                Vec3f p_cam = intrinsics_.unproject(
                    {static_cast<Real>(x) + Real(0.5),
                     static_cast<Real>(y) + Real(0.5)}, d);
                Vec3f p_world = cam_to_world.apply(p_cam);

                // Projective association into the previous frame.
                Vec3f q_cam = prevPose_.apply(p_world);
                if (q_cam.z <= Real(0.05))
                    continue;
                Vec2f px = intrinsics_.project(q_cam);
                i32 qx = static_cast<i32>(px.x);
                i32 qy = static_cast<i32>(px.y);
                // Normals need a wide finite-difference baseline to be
                // robust against sensor depth noise.
                const i32 nb = 3;
                if (qx < nb || qy < nb ||
                    qx + nb >= static_cast<i32>(smooth.width()) ||
                    qy + nb >= static_cast<i32>(smooth.height())) {
                    continue;
                }
                Real dq = smooth.at(static_cast<u32>(qx),
                                    static_cast<u32>(qy));
                Real dqx = smooth.at(static_cast<u32>(qx + nb),
                                     static_cast<u32>(qy));
                Real dqy = smooth.at(static_cast<u32>(qx),
                                     static_cast<u32>(qy + nb));
                if (dq <= 0 || dqx <= 0 || dqy <= 0)
                    continue;
                // Reject normals that straddle a depth discontinuity.
                if (std::abs(dqx - dq) > Real(0.15) * dq ||
                    std::abs(dqy - dq) > Real(0.15) * dq) {
                    continue;
                }

                Vec3f q0 = prev_point(qx, qy);
                Vec3f qx1 = prev_point(qx + nb, qy);
                Vec3f qy1 = prev_point(qx, qy + nb);
                Vec3f n_cam = (qx1 - q0).cross(qy1 - q0);
                Real n_len = n_cam.norm();
                if (n_len < Real(1e-9))
                    continue;
                n_cam = n_cam / n_len;

                Vec3f q_world = prev_cam_to_world.apply(q0);
                Vec3f n_world = prev_cam_to_world.rot * n_cam;

                // Point-to-plane residual with a Cauchy robust weight:
                // sensor depth noise grows with range, so large
                // residuals are down-weighted rather than trusted.
                Real r = n_world.dot(p_world - q_world);
                if (std::abs(r) > Real(0.3))
                    continue; // hard outlier gate
                Real k = Real(0.05) * std::max(Real(1), dq);
                Real w = 1 / (1 + (r / k) * (r / k));

                // d(p_world)/d(xi) = [I | -[p_world]x]; project onto n.
                Vec3f cr = p_world.cross(n_world);
                Real jac[6] = {n_world.x, n_world.y, n_world.z,
                               cr.x, cr.y, cr.z};
                for (int ci = 0; ci < 6; ++ci) {
                    b[ci] += w * jac[ci] * r;
                    for (int cj = ci; cj < 6; ++cj)
                        h[ci][cj] += w * jac[ci] * jac[cj];
                }
                ++pairs;
            }
        }
        if (pairs < 12)
            break;
        for (int ci = 0; ci < 6; ++ci) {
            for (int cj = 0; cj < ci; ++cj)
                h[ci][cj] = h[cj][ci];
            h[ci][ci] += 1e-6; // Levenberg damping
        }
        double x[6];
        if (!solve6(h, b, x))
            break;
        Twist step{{static_cast<Real>(-x[0]), static_cast<Real>(-x[1]),
                    static_cast<Real>(-x[2])},
                   {static_cast<Real>(-x[3]), static_cast<Real>(-x[4]),
                    static_cast<Real>(-x[5])}};
        cam_to_world = cam_to_world.retract(step);
        if (step.norm() < Real(1e-6))
            break;
    }
    return cam_to_world.inverse();
}

KeyframeQuery
SlamSystem::keyframeQuery(const data::Frame &frame, const SE3 &pose) const
{
    KeyframeQuery query;
    query.frameIndex = frame.index;
    query.lastKeyframeIndex = lastKeyframeIndex_;
    query.currentPose = pose;
    query.lastKeyframePose = lastKeyframePose_;
    query.currentImage = &frame.rgb;
    query.lastKeyframeImage =
        lastKeyframeImage_.empty() ? nullptr : &lastKeyframeImage_;
    return query;
}

bool
SlamSystem::decideKeyframe(const KeyframeQuery &query) const
{
    return query.frameIndex == 0 || keyframePolicy_->isKeyframe(query);
}

bool
SlamSystem::predictKeyframe(const data::Frame &frame) const
{
    if (!bootstrapped_)
        return true;
    return keyframePolicy_->isKeyframe(
        keyframeQuery(frame, constantVelocityGuess()));
}

SE3
SlamSystem::stageTrack(const data::Frame &frame, Real tracking_scale,
                       const FrameBudget *budget, FrameReport &report,
                       bool ignore_depth, const SE3 *init_override,
                       Tracker *tracker_override)
{
    if (!bootstrapped_) {
        // Frame 0 anchors the world frame (standard SLAM convention).
        bootstrapped_ = true;
        return frame.gtPose;
    }

    SE3 guess = init_override ? *init_override : constantVelocityGuess();
    StageProfiler::Scope scope(profiler_, "tracking");
    Stopwatch watch;
    SE3 pose;
    if (config_.algorithm == BaseAlgorithm::PhotoSlam) {
        // Classical geometric backend: needs only the previous frame's
        // depth, so it never touches the (possibly in-flight) map.
        pose = geometricTrack(frame, guess);
    } else {
        PreprocessedObservation obs =
            preprocessObservation(frame, intrinsics_, tracking_scale);
        u32 track_budget = budget ? budget->trackIterations : 0;
        bool allow_exceed = budget && budget->allowExceed;
        // Health-detected depth dropout: track RGB-only rather than
        // against a blanked sensor.
        const ImageF *depth = ignore_depth ? nullptr : &obs.depth();
        Tracker &tracker = tracker_override ? *tracker_override : tracker_;
        // Render against a copy-on-write clone of the latest published
        // snapshot (O(columns), no cloud copy) so the map stage can
        // mutate the authoritative cloud concurrently. The clone is
        // mutable on purpose: the RTGS pruning hook masks/compacts it
        // mid-frame, and map jobs and flushes carry those decisions
        // over to the authoritative cloud.
        refreshTrackingClone(frame, report);
        TrackResult tr = tracker.track(pipeline_, trackCloud_, obs.intr,
                                       guess, obs.rgb(), depth, trackHook_,
                                       track_budget, allow_exceed);
        pose = tr.pose;
        report.trackLoss = tr.finalLoss;
        report.trackIterations = tr.iterationsRun;
        report.trackFragments = tr.totalFragments;
    }
    report.trackSeconds = watch.seconds();
    return pose;
}

bool
SlamSystem::stageKeyframeDecision(const data::Frame &frame,
                                  const SE3 &pose,
                                  const bool *force_keyframe)
{
    if (force_keyframe)
        return frame.index == 0 || *force_keyframe;

    // Keyframe decision uses the tracked pose and current image.
    return decideKeyframe(keyframeQuery(frame, pose));
}

void
SlamSystem::stageEnqueueMap(const data::Frame &frame, const SE3 &pose,
                            const FrameBudget *budget,
                            size_t report_index)
{
    // Caller-side keyframe state is recorded at enqueue time, so the
    // keyframe policy never depends on when the job runs.
    lastKeyframeIndex_ = frame.index;
    lastKeyframeImage_ = frame.rgb;
    lastKeyframePose_ = pose;

    MapJob job;
    job.record = KeyframeRecord{frame.index, pose, frame.rgb, frame.depth};
    job.mapIterationBudget = budget ? budget->mapIterations : 0;
    job.reportIndex = report_index;
    // What tracking has decided so far travels with the job, so its
    // result never depends on how far the frame loop got meanwhile.
    job.maskedIds = maskedIds(trackCloud_);
    job.prunedIds.swap(prunedUnsent_);
    mapWorker_->enqueue(std::move(job));
    // Collect at once: an evicted job's prunes need the next carrier,
    // and a sync job's results belong in the row processFrame returns.
    collectMapReturns();
}

std::shared_ptr<const TrackingSnapshot>
SlamSystem::runMapBatch(std::vector<MapJob> &jobs)
{
    Stopwatch watch;
    StageProfiler::Scope scope(profiler_, "mapping");

    std::vector<MapBatchItem> items(jobs.size());
    u32 last_frame = jobs.back().record.frameIndex;
    size_t count, bytes;
    double publish_seconds;
    std::shared_ptr<const TrackingSnapshot> snapshot;
    {
        MutexLock lock(stateMutex_);
        // Fold tracking-side prune and mask decisions in first so this
        // batch optimises the cloud the tracker actually kept, and
        // never renders what the tracker masked.
        std::vector<u64> pruned;
        for (const MapJob &job : jobs)
            mergeIds(pruned, job.prunedIds);
        pruneIdsLocked(pruned);
        maskIds(cloud_, jobs.back().maskedIds);

        for (size_t j = 0; j < jobs.size(); ++j) {
            items[j].record = std::move(jobs[j].record);
            items[j].iterationBudget = jobs[j].mapIterationBudget;
        }
        mapper_.mapBatch(pipeline_, cloud_, intrinsics_, items, mapHook_);

        count = cloud_.size();
        bytes = cloud_.parameterBytes();
        peakBytes_ = std::max(peakBytes_, bytes);

        // Publish ONE immutable snapshot generation for the whole
        // batch — a refcount bump per column, not a cloud copy.
        // Subsequent frames track against the newest *completed* map
        // without ever waiting on an in-flight batch.
        Stopwatch publish;
        snapshot = publishSnapshotLocked(last_frame);
        publish_seconds = publish.seconds();
    }
    double seconds = watch.seconds();

    for (size_t j = 0; j < jobs.size(); ++j) {
        MapJob &job = jobs[j];
        job.densified = items[j].densified;
        job.mapLoss = items[j].mapLoss;
        job.multiViews = items[j].multiViews;
        // Batch wall time amortised over its jobs (rows sum to the
        // true batch cost).
        job.mapSeconds = seconds / static_cast<double>(jobs.size());
        job.gaussianCount = count;
        job.gaussianBytes = bytes;
        job.batchJobs = static_cast<u32>(jobs.size());
        job.publishedGeneration = snapshot->generation;
        job.publishSeconds = j + 1 == jobs.size() ? publish_seconds : 0;
    }
    return snapshot;
}

std::shared_ptr<const TrackingSnapshot>
SlamSystem::snapshotCloud()
{
    collectMapReturns();
    if (trackingSnapshot_ && !trackingSnapshot_->cloud.empty())
        return trackingSnapshot_;
    // Bootstrap: the first keyframe's mapping may still be queued or
    // in flight; never track against an empty map when one is on the
    // way.
    waitForMapping();
    if (!trackingSnapshot_)
        trackingSnapshot_ = std::make_shared<const TrackingSnapshot>();
    return trackingSnapshot_;
}

void
SlamSystem::refreshTrackingClone(const data::Frame &frame,
                                 FrameReport &report)
{
    std::shared_ptr<const TrackingSnapshot> snap = snapshotCloud();
    if (snap->generation == trackCloneGeneration_) {
        // No new publication since the last clone: the current clone
        // already carries every tracking-side prune and mask, so
        // re-deriving it (and re-materialising columns) is redundant.
        report.snapshotGeneration = snap->generation;
        report.snapshotStaleFrames =
            frame.index > snap->lastMappedFrame
                ? frame.index - snap->lastMappedFrame
                : 0;
        return;
    }

    // Masks no map job or flush has folded in yet (the RTGS pruner's
    // grace-interval masks) live only in the clone's active column;
    // collect them before the refresh so they persist across frames by
    // stable id. The scan is a byte pass and masked_prev is empty
    // whenever pruning is off.
    std::vector<u64> masked_prev = maskedIds(trackCloud_);

    trackCloud_ = snap->cloud; // COW: one refcount bump per column
    trackCloneGeneration_ = snap->generation;

    // Filter out what tracking pruned but this snapshot still holds
    // (no batch or flush carrying it has published yet), and forget
    // the pruned ids it no longer holds: stable ids are never reused,
    // so an id absent from one snapshot is absent from every later one.
    if (!prunedInFlight_.empty()) {
        std::vector<u8> keep = trackCloud_.translateKeepMask(prunedInFlight_);
        std::vector<u64> held;
        const auto &ids = trackCloud_.ids.view();
        for (size_t k = 0; k < keep.size(); ++k)
            if (!keep[k])
                held.push_back(ids[k]);
        prunedInFlight_.swap(held);
        trackCloud_.compact(keep);
    }

    // Re-apply surviving masks (ids the map has since pruned simply
    // don't match).
    maskIds(trackCloud_, masked_prev);

    report.snapshotGeneration = snap->generation;
    report.snapshotStaleFrames =
        frame.index > snap->lastMappedFrame
            ? frame.index - snap->lastMappedFrame
            : 0;
}

size_t
SlamSystem::pushReport(FrameReport &report)
{
    // Never touch stateMutex_ here (an in-flight async batch holds it
    // for its whole duration): report the latest *published* map's
    // footprint. Keyframe rows get their exact post-map numbers from
    // their collected jobs; the batch maintains the peak.
    collectMapReturns();
    if (trackingSnapshot_) {
        report.gaussianCount = trackingSnapshot_->cloud.size();
        report.gaussianBytes = trackingSnapshot_->cloud.parameterBytes();
    }
    reports_.push_back(report);
    return reports_.size() - 1;
}

FrameReport
SlamSystem::rejectFrame(FrameReport &report)
{
    // The frame never reaches tracking: hold the constant-velocity
    // prediction so the trajectory stays aligned with the stream, and
    // leave the previous-frame tracking state (prevDepth_/prevPose_)
    // untouched so the next accepted frame associates against trusted
    // data.
    report.inputRejected = true;
    report.poseHeld = bootstrapped_;
    SE3 pose = bootstrapped_ ? constantVelocityGuess() : SE3::identity();
    report.pose = pose;
    report.healthState = health_->state();
    report.framesSinceHealthy = health_->framesSinceHealthy();
    report.framesLost = health_->framesLost();
    trajectory_.push_back(pose);
    pushReport(report);
    return report;
}

double
SlamSystem::probePsnr(const data::Frame &frame, const SE3 &pose)
{
    // Pick a readable map without touching stateMutex_ (an in-flight
    // async batch may hold it for seconds): the tracking clone this
    // frame rendered, or for the geometric backend, which renders
    // nothing (its clone is only refreshed by relocalization and may
    // be stale), the newest published snapshot.
    const gs::GaussianCloud *cloud = &trackCloud_;
    if (config_.algorithm == BaseAlgorithm::PhotoSlam) {
        collectMapReturns();
        if (!trackingSnapshot_)
            return -1;
        cloud = &trackingSnapshot_->cloud;
    }
    if (cloud->empty())
        return -1;
    return probeScorer(frame, config_.health.probeWidth, *cloud)(pose);
}

std::function<double(const SE3 &)>
SlamSystem::probeScorer(const data::Frame &frame, u32 probe_width,
                        const gs::GaussianCloud &cloud) const
{
    Real scale = std::min(
        Real(1), static_cast<Real>(probe_width) /
                     static_cast<Real>(std::max<u32>(1, frame.rgb.width())));
    return [this, obs = preprocessObservation(frame, intrinsics_, scale),
            &cloud](const SE3 &pose) {
        Camera cam(obs.intr, pose);
        gs::ForwardContext ctx = pipeline_.forward(cloud, cam);
        double db = psnr(ctx.result.image, obs.rgb());
        return std::isfinite(db) ? db : 99.0; // identical probes: cap
    };
}

bool
SlamSystem::stageRelocalize(const data::Frame &frame,
                            Real tracking_scale, FrameReport &report,
                            SE3 &pose_out)
{
    StageProfiler::Scope scope(profiler_, "relocalize");
    // Score against what tracking would render against: the COW clone
    // of the newest published snapshot (refreshing it here never
    // blocks an in-flight map batch).
    refreshTrackingClone(frame, report);
    const gs::GaussianCloud &cloud = trackCloud_;
    if (cloud.empty())
        return false; // nothing to search against yet; retry next frame

    // One downsampled observation shared by every candidate render.
    auto score = probeScorer(frame, config_.reloc.probeWidth, cloud);

    report.relocAttempts = 1;
    RelocSearchResult found =
        reloc_->search(frame.index, reloc_->makeProbe(frame.rgb), score);
    report.relocCandidatesScored = found.candidatesScored;
    if (!found.hasCandidate) {
        reloc_->noteOutcome(frame.index, false);
        return false;
    }

    // Refinement burst: full tracking from the best candidate with a
    // boosted iteration budget (the recovery boost's bigger sibling).
    FrameBudget burst;
    burst.trackIterations = std::max(
        config_.tracker.iterations + 1,
        static_cast<u32>(
            std::ceil(static_cast<Real>(config_.tracker.iterations) *
                      std::max(Real(1),
                               config_.reloc.refineBoostFactor))));
    burst.allowExceed = true;
    report.budgetBoosted = true;
    report.trackIterationBudget = burst.trackIterations;
    report.mapIterationBudget = 0;
    // Cold-start refinement: the incremental tracker's decayed
    // learning rates bound its total correction to a warm-start-sized
    // step, so the burst runs a dedicated tracker scaled for the
    // multi-keyframe distance a candidate starts from.
    TrackerConfig refine_cfg = config_.tracker;
    refine_cfg.lrTranslation *=
        std::max(Real(1), config_.reloc.refineLrScale);
    refine_cfg.lrRotation *=
        std::max(Real(1), config_.reloc.refineLrScale);
    refine_cfg.lrDecay =
        std::clamp(config_.reloc.refineLrDecay, Real(0.5), Real(1));
    refine_cfg.earlyStop = false;
    Tracker refiner(refine_cfg);
    SE3 refined = stageTrack(frame, tracking_scale, &burst, report,
                             /*ignore_depth=*/false, &found.bestPose,
                             &refiner);

    // Accept only when the refined pose genuinely explains the frame.
    double verify = score(refined);
    report.relocProbePsnr = verify;
    bool accept =
        verify >= static_cast<double>(config_.reloc.acceptPsnrMinDb);
    reloc_->noteOutcome(frame.index, accept);
    if (accept)
        pose_out = refined;
    return accept;
}

FrameReport
SlamSystem::processFrame(const data::Frame &frame, Real tracking_scale,
                         const bool *force_keyframe,
                         const FrameBudget *budget)
{
    FrameReport report =
        runFrameStages(frame, tracking_scale, force_keyframe, budget);
    // Sync mode is a drained async run: the same drain a caller of an
    // async system makes after each frame.
    if (config_.mapQueueDepth == 0)
        waitForMapping();
    return report;
}

FrameReport
SlamSystem::runFrameStages(const data::Frame &frame, Real tracking_scale,
                           const bool *force_keyframe,
                           const FrameBudget *budget)
{
    rtgs_assert(tracking_scale > 0 && tracking_scale <= 1);
    FrameReport report;
    report.frameIndex = frame.index;
    if (budget) {
        report.trackIterationBudget = budget->trackIterations;
        report.mapIterationBudget = budget->mapIterations;
    }

    // --- tracking-health: input validation + recovery boost. With the
    // monitor disabled (the default) all the health blocks are inert
    // and the frame takes exactly the historical path.
    bool ignore_depth = false;
    bool was_bootstrapped = bootstrapped_;
    FrameBudget boosted;
    if (health_) {
        InputCheck check = health_->checkInput(frame);
        report.inputNan = check.nanPixels;
        report.inputBadTimestamp = check.badTimestamp;
        report.depthIgnored = check.depthInvalid;
        if (check.reject) {
            health_->noteRejected();
            return rejectFrame(report);
        }
        ignore_depth = check.depthInvalid;
        FrameAdvice advice = health_->advise(config_.tracker.iterations);
        if (advice.boostBudget && was_bootstrapped) {
            // Recovery boost overrides the caller's (similarity-gate)
            // budget: a health-flagged frame is never also gated down.
            boosted.trackIterations = advice.trackIterations;
            boosted.allowExceed = true;
            budget = &boosted;
            report.budgetBoosted = true;
            report.trackIterationBudget = boosted.trackIterations;
            report.mapIterationBudget = 0;
        }
    }

    SE3 guess;
    if (health_ && was_bootstrapped)
        guess = constantVelocityGuess();

    // --- relocalization: the final escalation rung. Only reached in
    // the Lost state (and on the backoff schedule), so the clean path
    // never pays for it and never diverges byte-wise.
    bool reloc_attempted = false;
    bool reloc_accepted = false;
    SE3 pose;
    if (reloc_ && health_ && was_bootstrapped &&
        health_->state() == HealthState::Lost &&
        reloc_->shouldAttempt(frame.index)) {
        reloc_attempted = true;
        reloc_accepted =
            stageRelocalize(frame, tracking_scale, report, pose);
    }
    if (!reloc_attempted) {
        pose = stageTrack(frame, tracking_scale, budget, report,
                          ignore_depth);
    } else if (!reloc_accepted) {
        // Rejected attempt: hold the coast pose, exactly like any
        // other suspect frame.
        pose = guess;
    }

    // --- tracking-health: divergence assessment sits between the
    // track stage and the keyframe decision. A relocalization attempt
    // replaces the assessment for its frame: the verdict is the
    // accept/reject decision itself.
    bool kf_override_value = false;
    const bool *kf_override = force_keyframe;
    if (health_ && was_bootstrapped && reloc_attempted) {
        if (reloc_accepted) {
            health_->noteRelocalized();
            report.relocAccepted = true;
            // Re-anchor the map at the relocalized pose immediately,
            // and stop the motion model extrapolating the correction.
            kf_override_value = true;
            kf_override = &kf_override_value;
            report.forcedRecoveryKeyframe = true;
            velocityResetIndex_ = trajectory_.size();
        } else {
            health_->noteRelocalizationFailed();
            report.poseHeld = true;
            kf_override_value = false;
            kf_override = &kf_override_value;
        }
        report.healthState = health_->state();
        report.framesSinceHealthy = health_->framesSinceHealthy();
    } else if (health_ && was_bootstrapped) {
        AssessInput in;
        in.trackLoss = report.trackLoss;
        in.haveLoss = config_.algorithm != BaseAlgorithm::PhotoSlam;
        in.trackedPose = pose;
        in.predictedPose = guess;
        if (config_.health.probeConfirm) {
            in.probePsnr = [this, &frame, &pose] {
                return probePsnr(frame, pose);
            };
        }
        Assessment verdict = health_->assess(in);
        report.probePsnrDb = verdict.probePsnrDb;
        report.healthState = verdict.state;
        report.framesSinceHealthy = health_->framesSinceHealthy();
        if (verdict.holdPose) {
            pose = guess;
            report.poseHeld = true;
        }
        // Health overrides the caller's keyframe request: a suspect
        // frame must never anchor the map, and the recovery re-anchor
        // must happen even where the policy would decline.
        if (verdict.suppressKeyframe) {
            kf_override_value = false;
            kf_override = &kf_override_value;
        } else if (verdict.forceKeyframe) {
            kf_override_value = true;
            kf_override = &kf_override_value;
            report.forcedRecoveryKeyframe = true;
        }
    }
    if (health_)
        report.framesLost = health_->framesLost();

    trajectory_.push_back(pose);

    report.isKeyframe = stageKeyframeDecision(frame, pose, kf_override);
    report.pose = pose;

    // Feed the relocalizer's pose/probe database from the keyframe
    // decision: every accepted keyframe is a future anchor.
    if (reloc_ && report.isKeyframe)
        reloc_->noteKeyframe(frame.index, pose, frame.rgb);

    report.mappedAsync = report.isKeyframe && config_.mapQueueDepth > 0;

    if (!report.poseHeld) {
        prevDepth_ = frame.depth;
        prevPose_ = pose;
    }

    size_t report_index = pushReport(report);
    if (!report.isKeyframe)
        return report;
    stageEnqueueMap(frame, pose, budget, report_index);
    // The job has run in place (sync) or may already have completed
    // (async) and been collected; return the freshest view.
    return reports_[report_index];
}

ImageRGB
SlamSystem::renderView(const SE3 &pose) const
{
    MutexLock lock(stateMutex_);
    Camera cam(intrinsics_, pose);
    gs::ForwardContext ctx = pipeline_.forward(cloud_, cam);
    return ctx.result.image;
}

} // namespace rtgs::slam
