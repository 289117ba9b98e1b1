/**
 * @file
 * Tests for the staged asynchronous SLAM loop: sync mode (queue depth
 * 0, the map batch run in place) must be byte-identical to a drained
 * async run across all four base-algorithm profiles, with and without
 * in-tracking pruning (the async machinery must be numerically
 * transparent), and overlapped async runs must complete with usable
 * results and fully filled reports after draining.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "common/thread_pool.hh"
#include "core/rtgs_slam.hh"
#include "slam/evaluation.hh"
#include "slam/pipeline.hh"

namespace rtgs::slam
{

namespace
{

data::DatasetSpec
tinySpec()
{
    data::DatasetSpec spec = data::DatasetSpec::tumLike(Real(0.15));
    spec.scene.surfelSpacing = Real(0.28);
    spec.trajectory.frameCount = 10;
    spec.trajectory.revolutions = Real(0.06);
    spec.noise.enabled = false;
    return spec;
}

data::SyntheticDataset &
tinyDataset()
{
    static data::SyntheticDataset ds(tinySpec());
    return ds;
}

SlamConfig
fastConfig(BaseAlgorithm algo)
{
    SlamConfig cfg = SlamConfig::forAlgorithm(algo);
    cfg.tracker.iterations = 10;
    cfg.mapper.iterations = 12;
    cfg.kfInterval = 4;
    return cfg;
}

/** Byte-compare two SE3 sequences. */
bool
trajectoriesIdentical(const std::vector<SE3> &a, const std::vector<SE3> &b)
{
    if (a.size() != b.size())
        return false;
    for (size_t i = 0; i < a.size(); ++i) {
        if (std::memcmp(&a[i].rot, &b[i].rot, sizeof(a[i].rot)) != 0 ||
            std::memcmp(&a[i].trans, &b[i].trans, sizeof(a[i].trans)) !=
                0) {
            return false;
        }
    }
    return true;
}

/** Byte-compare the parameter arrays of two clouds. */
bool
cloudsIdentical(const gs::GaussianCloud &a, const gs::GaussianCloud &b)
{
    auto eq = [](const auto &u, const auto &v) {
        using T = typename std::decay_t<decltype(u)>::value_type;
        return u.size() == v.size() &&
               (u.empty() ||
                std::memcmp(u.data(), v.data(), u.size() * sizeof(T)) ==
                    0);
    };
    return eq(a.positions, b.positions) && eq(a.logScales, b.logScales) &&
           eq(a.rotations, b.rotations) &&
           eq(a.opacityLogits, b.opacityLogits) &&
           eq(a.shCoeffs, b.shCoeffs) && eq(a.active, b.active);
}

} // namespace

TEST(AsyncSlam, SyncModeIdenticalToDrainedAsyncOnAllProfiles)
{
    // The determinism guard for the staged refactor: a drained async
    // run (queue depth 2, waitForMapping after every frame) performs
    // exactly the stage sequence of the sync loop, so trajectories and
    // maps must match bit for bit on every base-algorithm profile.
    auto &ds = tinyDataset();
    const BaseAlgorithm algos[] = {BaseAlgorithm::GsSlam,
                                   BaseAlgorithm::MonoGs,
                                   BaseAlgorithm::PhotoSlam,
                                   BaseAlgorithm::SplaTam};
    for (auto algo : algos) {
        SlamConfig sync_cfg = fastConfig(algo);
        sync_cfg.mapQueueDepth = 0;
        SlamSystem sync_sys(sync_cfg, ds.intrinsics());

        SlamConfig async_cfg = fastConfig(algo);
        async_cfg.mapQueueDepth = 2;
        SlamSystem async_sys(async_cfg, ds.intrinsics());

        for (u32 f = 0; f < ds.frameCount(); ++f) {
            sync_sys.processFrame(ds.frame(f));
            async_sys.processFrame(ds.frame(f));
            async_sys.waitForMapping();
        }

        EXPECT_TRUE(trajectoriesIdentical(sync_sys.trajectory(),
                                          async_sys.trajectory()))
            << algorithmName(algo) << ": trajectories diverged";
        EXPECT_TRUE(cloudsIdentical(sync_sys.cloud(), async_sys.cloud()))
            << algorithmName(algo) << ": maps diverged";
    }
}

namespace
{

/** A track_sync-like RtgsSlam fixture (gate, downsampling and pruning
 *  on) whose 4-frame keyframe interval maps MonoGS keyframes while RTGS
 *  grace-interval masks are live. */
data::SyntheticDataset &
maskedKeyframeDataset()
{
    static data::SyntheticDataset ds([] {
        data::DatasetSpec spec = data::DatasetSpec::tumLike(Real(0.12));
        spec.trajectory.frameCount = 12;
        spec.trajectory.revolutions = Real(0.006) * 12;
        return spec;
    }());
    return ds;
}

core::RtgsSlamConfig
rtgsConfig(BaseAlgorithm algo, core::PruneMethod method, u32 queue_depth)
{
    core::RtgsSlamConfig cfg;
    cfg.base = fastConfig(algo);
    cfg.base.mapQueueDepth = queue_depth;
    cfg.pruneMethod = method;
    cfg.gate.enabled = true;
    return cfg;
}

} // namespace

TEST(AsyncSlam, RtgsSyncIdenticalToDrainedAsyncOnAllProfiles)
{
    // Sync mode runs the async map batch in place, so with in-tracking
    // pruning on (masks and prune requests crossing from the tracking
    // clone to the map) a sync run must still equal a drained async
    // run bit for bit, for both pruning methods on every profile.
    auto &ds = maskedKeyframeDataset();
    const BaseAlgorithm algos[] = {BaseAlgorithm::GsSlam,
                                   BaseAlgorithm::MonoGs,
                                   BaseAlgorithm::PhotoSlam,
                                   BaseAlgorithm::SplaTam};
    for (auto algo : algos) {
        for (auto method :
             {core::PruneMethod::Rtgs, core::PruneMethod::Taming}) {
            core::RtgsSlam sync_run(rtgsConfig(algo, method, 0),
                                    ds.intrinsics());
            core::RtgsSlam async_run(rtgsConfig(algo, method, 2),
                                     ds.intrinsics());
            size_t masks_at_keyframes = 0;
            for (u32 f = 0; f < ds.frameCount(); ++f) {
                sync_run.processFrame(ds.frame(f));
                auto r = async_run.processFrame(ds.frame(f));
                if (r.base.isKeyframe) {
                    const auto &clone = async_run.system().trackingCloud();
                    masks_at_keyframes += clone.size() - clone.activeCount();
                }
                async_run.system().waitForMapping();
            }
            sync_run.finish();
            async_run.finish();
            if (algo == BaseAlgorithm::MonoGs &&
                method == core::PruneMethod::Rtgs) {
                EXPECT_GT(masks_at_keyframes, 0u)
                    << "fixture must map keyframes while masks are live";
            }
            const char *name = method == core::PruneMethod::Rtgs
                                   ? "rtgs"
                                   : "taming";
            EXPECT_TRUE(
                trajectoriesIdentical(sync_run.system().trajectory(),
                                      async_run.system().trajectory()))
                << algorithmName(algo) << "+" << name
                << ": trajectories diverged";
            EXPECT_TRUE(cloudsIdentical(sync_run.system().cloud(),
                                        async_run.system().cloud()))
                << algorithmName(algo) << "+" << name
                << ": maps diverged";
        }
    }
}

TEST(AsyncSlam, DrainedAsyncTamingRunIsRepeatable)
{
    // Taming requests its prune after the frame's map job is enqueued.
    // A batch folds in only the requests made before its last job, so
    // whether the running batch or the drain's flush applies that
    // prune never depends on timing: two drained runs match bitwise.
    data::DatasetSpec spec = data::DatasetSpec::tumLike(Real(0.15));
    spec.trajectory.frameCount = 16;
    data::SyntheticDataset ds(spec);
    auto run = [&] {
        core::RtgsSlam rtgs(
            rtgsConfig(BaseAlgorithm::SplaTam, core::PruneMethod::Taming, 2),
            ds.intrinsics());
        for (u32 f = 0; f < ds.frameCount(); ++f) {
            rtgs.processFrame(ds.frame(f));
            rtgs.system().waitForMapping();
        }
        return std::make_pair(rtgs.system().trajectory(),
                              rtgs.system().cloud());
    };
    auto first = run();
    auto second = run();
    EXPECT_TRUE(trajectoriesIdentical(first.first, second.first));
    EXPECT_TRUE(cloudsIdentical(first.second, second.second));
}

TEST(AsyncSlam, BatchedAsyncIdenticalToPerJobAsyncOnAllProfiles)
{
    // The batched drain runs the exact per-job recipe (densify ->
    // admit -> optimise -> prune-transparent, FIFO), only amortising
    // the drain setup and publishing once per batch — so with
    // identical snapshot visibility (drained after every frame) a
    // mapBatchSize=4 run must match a mapBatchSize=1 run bit for bit
    // on every base-algorithm profile.
    auto &ds = tinyDataset();
    const BaseAlgorithm algos[] = {BaseAlgorithm::GsSlam,
                                   BaseAlgorithm::MonoGs,
                                   BaseAlgorithm::PhotoSlam,
                                   BaseAlgorithm::SplaTam};
    for (auto algo : algos) {
        SlamConfig per_job_cfg = fastConfig(algo);
        per_job_cfg.mapQueueDepth = 2;
        per_job_cfg.mapBatchSize = 1;
        SlamSystem per_job(per_job_cfg, ds.intrinsics());

        SlamConfig batched_cfg = fastConfig(algo);
        batched_cfg.mapQueueDepth = 4;
        batched_cfg.mapBatchSize = 4;
        SlamSystem batched(batched_cfg, ds.intrinsics());

        // Photo-SLAM's geometric tracking never reads the map, so its
        // outputs are independent of snapshot timing: run it fully
        // overlapped to exercise REAL multi-job batches while keeping
        // byte-identity. Rendering-tracking profiles drain per frame
        // (identical snapshot visibility in both runs).
        bool overlap = algo == BaseAlgorithm::PhotoSlam;
        for (u32 f = 0; f < ds.frameCount(); ++f) {
            per_job.processFrame(ds.frame(f));
            if (!overlap)
                per_job.waitForMapping();
            batched.processFrame(ds.frame(f));
            if (!overlap)
                batched.waitForMapping();
        }
        per_job.waitForMapping();
        batched.waitForMapping();

        EXPECT_TRUE(trajectoriesIdentical(per_job.trajectory(),
                                          batched.trajectory()))
            << algorithmName(algo) << ": trajectories diverged";
        EXPECT_TRUE(cloudsIdentical(per_job.cloud(), batched.cloud()))
            << algorithmName(algo) << ": maps diverged";
    }
}

TEST(AsyncSlam, BatchedAsyncBitwiseIndependentOfRenderWorkers)
{
    // PR-3 makes every rendering output bitwise independent of the
    // pool size; the batched drain + COW snapshot publication must
    // preserve that end to end. Same drained schedule at 1/2/4 render
    // workers -> identical trajectories and maps.
    auto &ds = tinyDataset();
    std::vector<std::vector<SE3>> trajectories;
    std::vector<gs::GaussianCloud> clouds;
    for (size_t workers : {1u, 2u, 4u}) {
        ThreadPool pool(workers);
        SlamConfig cfg = fastConfig(BaseAlgorithm::SplaTam);
        cfg.mapQueueDepth = 4;
        cfg.mapBatchSize = 2;
        cfg.pool = &pool;
        SlamSystem system(cfg, ds.intrinsics());
        for (u32 f = 0; f < ds.frameCount(); ++f) {
            system.processFrame(ds.frame(f));
            system.waitForMapping();
        }
        trajectories.push_back(system.trajectory());
        clouds.push_back(system.cloud());
    }
    for (size_t i = 1; i < trajectories.size(); ++i) {
        EXPECT_TRUE(trajectoriesIdentical(trajectories[0],
                                          trajectories[i]));
        EXPECT_TRUE(cloudsIdentical(clouds[0], clouds[i]));
    }
}

TEST(AsyncSlam, OverlappedBatchedAsyncCompletesWithUsableResults)
{
    // Fully overlapped batched mode: keyframe bursts (SplaTAM maps
    // every frame) drain as real multi-job batches behind tracking.
    // This is the TSan target for the batched-drain + COW-publish
    // path.
    auto &ds = tinyDataset();
    SlamConfig cfg = fastConfig(BaseAlgorithm::SplaTam);
    cfg.mapQueueDepth = 4;
    cfg.mapBatchSize = 4;
    SlamSystem system(cfg, ds.intrinsics());
    for (u32 f = 0; f < ds.frameCount(); ++f)
        system.processFrame(ds.frame(f));
    system.waitForMapping();

    ASSERT_EQ(system.trajectory().size(), ds.frameCount());
    EXPECT_GT(system.cloud().size(), 100u);
    u64 max_generation = 0;
    for (const auto &r : system.reports()) {
        if (!r.isKeyframe)
            continue;
        EXPECT_GE(r.mapBatchJobs, 1u) << "frame " << r.frameIndex;
        EXPECT_LE(r.mapBatchJobs, cfg.mapBatchSize);
        EXPECT_GT(r.publishedGeneration, 0u);
        max_generation =
            std::max(max_generation, r.publishedGeneration);
    }
    // One publication per batch: the generation counter can never
    // exceed the keyframe count (and is lower whenever a burst
    // coalesced; coalescing itself is pinned deterministically by
    // MapWorkerTest.BatchedDrainPreservesFifoAndBatchCap).
    EXPECT_LE(max_generation, static_cast<u64>(ds.frameCount()));
}

TEST(MapWorkerTest, BatchedDrainPreservesFifoAndBatchCap)
{
    std::mutex m;
    std::condition_variable cv;
    bool release = false;
    std::vector<std::vector<u32>> batches;

    ThreadPool pool(1);
    MapWorker worker(/*queue_depth=*/4, /*batch_size=*/3,
                     [&](std::vector<MapJob> &batch) {
                         std::vector<u32> frames;
                         for (const MapJob &j : batch)
                             frames.push_back(j.record.frameIndex);
                         std::unique_lock<std::mutex> lock(m);
                         batches.push_back(std::move(frames));
                         cv.notify_all();
                         cv.wait(lock, [&] { return release; });
                     },
                     pool);

    auto make_job = [](u32 frame) {
        MapJob job;
        job.record.frameIndex = frame;
        return job;
    };
    // Deterministic schedule: wait until the drainer has popped job 0
    // alone and parked in the gated runner, THEN queue the burst; the
    // burst must come back as one batch-capped FIFO batch plus the
    // remainder.
    worker.enqueue(make_job(0));
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return batches.size() == 1; });
    }
    for (u32 f = 1; f <= 4; ++f)
        worker.enqueue(make_job(f));
    {
        std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();
    worker.drain();

    ASSERT_EQ(batches.size(), 3u);
    EXPECT_EQ(batches[0], (std::vector<u32>{0}));
    EXPECT_EQ(batches[1], (std::vector<u32>{1, 2, 3}))
        << "queued burst must drain as one FIFO batch up to the cap";
    EXPECT_EQ(batches[2], (std::vector<u32>{4}));
}

TEST(MapWorkerTest, EnqueueBlocksAtQueueCapacity)
{
    std::mutex m;
    std::condition_variable cv;
    bool release = false;
    std::vector<u32> ran;

    ThreadPool pool(1);
    MapWorker worker(/*queue_depth=*/1, /*batch_size=*/1,
                     [&](std::vector<MapJob> &batch) {
                         std::unique_lock<std::mutex> lock(m);
                         cv.wait(lock, [&] { return release; });
                         for (const MapJob &j : batch)
                             ran.push_back(j.record.frameIndex);
                     },
                     pool);

    auto make_job = [](u32 frame) {
        MapJob job;
        job.record.frameIndex = frame;
        return job;
    };
    worker.enqueue(make_job(0)); // popped by the (gated) drainer
    worker.enqueue(make_job(1)); // fills the queue to capacity

    std::atomic<bool> third_enqueued{false};
    std::thread producer([&] {
        worker.enqueue(make_job(2)); // must block until a slot frees
        third_enqueued = true;
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_FALSE(third_enqueued)
        << "enqueue must backpressure at queue_depth pending jobs";

    {
        std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();
    producer.join();
    worker.drain();
    EXPECT_TRUE(third_enqueued);
    EXPECT_EQ(ran, (std::vector<u32>{0, 1, 2}));
}

TEST(AsyncSlam, OverlappedAsyncCompletesWithUsableResults)
{
    // Fully overlapped: no drain between frames, mapping runs behind
    // tracking. Results may differ numerically from sync (tracking sees
    // a slightly stale map) but must stay usable.
    auto &ds = tinyDataset();
    SlamConfig cfg = fastConfig(BaseAlgorithm::MonoGs);
    cfg.mapQueueDepth = 2;
    SlamSystem system(cfg, ds.intrinsics());
    for (u32 f = 0; f < ds.frameCount(); ++f)
        system.processFrame(ds.frame(f));
    system.waitForMapping();

    ASSERT_EQ(system.trajectory().size(), ds.frameCount());
    EXPECT_GT(system.cloud().size(), 100u);

    std::vector<SE3> gt;
    for (u32 f = 0; f < ds.frameCount(); ++f)
        gt.push_back(ds.gtPose(f));
    AteResult ate = computeAte(system.trajectory(), gt);
    EXPECT_LT(ate.rmse, 0.15)
        << "overlapped mapping must not destroy tracking";
}

TEST(AsyncSlam, ReportsFilledAfterDrain)
{
    auto &ds = tinyDataset();
    SlamConfig cfg = fastConfig(BaseAlgorithm::MonoGs);
    cfg.mapQueueDepth = 1;
    SlamSystem system(cfg, ds.intrinsics());
    for (u32 f = 0; f < ds.frameCount(); ++f)
        system.processFrame(ds.frame(f));
    system.waitForMapping();

    size_t keyframes = 0;
    for (const auto &r : system.reports()) {
        if (!r.isKeyframe)
            continue;
        ++keyframes;
        EXPECT_TRUE(r.mappedAsync) << "frame " << r.frameIndex;
        EXPECT_GT(r.mapLoss, 0.0)
            << "frame " << r.frameIndex
            << ": drained keyframe must have its map loss filled in";
        EXPECT_GT(r.gaussianCount, 0u);
    }
    EXPECT_GE(keyframes, ds.frameCount() / 4);
    // Frame 0 seeds the map.
    EXPECT_GT(system.reports().front().densified, 50u);

    // Async mapping must record its stage time from the worker thread.
    EXPECT_GT(system.profiler().seconds("mapping"), 0.0);
    EXPECT_GT(system.profiler().seconds("tracking"), 0.0);
}

TEST(AsyncSlam, FrameBudgetCapsTrackingIterations)
{
    auto &ds = tinyDataset();
    SlamConfig cfg = fastConfig(BaseAlgorithm::MonoGs);
    cfg.tracker.earlyStop = false; // isolate the budget's effect
    SlamSystem system(cfg, ds.intrinsics());
    system.processFrame(ds.frame(0));

    FrameBudget budget;
    budget.trackIterations = 3;
    FrameReport r =
        system.processFrame(ds.frame(1), Real(1), nullptr, &budget);
    EXPECT_EQ(r.trackIterations, 3u);
    EXPECT_EQ(r.trackIterationBudget, 3u);

    // Unbudgeted frame runs the full configured count.
    FrameReport r2 = system.processFrame(ds.frame(2));
    EXPECT_EQ(r2.trackIterations, cfg.tracker.iterations);
    EXPECT_EQ(r2.trackIterationBudget, 0u);
}

TEST(MapWorkerTest, DropOldestEvictsStaleJobsWithAccounting)
{
    std::mutex m;
    std::condition_variable cv;
    bool release = false;
    std::vector<u32> ran;
    std::vector<u32> dropped;

    ThreadPool pool(1);
    MapWorker worker(
        /*queue_depth=*/2, /*batch_size=*/1,
        [&](std::vector<MapJob> &batch) {
            std::unique_lock<std::mutex> lock(m);
            for (const MapJob &j : batch)
                ran.push_back(j.record.frameIndex);
            cv.notify_all();
            cv.wait(lock, [&] { return release; });
        },
        pool, OverflowPolicy::DropOldest, /*watchdog_seconds=*/0,
        [&](MapJob &job) { dropped.push_back(job.record.frameIndex); });

    auto make_job = [](u32 frame) {
        MapJob job;
        job.record.frameIndex = frame;
        return job;
    };
    worker.enqueue(make_job(0)); // popped by the (gated) drainer
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return ran.size() == 1; });
    }
    worker.enqueue(make_job(1)); // queue: {1}
    worker.enqueue(make_job(2)); // queue: {1, 2} — at capacity
    worker.enqueue(make_job(3)); // evicts 1 → queue: {2, 3}
    worker.enqueue(make_job(4)); // evicts 2 → queue: {3, 4}
    {
        std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();
    worker.drain(); // terminates despite the evicted jobs

    EXPECT_EQ(ran, (std::vector<u32>{0, 3, 4}))
        << "survivors keep FIFO order; stale jobs are gone";
    EXPECT_EQ(dropped, (std::vector<u32>{1, 2}))
        << "the on-drop callback sees exactly the evicted jobs";
    EXPECT_EQ(worker.droppedJobs(), 2u);
    EXPECT_EQ(worker.watchdogTrips(), 0u);
}

TEST(MapWorkerTest, WatchdogUnwedgesBlockedProducer)
{
    // Block policy with a watchdog: a producer facing a wedged drainer
    // waits at most watchdog_seconds, then degrades to drop-oldest
    // instead of deadlocking the frame loop.
    std::mutex m;
    std::condition_variable cv;
    bool release = false;
    std::vector<u32> ran;
    std::vector<u32> dropped;

    ThreadPool pool(1);
    MapWorker worker(
        /*queue_depth=*/1, /*batch_size=*/1,
        [&](std::vector<MapJob> &batch) {
            std::unique_lock<std::mutex> lock(m);
            for (const MapJob &j : batch)
                ran.push_back(j.record.frameIndex);
            cv.notify_all();
            cv.wait(lock, [&] { return release; }); // wedged until release
        },
        pool, OverflowPolicy::Block, /*watchdog_seconds=*/0.05,
        [&](MapJob &job) { dropped.push_back(job.record.frameIndex); });

    auto make_job = [](u32 frame) {
        MapJob job;
        job.record.frameIndex = frame;
        return job;
    };
    worker.enqueue(make_job(0)); // popped by the wedged drainer
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return ran.size() == 1; });
    }
    worker.enqueue(make_job(1)); // fills the queue
    auto t0 = std::chrono::steady_clock::now();
    worker.enqueue(make_job(2)); // watchdog trips, evicts 1
    auto waited = std::chrono::steady_clock::now() - t0;
    EXPECT_GE(waited, std::chrono::milliseconds(40))
        << "the producer must honor the watchdog window first";
    EXPECT_LT(waited, std::chrono::seconds(30))
        << "the producer must not block indefinitely";

    EXPECT_EQ(worker.watchdogTrips(), 1u);
    EXPECT_EQ(worker.droppedJobs(), 1u);
    EXPECT_EQ(dropped, (std::vector<u32>{1}));

    {
        std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();
    worker.drain();
    EXPECT_EQ(ran, (std::vector<u32>{0, 2}));
}

TEST(AsyncSlam, DropOldestPolicyCompletesFloodedRunWithAccounting)
{
    // Flood the map queue: every-frame mapping (SplaTAM-like) with a
    // deliberately slow mapper, a depth-1 queue, and no draining
    // between frames. Under DropOldest the run must complete without
    // the frame loop ever wedging, and every dropped job must be
    // visible both in the aggregate counter and on its report row.
    auto &ds = tinyDataset();
    SlamConfig cfg = fastConfig(BaseAlgorithm::SplaTam);
    cfg.tracker.iterations = 1;
    cfg.mapper.iterations = 60;
    cfg.mapQueueDepth = 1;
    cfg.mapOverflowPolicy = OverflowPolicy::DropOldest;
    SlamSystem system(cfg, ds.intrinsics());
    for (u32 f = 0; f < ds.frameCount(); ++f)
        system.processFrame(ds.frame(f));
    system.waitForMapping();

    ASSERT_EQ(system.trajectory().size(), ds.frameCount());
    EXPECT_GT(system.mapJobsDropped(), 0u)
        << "a depth-1 queue against a slow mapper must overflow";
    EXPECT_EQ(system.mapWatchdogTrips(), 0u);

    size_t flagged = 0;
    for (const auto &r : system.reports()) {
        if (!r.mapJobDropped)
            continue;
        ++flagged;
        EXPECT_TRUE(r.mappedAsync) << "frame " << r.frameIndex;
        EXPECT_EQ(r.mapLoss, 0.0)
            << "frame " << r.frameIndex
            << ": a dropped job must never report map results";
    }
    EXPECT_EQ(flagged, system.mapJobsDropped())
        << "per-row drop flags must agree with the aggregate counter";
}

TEST(AsyncSlam, BudgetNeverRaisesConfiguredIterations)
{
    auto &ds = tinyDataset();
    SlamConfig cfg = fastConfig(BaseAlgorithm::MonoGs);
    cfg.tracker.iterations = 4;
    cfg.tracker.earlyStop = false;
    SlamSystem system(cfg, ds.intrinsics());
    system.processFrame(ds.frame(0));
    FrameBudget budget;
    budget.trackIterations = 50;
    FrameReport r =
        system.processFrame(ds.frame(1), Real(1), nullptr, &budget);
    EXPECT_EQ(r.trackIterations, 4u);
}

} // namespace rtgs::slam
