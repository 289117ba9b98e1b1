/**
 * @file
 * Property-based sweeps (TEST_P) over randomised scenes, cameras and
 * configurations: invariants that must hold for *any* input, not just
 * hand-picked cases — compositing bounds, masking monotonicity,
 * scheduling dominance, and schedule algebra.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "core/downsampling.hh"
#include "gs/render_pipeline.hh"
#include "hw/rtgs_model.hh"
#include "hw/trace.hh"
#include "common/thread_pool.hh"

namespace rtgs
{

namespace
{

/** Random test scene parameterised by a seed. */
struct RandomScene
{
    gs::GaussianCloud cloud;
    Camera camera;

    explicit RandomScene(u64 seed, size_t count = 40)
    {
        Rng rng(seed);
        for (size_t i = 0; i < count; ++i) {
            Vec3f pos{static_cast<Real>(rng.uniform(-1.2, 1.2)),
                      static_cast<Real>(rng.uniform(-0.9, 0.9)),
                      static_cast<Real>(rng.uniform(1.2, 5.0))};
            Real scale = static_cast<Real>(rng.uniform(0.05, 0.4));
            Real opacity = static_cast<Real>(rng.uniform(0.1, 0.9));
            Vec3f rgb{static_cast<Real>(rng.uniform(0.05, 0.95)),
                      static_cast<Real>(rng.uniform(0.05, 0.95)),
                      static_cast<Real>(rng.uniform(0.05, 0.95))};
            cloud.pushIsotropic(pos, scale, opacity, rgb);
            // Random anisotropy and rotation on half the population.
            if (i % 2 == 0) {
                cloud.logScales.mut()[i].x +=
                    static_cast<Real>(rng.uniform(-0.8, 0.8));
                cloud.rotations.mut()[i] = Quatf::fromAxisAngle(
                    {static_cast<Real>(rng.normal()),
                     static_cast<Real>(rng.normal()),
                     static_cast<Real>(rng.normal())},
                    static_cast<Real>(rng.uniform(0, 3)));
            }
        }
        camera = Camera(Intrinsics::fromFov(Real(1.2), 96, 72),
                        SE3::lookAt(
                            {static_cast<Real>(rng.uniform(-0.3, 0.3)),
                             static_cast<Real>(rng.uniform(-0.3, 0.3)),
                             static_cast<Real>(rng.uniform(-0.5, 0.0))},
                            {0, 0, 3}));
    }
};

} // namespace

class RenderProperty : public ::testing::TestWithParam<u64>
{
};

TEST_P(RenderProperty, CompositingStaysBounded)
{
    RandomScene scene(GetParam());
    gs::RenderPipeline pipe;
    auto ctx = pipe.forward(scene.cloud, scene.camera);
    for (size_t i = 0; i < ctx.result.image.pixelCount(); ++i) {
        // Alpha in [0,1]; transmittance in [0,1]; colours bounded by
        // the maximal splat colour + background.
        EXPECT_GE(ctx.result.alpha[i], 0);
        EXPECT_LE(ctx.result.alpha[i], 1 + 1e-5);
        EXPECT_GE(ctx.result.finalT[i], -1e-5);
        EXPECT_LE(ctx.result.finalT[i], 1 + 1e-5);
        EXPECT_GE(ctx.result.image[i].x, -1e-5);
        EXPECT_LE(ctx.result.image[i].x, 1.5);
        EXPECT_NEAR(ctx.result.alpha[i] + ctx.result.finalT[i], 1,
                    1e-4);
    }
}

TEST_P(RenderProperty, MaskingNeverIncreasesCoverage)
{
    RandomScene scene(GetParam());
    gs::RenderPipeline pipe;
    auto full = pipe.forward(scene.cloud, scene.camera);

    // Mask a third of the Gaussians.
    Rng rng(GetParam() ^ 0xABCD);
    for (size_t k = 0; k < scene.cloud.size(); ++k)
        if (rng.chance(0.33))
            scene.cloud.active.mut()[k] = 0;
    auto masked = pipe.forward(scene.cloud, scene.camera);

    for (size_t i = 0; i < full.result.alpha.pixelCount(); ++i) {
        EXPECT_LE(masked.result.alpha[i],
                  full.result.alpha[i] + 1e-4);
        EXPECT_LE(masked.result.nContrib[i], full.result.nContrib[i]);
    }
}

TEST_P(RenderProperty, WorkloadCountersConsistent)
{
    RandomScene scene(GetParam());
    gs::RenderPipeline pipe;
    auto ctx = pipe.forward(scene.cloud, scene.camera);
    for (u32 y = 0; y < ctx.grid.height; ++y) {
        for (u32 x = 0; x < ctx.grid.width; ++x) {
            u32 tile = ctx.grid.tileOfPixel(x, y);
            EXPECT_LE(ctx.result.nBlended.at(x, y),
                      ctx.result.nContrib.at(x, y));
            EXPECT_LE(ctx.result.nContrib.at(x, y),
                      ctx.bins.count(tile));
        }
    }
    EXPECT_TRUE(gs::tilesAreDepthSorted(ctx.bins, ctx.projected));
}

TEST_P(RenderProperty, TraceReassemblesCounters)
{
    RandomScene scene(GetParam());
    gs::RenderPipeline pipe;
    auto ctx = pipe.forward(scene.cloud, scene.camera);
    auto trace = hw::IterationTrace::capture(ctx, scene.cloud.size());
    u64 iterated = 0, blended = 0;
    for (const auto *s : trace.allSubtiles()) {
        iterated += s->sumIterated();
        blended += s->sumBlended();
    }
    EXPECT_EQ(iterated, trace.fragmentsIterated);
    EXPECT_EQ(blended, trace.fragmentsBlended);
}

TEST_P(RenderProperty, BackwardGradientsAreFinite)
{
    RandomScene scene(GetParam());
    gs::RenderPipeline pipe;
    auto ctx = pipe.forward(scene.cloud, scene.camera);
    ImageRGB adj(96, 72, {0.5f, -0.3f, 0.2f});
    auto back = pipe.backward(scene.cloud, ctx, adj, nullptr, true);
    for (size_t k = 0; k < scene.cloud.size(); ++k) {
        EXPECT_TRUE(std::isfinite(back.grads.dPositions[k].norm()));
        EXPECT_TRUE(std::isfinite(back.grads.dLogScales[k].norm()));
        EXPECT_TRUE(std::isfinite(back.grads.dOpacityLogits[k]));
        EXPECT_TRUE(std::isfinite(back.grads.covGradNorms[k]));
    }
    EXPECT_TRUE(std::isfinite(back.poseGrad.norm()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RenderProperty,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u));

class SchedulingProperty : public ::testing::TestWithParam<u64>
{
  protected:
    hw::SubtileLoad
    randomSubtile(Rng &rng, u32 max_load) const
    {
        hw::SubtileLoad s;
        for (int i = 0; i < 16; ++i) {
            u16 it = static_cast<u16>(rng.uniformInt(max_load + 1));
            s.iterated.push_back(it);
            s.blended.push_back(static_cast<u16>(
                rng.uniformInt(static_cast<u64>(it) + 1)));
        }
        return s;
    }
};

TEST_P(SchedulingProperty, PairingDominatesUnpaired)
{
    // The WSU's heavy-light pairing never loses to adjacent pairing,
    // for any workload vector.
    Rng rng(GetParam());
    hw::RtgsAccelModel model;
    for (int trial = 0; trial < 50; ++trial) {
        hw::SubtileLoad s = randomSubtile(rng, 60);
        EXPECT_LE(model.subtileForwardCycles(s, true),
                  model.subtileForwardCycles(s, false) + 1e-9);
        EXPECT_LE(model.subtileBackwardCycles(s, true, true),
                  model.subtileBackwardCycles(s, false, true) + 1e-9);
    }
}

TEST_P(SchedulingProperty, RbBufferAlwaysHelps)
{
    Rng rng(GetParam() ^ 0x1234);
    hw::RtgsAccelModel model;
    for (int trial = 0; trial < 50; ++trial) {
        hw::SubtileLoad s = randomSubtile(rng, 60);
        EXPECT_LE(model.subtileBackwardCycles(s, true, true),
                  model.subtileBackwardCycles(s, true, false) + 1e-9);
    }
}

TEST_P(SchedulingProperty, PairCostLowerBound)
{
    // No schedule can beat the total-work bound: pair cost >= (a+b)/2.
    Rng rng(GetParam() ^ 0x777);
    hw::RtgsAccelModel model;
    hw::RtgsHwConfig cfg;
    double fill = cfg.alphaComputeCycles + cfg.alphaBlendCycles;
    for (int trial = 0; trial < 50; ++trial) {
        hw::SubtileLoad s = randomSubtile(rng, 40);
        double total = s.sumIterated();
        double bound = total / 16.0; // 8 pairs x 2 lanes
        EXPECT_GE(model.subtileForwardCycles(s, true) - fill,
                  bound - 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulingProperty,
                         ::testing::Values(1u, 2u, 3u));

class DownsampleProperty
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(DownsampleProperty, ScheduleIsMonotoneAndCapped)
{
    auto [m, min_area] = GetParam();
    core::DownsamplerConfig cfg;
    cfg.growthFactor = static_cast<Real>(m);
    cfg.minAreaScale = static_cast<Real>(min_area);
    cfg.maxAreaScale = Real(0.25);
    cfg.minWidthPixels = 0;
    core::DynamicDownsampler d(cfg);

    Real prev = 0;
    for (u32 n = 1; n <= 12; ++n) {
        Real area = d.areaScaleFor(n);
        EXPECT_GE(area, prev) << "schedule must be non-decreasing";
        EXPECT_GE(area, cfg.minAreaScale - 1e-7);
        EXPECT_LE(area, cfg.maxAreaScale + 1e-7);
        prev = area;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DownsampleProperty,
    ::testing::Combine(::testing::Values(1.5, 2.0, 3.0),
                       ::testing::Values(1.0 / 32, 1.0 / 16, 1.0 / 8)));

// ---------------------------------------------------------------- //
//                Work-stealing thread pool invariants              //
// ---------------------------------------------------------------- //

class StealQueueProperty : public ::testing::TestWithParam<u64>
{
};

TEST_P(StealQueueProperty, SingleThreadDequeueIsExactPushOrder)
{
    // The fairness-first discipline (thread_pool.hh): no matter how
    // owner pops and thief steals interleave, items leave the queue in
    // exactly push order — steal() must take the OLDEST, not the
    // newest, or weighted round-robin would not survive stealing.
    Rng rng(GetParam());
    WorkStealingQueue<int> queue;
    std::vector<int> out;
    int next = 0;
    for (int step = 0; step < 400; ++step) {
        switch (rng.uniformInt(3)) {
        case 0:
            queue.push(next++);
            break;
        case 1: {
            int got = -1;
            if (queue.pop(got))
                out.push_back(got);
            break;
        }
        default: {
            int got = -1;
            if (queue.steal(got))
                out.push_back(got);
            break;
        }
        }
    }
    for (int got = -1; queue.pop(got);)
        out.push_back(got);
    ASSERT_EQ(static_cast<size_t>(next), out.size()) << "lost items";
    for (int i = 0; i < next; ++i)
        ASSERT_EQ(i, out[i]) << "dequeue order diverged from push order";
    EXPECT_TRUE(queue.empty());
}

TEST_P(StealQueueProperty, ConcurrentConsumersNeverLoseOrDuplicate)
{
    // One owner (pushing and popping, as a pool worker does) and
    // two thieves race on the queue: every pushed item must come out
    // exactly once, and — because every dequeue takes the current
    // oldest — each consumer's local sequence is strictly increasing.
    constexpr int kItems = 500;
    WorkStealingQueue<int> queue;
    std::vector<int> owner_got, thief_got[2];
    u64 seed = GetParam();

    std::thread owner([&] {
        Rng rng(seed);
        int next = 0;
        while (next < kItems) {
            queue.push(next++);
            if (rng.uniformInt(3) == 0) {
                int got = -1;
                if (queue.pop(got))
                    owner_got.push_back(got);
            }
        }
    });
    std::thread thieves[2];
    std::atomic<bool> stop{false};
    for (int t = 0; t < 2; ++t) {
        thieves[t] = std::thread([&, t] {
            while (!stop.load(std::memory_order_relaxed)) {
                int got = -1;
                if (queue.steal(got))
                    thief_got[t].push_back(got);
                else
                    std::this_thread::yield();
            }
        });
    }
    owner.join();
    // Let the thieves drain whatever the owner left behind.
    while (!queue.empty())
        std::this_thread::yield();
    stop.store(true);
    thieves[0].join();
    thieves[1].join();

    std::vector<int> all;
    for (const auto *seq : {&owner_got, &thief_got[0], &thief_got[1]}) {
        for (size_t i = 1; i < seq->size(); ++i)
            ASSERT_LT((*seq)[i - 1], (*seq)[i])
                << "consumer saw items out of FIFO order";
        all.insert(all.end(), seq->begin(), seq->end());
    }
    std::sort(all.begin(), all.end());
    ASSERT_EQ(static_cast<size_t>(kItems), all.size())
        << "items lost or duplicated";
    for (int i = 0; i < kItems; ++i)
        ASSERT_EQ(i, all[static_cast<size_t>(i)]);
}

TEST_P(StealQueueProperty, PoolRunsEveryTaskExactlyOnce)
{
    // Randomised post()/postTo() mix against a live pool: no task is
    // lost or run twice regardless of how workers pop and steal.
    Rng rng(GetParam() ^ 0x5EED);
    ThreadPool pool(3);
    constexpr size_t kTasks = 200;
    std::vector<std::atomic<int>> runs(kTasks);
    for (auto &r : runs)
        r.store(0);
    for (size_t i = 0; i < kTasks; ++i) {
        auto task = [&runs, i] {
            runs[i].fetch_add(1, std::memory_order_relaxed);
        };
        if (rng.uniformInt(2) == 0)
            pool.post(task);
        else
            pool.postTo(rng.uniformInt(pool.size()), task);
    }
    pool.drain();
    for (size_t i = 0; i < kTasks; ++i)
        ASSERT_EQ(1, runs[i].load()) << "task " << i;
}

INSTANTIATE_TEST_SUITE_P(Seeds, StealQueueProperty,
                         ::testing::Values(1u, 7u, 42u, 1337u));

} // namespace rtgs
