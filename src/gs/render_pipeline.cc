#include "gs/render_pipeline.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace rtgs::gs
{

namespace
{

/**
 * Preprocessing-BP block size: the pose twist is reduced over
 * fixed-size Gaussian blocks (not per-worker ranges), so the summation
 * order — and hence the result, bitwise — is independent of how many
 * threads ran the pass.
 */
constexpr size_t kPoseBlock = 256;

} // namespace

/**
 * Reusable backward-pass working memory. One arena is checked out per
 * backward() call, so concurrent calls (tracking overlapped with async
 * mapping) each get their own; steady-state iterations re-use the
 * buffers instead of re-allocating workers x cloud-size accumulators
 * every call.
 */
struct RenderPipeline::BackwardScratch
{
    std::vector<SplatGradRecord> records; //!< parallel to bins.indices
    std::vector<Twist> poseBlocks;        //!< per-block pose partials
};

/**
 * A deferred forward pass, run exactly once by whoever claims it first:
 * the pool worker that dequeues its task, or AsyncForward::take().
 */
struct AsyncForward::State
{
    const RenderPipeline *pipeline = nullptr;
    GaussianCloud cloud; //!< COW capture; released once the pass ran
    Camera camera;
    std::atomic<bool> claimed{false};

    /** Written by the claimant before it sets `done`. */
    ForwardContext context;
    std::exception_ptr error;

    Mutex mutex;
    std::condition_variable cv;
    bool done RTGS_GUARDED_BY(mutex) = false;

    /** Run the pass unless another thread already claimed it; true
     *  when this call ran it. */
    bool
    runIfUnclaimed()
    {
        if (claimed.exchange(true))
            return false;
        try {
            context = pipeline->forward(cloud, camera);
        } catch (...) {
            error = std::current_exception();
        }
        cloud = GaussianCloud();
        MutexLock lock(mutex);
        done = true;
        cv.notify_all();
        return true;
    }
};

ForwardContext
AsyncForward::take()
{
    State &s = *state_;
    if (!s.runIfUnclaimed()) {
        CvLock lock(s.mutex);
        while (!s.done)
            lock.wait(s.cv);
    }
    if (s.error)
        std::rethrow_exception(s.error);
    return std::move(s.context);
}

RenderPipeline::RenderPipeline(const RenderSettings &settings)
    : settings_(settings)
{
}

RenderPipeline::~RenderPipeline() = default;

RenderPipeline::RenderPipeline(const RenderPipeline &other)
    : settings_(other.settings_), pool_(other.pool_)
{
}

RenderPipeline &
RenderPipeline::operator=(const RenderPipeline &other)
{
    settings_ = other.settings_;
    pool_ = other.pool_;
    return *this;
}

std::unique_ptr<RenderPipeline::BackwardScratch>
RenderPipeline::acquireScratch() const
{
    {
        MutexLock lock(scratchMutex_);
        if (!scratchFree_.empty()) {
            auto scratch = std::move(scratchFree_.back());
            scratchFree_.pop_back();
            return scratch;
        }
    }
    return std::make_unique<BackwardScratch>();
}

void
RenderPipeline::releaseScratch(
    std::unique_ptr<BackwardScratch> scratch) const
{
    MutexLock lock(scratchMutex_);
    scratchFree_.push_back(std::move(scratch));
}

WorkloadSummary
ForwardContext::workload() const
{
    WorkloadSummary w;
    w.activeGaussians = projected.validCount();
    w.culledGaussians = projected.size() - w.activeGaussians;
    w.tileIntersections = bins.totalIntersections();
    w.fragmentsIterated = result.totalFragments();
    w.fragmentsBlended = result.totalBlended();
    w.imagePixels = static_cast<u64>(result.image.width()) *
                    result.image.height();
    return w;
}

ForwardContext
RenderPipeline::forward(const GaussianCloud &cloud,
                        const Camera &camera) const
{
    ForwardContext ctx;
    ctx.camera = camera;
    ctx.grid = TileGrid(camera.intr.width, camera.intr.height,
                        settings_.tileSize);
    ctx.projected = projectGaussians(cloud, camera, settings_, pool_);
    ctx.bins = intersectTiles(ctx.projected, ctx.grid, pool_);
    sortTilesByDepth(ctx.bins, ctx.projected, pool_);

    ctx.result = makeRenderResult(ctx.grid);
    parallelForChunks(
        pool_, 0, ctx.grid.tileCount(), [&](size_t lo, size_t hi) {
            for (size_t t = lo; t < hi; ++t)
                rasterizeTile(static_cast<u32>(t), ctx.projected,
                              ctx.bins, ctx.grid, settings_, ctx.result);
        });
    return ctx;
}

AsyncForward
RenderPipeline::forwardAsync(const GaussianCloud &cloud,
                             const Camera &camera) const
{
    auto state = std::make_shared<AsyncForward::State>();
    state->pipeline = this;
    state->cloud = cloud;
    state->camera = camera;
    // The task only races take() for the claim; a stale task that lost
    // it touches nothing but the shared state.
    if (pool_)
        pool_->post([state] { state->runIfUnclaimed(); });
    AsyncForward handle;
    handle.state_ = std::move(state);
    return handle;
}

void
RenderPipeline::backward(const GaussianCloud &cloud,
                         const ForwardContext &ctx,
                         const ImageRGB &dl_dcolor,
                         const ImageF *dl_ddepth, bool compute_pose_grad,
                         BackwardResult &out) const
{
    std::unique_ptr<BackwardScratch> scratch = acquireScratch();
    const size_t n = cloud.size();

    // Step 4, splat-major: every tile writes its slice of the flat
    // per-slot record buffer — disjoint ranges, no accumulator copies
    // per worker. parallelForChunks handles the degenerate shapes
    // (1 tile, tiles < workers) that hand-rolled chunk math got wrong.
    scratch->records.resize(ctx.bins.indices.size());
    parallelForChunks(
        pool_, 0, ctx.grid.tileCount(), [&](size_t lo, size_t hi) {
            for (size_t t = lo; t < hi; ++t)
                backwardTileSplatMajor(static_cast<u32>(t), ctx.projected,
                                       ctx.bins, ctx.grid, settings_,
                                       ctx.result, dl_dcolor, dl_ddepth,
                                       scratch->records.data());
        });

    // Per-Gaussian reduction in flat-buffer order: deterministic for
    // any thread count (the CPU stand-in for the GMU's conflict-free
    // gradient aggregation).
    out.grad2d.resize(n);
    gatherSplatGradients(ctx.bins, scratch->records, out.grad2d);

    // Step 5: embarrassingly parallel over Gaussians; the pose twist is
    // reduced over fixed-size blocks in block order so the result does
    // not depend on the worker count.
    out.grads.resize(n);
    const size_t nblocks = (n + kPoseBlock - 1) / kPoseBlock;
    scratch->poseBlocks.assign(nblocks, Twist{});
    parallelForChunks(pool_, 0, nblocks, [&](size_t blo, size_t bhi) {
        for (size_t b = blo; b < bhi; ++b) {
            size_t k0 = b * kPoseBlock;
            size_t k1 = std::min(n, k0 + kPoseBlock);
            Twist *pg =
                compute_pose_grad ? &scratch->poseBlocks[b] : nullptr;
            for (size_t k = k0; k < k1; ++k)
                preprocessBackwardOne(k, cloud, ctx.camera, out.grad2d,
                                      ctx.projected, out.grads, pg);
        }
    });
    Twist pose{};
    for (const Twist &p : scratch->poseBlocks)
        pose = pose + p;
    out.poseGrad = pose;

    releaseScratch(std::move(scratch));
}

BackwardResult
RenderPipeline::backward(const GaussianCloud &cloud,
                         const ForwardContext &ctx,
                         const ImageRGB &dl_dcolor,
                         const ImageF *dl_ddepth,
                         bool compute_pose_grad) const
{
    BackwardResult out;
    backward(cloud, ctx, dl_dcolor, dl_ddepth, compute_pose_grad, out);
    return out;
}

void
RenderPipeline::accumulateBackward(BackwardResult &sum,
                                   const BackwardResult &view) const
{
    const size_t n = sum.grads.size();
    rtgs_assert(view.grads.size() == n);
    rtgs_assert(sum.grad2d.size() == n && view.grad2d.size() == n);

    // Every Gaussian lane belongs to exactly one chunk and the views
    // arrive through serial calls, so the per-lane summation order is
    // fixed regardless of how chunks were scheduled across workers.
    // The lane lists live with the gradient structs (accumulateRange)
    // so a new lane cannot be missed here.
    parallelForChunks(pool_, 0, n, [&](size_t lo, size_t hi) {
        sum.grads.accumulateRange(view.grads, lo, hi);
        sum.grad2d.accumulateRange(view.grad2d, lo, hi);
    });
    sum.poseGrad = sum.poseGrad + view.poseGrad;
}

void
RenderPipeline::scaleBackward(BackwardResult &sum, Real s) const
{
    if (s == Real(1))
        return;
    parallelForChunks(pool_, 0, sum.grads.size(),
                      [&](size_t lo, size_t hi) {
        sum.grads.scaleRange(s, lo, hi);
        sum.grad2d.scaleRange(s, lo, hi);
    });
    for (int c = 0; c < 6; ++c)
        sum.poseGrad[c] *= s;
}

} // namespace rtgs::gs
