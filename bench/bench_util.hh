/**
 * @file
 * Shared machinery for the benchmark harnesses: sequence runners that
 * collect hardware workload traces while SLAM executes, evaluation
 * helpers, and environment knobs.
 *
 * Every bench binary regenerates one of the paper's tables or figures.
 * Scaling: datasets default to RTGS_BENCH_SCALE (linear, default 0.15)
 * of the native resolutions and RTGS_BENCH_FRAMES frames (default 12);
 * the hardware models interpret traces at the native workload through
 * workloadScale = scale^2 (see EXPERIMENTS.md).
 */

#ifndef RTGS_BENCH_BENCH_UTIL_HH
#define RTGS_BENCH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "common/table.hh"
#include "core/rtgs_slam.hh"
#include "hw/system_model.hh"
#include "image/metrics.hh"
#include "slam/evaluation.hh"

namespace rtgs::bench
{

/** Linear dataset scale for bench runs (env RTGS_BENCH_SCALE). */
inline Real
benchScale()
{
    if (const char *s = std::getenv("RTGS_BENCH_SCALE"))
        return static_cast<Real>(std::atof(s));
    return Real(0.15);
}

/** Frames per sequence for bench runs (env RTGS_BENCH_FRAMES). */
inline u32
benchFrames()
{
    if (const char *s = std::getenv("RTGS_BENCH_FRAMES"))
        return static_cast<u32>(std::atoi(s));
    return 12;
}

/** Announce the active scaling so outputs are self-describing. */
inline void
printBenchHeader(const char *what)
{
    std::printf("== %s ==\n", what);
    std::printf("[scale %.2f of native resolution, %u frames/sequence; "
                "hardware models interpret traces at native workload]\n\n",
                static_cast<double>(benchScale()), benchFrames());
}

/** Trim a dataset spec to the bench budget. */
inline data::DatasetSpec
benchSpec(data::DatasetSpec spec)
{
    spec.trajectory.frameCount = benchFrames();
    // ~4-6 cm inter-frame motion, the regime of real 30 FPS captures.
    spec.trajectory.revolutions =
        Real(0.006) * static_cast<Real>(benchFrames());
    return spec;
}

/** Everything a bench needs from one SLAM run. */
struct RunOutcome
{
    std::vector<hw::FrameTrace> traces;
    std::vector<SE3> trajectory;
    std::vector<SE3> gt;
    double ateRmse = 0;
    double psnrDb = 0;
    size_t finalGaussians = 0;
    size_t peakBytes = 0;
    u64 fragments = 0; //!< total tracked fragments (workload proxy)
    double wallSeconds = 0;
    std::vector<core::RtgsFrameReport> reports;
};

/** Default bench iteration budget for a base algorithm profile. */
inline core::RtgsSlamConfig
benchConfig(slam::BaseAlgorithm algo)
{
    core::RtgsSlamConfig cfg;
    cfg.base = slam::SlamConfig::forAlgorithm(algo);
    cfg.base.tracker.iterations = 10;
    cfg.base.mapper.iterations = 12;
    cfg.base.kfInterval = 4;
    cfg.pruner.minGaussians = 64;
    cfg.downsampler.minWidthPixels = 48;
    return cfg;
}

/**
 * Run a full sequence, collecting per-frame hardware traces and
 * evaluation metrics.
 *
 * Trace-attribution caveat: with an async config (mapQueueDepth > 0)
 * the mapping trace sampled into a keyframe's FrameTrace is whatever
 * map iterations completed before that frame finished — possibly a
 * previous keyframe's batch, or none (the row's own batch may still
 * be queued). Benches that feed traces into hw::SystemModel should
 * use sync configs (all current ones do); the async fig15 ablation
 * only consumes reports/wall-clock, which are exact.
 */
inline RunOutcome
runSequence(data::SyntheticDataset &dataset,
            const core::RtgsSlamConfig &config)
{
    core::RtgsSlam rtgs(config, dataset.intrinsics());

    RunOutcome out;
    hw::IterationTrace last_track, last_map;
    bool have_track = false, have_map = false;
    // The map hook fires on a pool worker in async configurations;
    // guard the map-side trace fields against the frame loop's reads.
    std::mutex map_trace_mutex;
    u32 track_iters = 0;

    rtgs.setExternalTrackHook(
        [&](const slam::TrackIterationContext &ctx) {
            // trackingCloud(): the cloud this iteration rendered (the
            // per-frame COW clone — the authoritative cloud lags its
            // prunes and masks and may be mid-mutation on a map
            // worker).
            last_track = hw::IterationTrace::capture(
                *ctx.forward,
                rtgs.system().trackingCloud().activeCount());
            have_track = true;
            ++track_iters;
            out.fragments += ctx.forward->result.totalFragments();
        });
    rtgs.system().setMapIterationHook(
        [&](const slam::MapIterationContext &ctx) {
            hw::IterationTrace trace = hw::IterationTrace::capture(
                *ctx.forward, rtgs.system().cloud().activeCount());
            std::lock_guard<std::mutex> lock(map_trace_mutex);
            last_map = trace;
            have_map = true;
        });

    auto t0 = std::chrono::steady_clock::now();
    for (u32 f = 0; f < dataset.frameCount(); ++f) {
        track_iters = 0;
        auto report = rtgs.processFrame(dataset.frame(f));
        hw::FrameTrace ft;
        ft.isKeyframe = report.base.isKeyframe;
        ft.trackIterations = have_track ? track_iters : 0;
        if (have_track)
            ft.tracking = last_track;
        {
            std::lock_guard<std::mutex> lock(map_trace_mutex);
            ft.mapIterations =
                report.base.isKeyframe && have_map
                    ? config.base.mapper.iterations
                    : 0;
            if (have_map)
                ft.mapping = last_map;
        }
        out.traces.push_back(std::move(ft));
        out.gt.push_back(dataset.gtPose(f));
        have_track = false;
    }
    // Drain asynchronously enqueued mapping inside the timed region so
    // async configurations pay for their full pipeline.
    rtgs.finish();
    out.wallSeconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - t0).count();

    out.trajectory = rtgs.system().trajectory();
    out.ateRmse = slam::computeAte(out.trajectory, out.gt).rmse;
    u32 mid = dataset.frameCount() / 2;
    out.psnrDb = psnr(rtgs.system().renderView(dataset.gtPose(mid)),
                      dataset.frame(mid).rgb);
    out.finalGaussians = rtgs.system().cloud().size();
    out.peakBytes = rtgs.system().peakGaussianBytes();
    out.reports = rtgs.reports();
    return out;
}

/**
 * Open a bench's JSON result file for writing. Each bench has its own
 * override variable so exporting one does not make two benches clobber
 * a shared path. Returns null (with a message) on failure.
 */
inline std::FILE *
openBenchJson(const char *env_var, const char *default_path,
              std::string &path_out)
{
    const char *path = std::getenv(env_var);
    if (!path)
        path = default_path;
    path_out = path;
    std::FILE *out = std::fopen(path, "w");
    if (!out)
        std::fprintf(stderr, "cannot open %s\n", path);
    return out;
}

/** System model at the bench's workload scaling. */
inline hw::SystemModel
benchSystemModel(const hw::GpuSpec &gpu)
{
    double s = static_cast<double>(benchScale());
    return hw::SystemModel(gpu, s * s);
}

/**
 * Peak Gaussian memory in MB at this workload: parameters plus Adam
 * moments (2x) plus gradients (1x). Absolute values are far below the
 * paper's GB figures because the synthetic maps are proportionally
 * smaller; the *ratios between rows* are the reproduced quantity.
 */
inline double
runtimeMemoryMb(size_t param_bytes)
{
    return static_cast<double>(param_bytes) * 4.0 / 1e6;
}

} // namespace rtgs::bench

#endif // RTGS_BENCH_BENCH_UTIL_HH
