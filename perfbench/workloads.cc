#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>

#include <sched.h>

#include "core/rtgs_slam.hh"
#include "data/fault_injector.hh"
#include "gs/rasterizer.hh"
#include "gs/sorting.hh"
#include "gs/tiling.hh"
#include "image/metrics.hh"
#include "image/resize.hh"
#include "slam/evaluation.hh"
#include "slam/fleet_runtime.hh"
#include "slam/loss.hh"

#include "host.hh"
#include "stats.hh"
#include "trace.hh"

namespace perfbench
{

namespace
{

using namespace rtgs;

// ------------------------------------------------- workload definitions
//
// Every constant below is part of the workload definition: changing one
// changes what the benchmark measures, so it re-baselines every metric.

/** track_sync: TUM-like streams, one scene and trajectory each. Many
 *  short streams: ATE over the seed's pre-divergence frames is chaotic
 *  per stream, and pooling 16 streams steadies it. */
constexpr Real kTrackScale = Real(0.12);
constexpr u32 kTrackFrames = 40;
constexpr u32 kTrackStreams = 16;

/** map_async: Replica-like stream (2.3x the TUM-like scene's Gaussians,
 *  larger frames), every frame a keyframe. */
constexpr Real kMapScale = Real(0.08);
constexpr u32 kMapFrames = 24;
constexpr u32 kMapStreams = 5;

/** fleet_open: per-session offered rate and latency limit. The rate was
 *  calibrated once on the 4-vCPU reference host: a quarter of the rate
 *  at which the fleet starts refusing frames, so no frame is refused
 *  and queueing does not amplify the host's speed swings (README.md). */
constexpr Real kFleetScale = Real(0.08);
constexpr double kFleetRateHz = 3.0;
constexpr double kFleetDeadlineSeconds = 0.25;
constexpr size_t kFleetQueueDepth = 8;
/** A run plays the fleet this many times from a fresh start; latency
 *  percentiles are the median over rounds, which drops a round the
 *  shared host stalled. */
constexpr u32 kFleetRounds = 3;
/** Track-hook captures replayed per fleet session (every Nth frame). */
constexpr u32 kFleetReplayEvery = 4;

/** Frames a throwaway system processes during set-up (warm-up). */
constexpr u32 kWarmupFrames = 3;
/** Fixed ground-truth poses the final map is rendered at for PSNR. */
constexpr u32 kPsnrViews = 4;

u64
mixSeed(u64 seed, u64 salt)
{
    // splitmix64 finaliser over (seed, salt).
    u64 z = seed * 0x9E3779B97F4A7C15ull + salt * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/**
 * Stream `stream` of a workload: its own scene, trajectory and sensor
 * noise, fixed per stream index. None of them is drawn from the run's
 * seed: on the seed's diverging tracker every such change moves ATE and
 * the latency tail chaotically (README.md), past any regression bound.
 */
data::DatasetSpec
streamSpec(data::DatasetSpec spec, u32 frames, u64 stream)
{
    spec.trajectory.frameCount = frames;
    // ~4-6 cm inter-frame motion, the regime of real 30 FPS captures.
    spec.trajectory.revolutions = Real(0.006) * static_cast<Real>(frames);
    spec.scene.seed += stream;
    spec.trajectory.seed += stream;
    spec.noise.seed += stream;
    return spec;
}

/** The order a closed-loop run plays its streams in, drawn from the
 *  seed (Fisher-Yates over mixSeed, so it is the same on every
 *  platform). */
std::vector<u32>
playOrder(u32 streams, u64 seed)
{
    std::vector<u32> order(streams);
    for (u32 i = 0; i < streams; ++i)
        order[i] = i;
    for (u32 i = streams; i > 1; --i)
        std::swap(order[i - 1], order[mixSeed(seed, i) % i]);
    return order;
}

// ---------------------------------------------------- layer collection

/** Samples per layer source; aggregated into metrics at the end. */
class Layers
{
  public:
    void
    add(const std::string &source, double value)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        samples_[source].push_back(value);
    }

    std::vector<double>
    samples(const std::string &source) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = samples_.find(source);
        return it == samples_.end() ? std::vector<double>{} : it->second;
    }

    double
    sum(const std::string &source) const
    {
        double s = 0;
        for (double v : samples(source))
            s += v;
        return s;
    }

    double
    mean(const std::string &source) const
    {
        const auto v = samples(source);
        double s = 0;
        for (double x : v)
            s += x;
        return v.empty() ? 0 : s / static_cast<double>(v.size());
    }

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::vector<double>> samples_;
};

enum class Agg { P50, P90, Sum, Mean };

struct LayerMetricDef
{
    const char *name;
    const char *unit;
    const char *source;
    Agg agg;
};

/** Every per-layer metric, in output order. Times are milliseconds. */
const LayerMetricDef kLayerMetrics[] = {
    {"gs.project_ms_p50", "ms", "gs.project", Agg::P50},
    {"gs.project_ms_total", "ms", "gs.project", Agg::Sum},
    {"gs.bin_ms_p50", "ms", "gs.bin", Agg::P50},
    {"gs.bin_ms_total", "ms", "gs.bin", Agg::Sum},
    {"gs.sort_ms_p50", "ms", "gs.sort", Agg::P50},
    {"gs.sort_ms_total", "ms", "gs.sort", Agg::Sum},
    {"gs.raster_ms_p50", "ms", "gs.raster", Agg::P50},
    {"gs.raster_ms_total", "ms", "gs.raster", Agg::Sum},
    {"gs.backward_ms_p50", "ms", "gs.backward", Agg::P50},
    {"gs.backward_ms_total", "ms", "gs.backward", Agg::Sum},
    {"gs.replays", "count", "gs.replays", Agg::Sum},
    {"gs.active_gaussians", "count", "gs.active_gaussians", Agg::Mean},
    {"gs.tile_intersections", "count", "gs.tile_intersections", Agg::Mean},
    {"gs.fragments_iterated", "count", "gs.fragments_iterated", Agg::Mean},
    {"gs.fragments_blended", "count", "gs.fragments_blended", Agg::Mean},
    {"gs.blend_ratio", "ratio", "gs.blend_ratio", Agg::Sum},
    {"gs.pixels", "count", "gs.pixels", Agg::Mean},
    {"slam.process_frame_ms_p50", "ms", "slam.process_frame", Agg::P50},
    {"slam.process_frame_ms_total", "ms", "slam.process_frame", Agg::Sum},
    {"slam.track_ms_total", "ms", "slam.track", Agg::Sum},
    {"slam.map_ms_total", "ms", "slam.map", Agg::Sum},
    {"slam.unattributed_ms_total", "ms", "slam.unattributed", Agg::Sum},
    {"slam.track_iter_ms_p50", "ms", "slam.track_iter", Agg::P50},
    {"slam.track_iterations", "count", "slam.track_iterations", Agg::Sum},
    {"slam.keyframes", "count", "slam.keyframes", Agg::Sum},
    {"slam.densified", "count", "slam.densified", Agg::Sum},
    {"slam.snapshot_publish_ms_total", "ms", "slam.snapshot_publish",
     Agg::Sum},
    {"slam.drain_ms_total", "ms", "slam.drain", Agg::Sum},
    {"slam.snapshot_stale_frames_mean", "frames", "slam.snapshot_stale",
     Agg::Mean},
    {"slam.map_batch_jobs_mean", "count", "slam.map_batch_jobs", Agg::Mean},
    {"slam.map_jobs_dropped", "count", "slam.map_jobs_dropped", Agg::Sum},
    {"slam.watchdog_trips", "count", "slam.watchdog_trips", Agg::Sum},
    {"slam.health.rejected_inputs", "count", "slam.health.rejected_inputs",
     Agg::Sum},
    {"slam.health.held_poses", "count", "slam.health.held_poses", Agg::Sum},
    {"slam.health.frames_lost", "count", "slam.health.frames_lost",
     Agg::Sum},
    {"slam.reloc.attempts", "count", "slam.reloc.attempts", Agg::Sum},
    {"slam.reloc.candidates_scored", "count", "slam.reloc.candidates_scored",
     Agg::Sum},
    {"slam.reloc.accepted", "count", "slam.reloc.accepted", Agg::Sum},
    {"slam.reloc_ms_total", "ms", "slam.reloc", Agg::Sum},
    {"core.gate_skipped_iters", "count", "core.gate_skipped_iters",
     Agg::Sum},
    {"core.gate_budget_scale_mean", "ratio", "core.gate_budget_scale",
     Agg::Mean},
    {"core.tracking_scale_mean", "ratio", "core.tracking_scale", Agg::Mean},
    {"core.pruned_total", "count", "core.pruned", Agg::Sum},
    {"core.gate_evaluate_ms_total", "ms", "core.gate_evaluate", Agg::Sum},
    {"fleet.queue_wait_ms_p50", "ms", "fleet.queue_wait", Agg::P50},
    {"fleet.queue_wait_ms_p90", "ms", "fleet.queue_wait", Agg::P90},
    {"fleet.service_ms_p50", "ms", "fleet.service", Agg::P50},
    {"loadgen.lag_ms_p90", "ms", "loadgen.lag", Agg::P90},
    {"fleet.turns", "count", "fleet.turns", Agg::Sum},
    {"fleet.steals", "count", "fleet.steals", Agg::Sum},
    {"fleet.refused", "count", "fleet.refused", Agg::Sum},
    {"fleet.dropped", "count", "fleet.dropped", Agg::Sum},
    {"data.frame_synth_ms", "ms", "data.frame_synth", Agg::Mean},
    {"data.faults.dropped", "count", "data.faults.dropped", Agg::Sum},
    {"data.faults.timestamp", "count", "data.faults.timestamp", Agg::Sum},
    {"data.faults.corrupted", "count", "data.faults.corrupted", Agg::Sum},
    {"data.faults.exposure", "count", "data.faults.exposure", Agg::Sum},
    {"data.faults.occluded", "count", "data.faults.occluded", Agg::Sum},
    {"trace.spans", "count", "trace.spans", Agg::Sum},
    {"trace.hook_ms_total", "ms", "trace.hook", Agg::Sum},
    {"trace.overhead_frac", "ratio", "trace.overhead_frac", Agg::Sum},
};

std::vector<Metric>
aggregateLayers(const Layers &layers)
{
    std::vector<Metric> out;
    for (const LayerMetricDef &def : kLayerMetrics) {
        double v = 0;
        switch (def.agg) {
          case Agg::P50:
            v = percentile(layers.samples(def.source), 50);
            break;
          case Agg::P90:
            v = percentile(layers.samples(def.source), 90);
            break;
          case Agg::Sum:
            v = layers.sum(def.source);
            break;
          case Agg::Mean:
            v = layers.mean(def.source);
            break;
        }
        out.push_back({def.name, def.unit, v});
    }
    return out;
}

void
addWorkload(Layers &layers, const gs::WorkloadSummary &w)
{
    layers.add("gs.active_gaussians", static_cast<double>(w.activeGaussians));
    layers.add("gs.tile_intersections",
               static_cast<double>(w.tileIntersections));
    layers.add("gs.fragments_iterated",
               static_cast<double>(w.fragmentsIterated));
    layers.add("gs.fragments_blended",
               static_cast<double>(w.fragmentsBlended));
    layers.add("gs.pixels", static_cast<double>(w.imagePixels));
}

// --------------------------------------------------------- gs replay

/** Inputs of one captured render iteration (cloud held copy-on-write). */
struct ReplayInput
{
    gs::GaussianCloud cloud;
    Camera camera;
    ImageRGB rgb; //!< observation (any resolution; resized on replay)
    ImageF depth;
    slam::LossConfig loss;
    bool poseGrad = false;
    std::string request;
    u32 lane = 0;
};

/**
 * Re-run one captured iteration stage by stage through the public gs
 * functions, timing each: project -> bin -> sort -> rasterize -> (loss)
 * -> RenderPipeline::backward. Runs outside processFrame, so it never
 * perturbs the timed frame loop.
 */
void
replayIteration(const ReplayInput &in, const gs::RenderSettings &settings,
                Layers &layers, SpanLog &spans)
{
    const u32 w = in.camera.intr.width, h = in.camera.intr.height;
    ImageRGB rgb = in.rgb;
    ImageF depth = in.depth;
    if (rgb.width() != w || rgb.height() != h) {
        rgb = resizeBox(in.rgb, w, h);
        depth = resizeNearest(in.depth, w, h);
    }
    gs::RenderPipeline pipeline(settings);
    const int64_t root =
        spans.open("gs.replay", nowSeconds(), -1, in.request, in.lane);
    auto stage = [&](const char *name, double t0, double t1) {
        spans.add({name, t0, t1, root, in.request, in.lane});
        layers.add(name, (t1 - t0) * 1e3);
    };

    gs::ForwardContext ctx;
    ctx.camera = in.camera;
    ctx.grid = gs::TileGrid(w, h, settings.tileSize);
    double t0 = nowSeconds();
    ctx.projected = gs::projectGaussians(in.cloud, in.camera, settings);
    double t1 = nowSeconds();
    stage("gs.project", t0, t1);
    ctx.bins = gs::intersectTiles(ctx.projected, ctx.grid);
    double t2 = nowSeconds();
    stage("gs.bin", t1, t2);
    gs::sortTilesByDepth(ctx.bins, ctx.projected);
    double t3 = nowSeconds();
    stage("gs.sort", t2, t3);
    ctx.result = gs::rasterize(ctx.projected, ctx.bins, ctx.grid, settings);
    double t4 = nowSeconds();
    stage("gs.raster", t3, t4);
    slam::LossResult loss = slam::computeLoss(
        ctx.result, rgb, in.loss.useDepth ? &depth : nullptr, in.loss);
    double t5 = nowSeconds();
    spans.add({"gs.loss", t4, t5, root, in.request, in.lane});
    gs::BackwardResult back;
    pipeline.backward(in.cloud, ctx, loss.dlDColor,
                      in.loss.useDepth ? &loss.dlDDepth : nullptr,
                      in.poseGrad, back);
    double t6 = nowSeconds();
    stage("gs.backward", t5, t6);
    spans.close(root, t6);
    layers.add("gs.replays", 1);
}

bool
samePose(const SE3 &a, const SE3 &b)
{
    return std::memcmp(&a.rot, &b.rot, sizeof(a.rot)) == 0 &&
           std::memcmp(&a.trans, &b.trans, sizeof(a.trans)) == 0;
}

/**
 * Map-hook capture: the cloud, camera and the window keyframe the
 * iteration rendered. Must run inside the map hook (under the system's
 * state lock, where cloud() and mapper() are legal to read).
 */
std::optional<ReplayInput>
captureMapIteration(slam::SlamSystem &sys,
                    const slam::MapIterationContext &ctx, u32 session)
{
    for (const slam::KeyframeRecord &kf : sys.mapper().window()) {
        if (!samePose(kf.pose, ctx.forward->camera.pose))
            continue;
        ReplayInput in;
        in.cloud = sys.cloud();
        in.camera = ctx.forward->camera;
        in.rgb = kf.rgb;
        in.depth = kf.depth;
        in.loss = sys.config().mapper.loss;
        in.request = requestId(session, kf.frameIndex);
        return in;
    }
    return std::nullopt;
}

// ------------------------------------------------------ report layers

/** Per-layer samples every frame report carries. */
void
addReportLayers(Layers &layers, const slam::FrameReport &r,
                double process_frame_seconds)
{
    const double map_inline = r.mappedAsync ? 0 : r.mapSeconds;
    layers.add("slam.track", r.trackSeconds * 1e3);
    layers.add("slam.map", r.mapSeconds * 1e3);
    if (process_frame_seconds >= 0) {
        layers.add("slam.process_frame", process_frame_seconds * 1e3);
        layers.add("slam.unattributed",
                   (process_frame_seconds - r.trackSeconds - map_inline) *
                       1e3);
    }
    layers.add("slam.track_iterations", r.trackIterations);
    layers.add("slam.keyframes", r.isKeyframe ? 1 : 0);
    layers.add("slam.densified", static_cast<double>(r.densified));
    layers.add("slam.snapshot_publish", r.snapshotPublishSeconds * 1e3);
    if (r.snapshotGeneration > 0)
        layers.add("slam.snapshot_stale", r.snapshotStaleFrames);
    if (r.isKeyframe && r.mappedAsync && !r.mapJobDropped)
        layers.add("slam.map_batch_jobs", r.mapBatchJobs);
    layers.add("slam.health.rejected_inputs", r.inputRejected ? 1 : 0);
    layers.add("slam.health.held_poses", r.poseHeld ? 1 : 0);
    layers.add("slam.reloc.attempts", r.relocAttempts);
    layers.add("slam.reloc.candidates_scored", r.relocCandidatesScored);
    layers.add("slam.reloc.accepted", r.relocAccepted ? 1 : 0);
}

/** Per-system totals read once the system has quiesced. */
void
addSystemLayers(Layers &layers, slam::SlamSystem &sys)
{
    layers.add("slam.map_jobs_dropped",
               static_cast<double>(sys.mapJobsDropped()));
    layers.add("slam.watchdog_trips",
               static_cast<double>(sys.mapWatchdogTrips()));
    layers.add("slam.reloc", sys.profiler().seconds("relocalize") * 1e3);
    const auto &reports = sys.reports();
    layers.add("slam.health.frames_lost",
               reports.empty() ? 0 : reports.back().framesLost);
}

// ------------------------------------------------------------ quality

/** Map and trajectory quality over a run's streams. */
struct Quality
{
    std::vector<double> ateCm; //!< per stream
    double psnrSum = 0;
    size_t psnrViews = 0;
    double gaussiansSum = 0;
    size_t maps = 0;

    /**
     * Add one stream: ATE RMSE over the frames whose poses are valid
     * rigid transforms (invalid poses are excluded, so the figure is
     * never NaN; a stream with none scores 0), and PSNR of the final map
     * rendered at kPsnrViews fixed ground-truth poses against the
     * stream's observations there.
     */
    void
    add(slam::SlamSystem &sys, data::SyntheticDataset &ds)
    {
        std::vector<SE3> est, gt;
        for (const slam::FrameReport &r : sys.reports()) {
            if (!validPose(r.pose))
                continue;
            est.push_back(r.pose);
            gt.push_back(ds.gtPose(r.frameIndex));
        }
        ateCm.push_back(est.empty() ? 0
                                    : slam::computeAte(est, gt).rmse * 100);
        const u32 n = ds.frameCount();
        for (u32 v = 0; v < kPsnrViews; ++v) {
            const u32 f = v * n / kPsnrViews;
            psnrSum += psnr(sys.renderView(ds.gtPose(f)), ds.frame(f).rgb);
            ++psnrViews;
        }
        gaussiansSum += static_cast<double>(sys.cloud().size());
        ++maps;
    }

    void
    push(RunResult &out) const
    {
        // The median: on the seed a stream's ATE over its few
        // pre-divergence frames jumps between modes (e.g. 12 vs 24 cm
        // for one scene under different noise draws), and a pooled RMSE
        // follows the worst stream.
        out.endToEnd.push_back({"ate_rmse_cm", "cm", median(ateCm)});
        out.endToEnd.push_back(
            {"psnr_db", "dB", psnrViews ? psnrSum / psnrViews : 0});
        out.endToEnd.push_back(
            {"map_gaussians", "count", maps ? gaussiansSum / maps : 0});
    }
};

u64
outputHash(const slam::SlamSystem &sys)
{
    u64 hash = kFnvBasis;
    for (const SE3 &pose : sys.trajectory()) {
        hash = fnv1a(&pose.rot, sizeof(pose.rot), hash);
        hash = fnv1a(&pose.trans, sizeof(pose.trans), hash);
    }
    const gs::GaussianCloud &cloud = sys.cloud();
    auto mix = [&hash](const auto &column) {
        using T = typename std::decay_t<decltype(column)>::value_type;
        if (column.size())
            hash = fnv1a(column.data(), column.size() * sizeof(T), hash);
    };
    mix(cloud.positions);
    mix(cloud.logScales);
    mix(cloud.rotations);
    mix(cloud.opacityLogits);
    mix(cloud.shCoeffs);
    mix(cloud.active);
    return hash;
}

/** Synthesize and pre-render every frame of a stream. */
void
prerender(data::SyntheticDataset &ds, Layers &layers)
{
    const double t0 = nowSeconds();
    for (u32 f = 0; f < ds.frameCount(); ++f)
        ds.frame(f);
    layers.add("data.frame_synth", (nowSeconds() - t0) * 1e3 / ds.frameCount());
}

std::string
fmtInfo(const char *key, double v)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "\"%s\": %.17g", key, v);
    return buf;
}

std::string
fmtInfo(const char *key, const std::string &v)
{
    return "\"" + std::string(key) + "\": \"" + v + "\"";
}

/**
 * Latency and failure metrics. `rounds` holds each round's latency
 * samples; a percentile is the median of the rounds' percentiles, and
 * every round must support p90 on its own.
 */
void
pushLatencyMetrics(RunResult &out, const FrameAccounting &acc,
                   const std::vector<std::vector<double>> &rounds)
{
    std::vector<double> p50, p90;
    size_t n = acc.latenciesSeconds.size();
    for (const std::vector<double> &lat : rounds) {
        n = std::min(n, lat.size());
        p50.push_back(percentile(lat, 50) * 1e3);
        p90.push_back(percentile(lat, 90) * 1e3);
    }
    if (!percentileSupported(n, 90))
        out.errors.push_back("only " + std::to_string(n) +
                             " latency samples; p90 needs >= 100");
    out.endToEnd.push_back({"latency_p50_ms", "ms", median(p50)});
    out.endToEnd.push_back({"latency_p90_ms", "ms", median(p90)});
    out.endToEnd.push_back(
        {"deadline_miss_frac", "ratio", acc.deadlineMissFraction()});
    out.endToEnd.push_back(
        {"frames_failed_frac", "ratio", acc.failedFraction()});
    out.info.push_back(fmtInfo("latency_samples", static_cast<double>(n)));
    out.info.push_back(fmtInfo("latency_rounds", rounds.size()));
    out.info.push_back(
        fmtInfo("highest_supported_percentile", highestSupportedPercentile(n)));
    out.attempted = acc.offered;
    out.failed = acc.notCompleted;
}

/**
 * Close a traced run: tracing overhead (hook time over the frame time it
 * was spent in), derived ratios, the Chrome trace file, and the
 * per-layer metrics.
 */
void
finishTrace(const RunOptions &opt, Layers &layers, const SpanLog &spans,
            double hook_seconds, double frame_seconds, RunResult &out)
{
    layers.add("trace.hook", hook_seconds * 1e3);
    layers.add("trace.overhead_frac",
               frame_seconds > 0 ? hook_seconds / frame_seconds : 0);
    layers.add("trace.spans", static_cast<double>(spans.size()));
    const double it = layers.sum("gs.fragments_iterated");
    layers.add("gs.blend_ratio",
               it > 0 ? layers.sum("gs.fragments_blended") / it : 0);
    if (!opt.tracePath.empty() && !spans.writeChromeJson(opt.tracePath))
        out.errors.push_back("cannot write trace " + opt.tracePath);
    out.perLayer = aggregateLayers(layers);
}

// -------------------------------------------------- closed-loop runner

struct ClosedLoopSpec
{
    data::DatasetSpec preset;
    u32 frames = 0;
    u32 streamCount = 0;
    core::RtgsSlamConfig config;
    /** Sync mode is bitwise deterministic: repeated episodes of one
     *  stream must hash identically. */
    bool checkHash = false;
};

/** Hook-side state of one traced closed-loop episode. */
struct TraceFrame
{
    int64_t frameSpan = -1;
    std::string request;
    double lastMark = 0;
    bool firstIteration = true;
    std::optional<ReplayInput> trackCapture;
    gs::WorkloadSummary lastWorkload;
    bool haveLastWorkload = false;
    double hookSeconds = 0; //!< track hook (frame-loop thread)
    std::mutex mapMutex; //!< guards the map-hook fields (may be async)
    std::optional<ReplayInput> mapCapture;
    double mapHookSeconds = 0;
};

RunResult
runClosedLoop(const RunOptions &opt, const ClosedLoopSpec &spec)
{
    RunResult out;
    Layers layers;
    SpanLog spans;
    FrameAccounting acc;
    const double deadline = 1.0 / static_cast<double>(spec.preset.fps);

    // ---- set-up, once per stream: synthesis, pre-render, construction
    // and warm-up of a throwaway system.
    std::vector<std::unique_ptr<data::SyntheticDataset>> streams;
    std::vector<double> setup_seconds;
    for (u32 v = 0; v < spec.streamCount; ++v) {
        const double s0 = nowSeconds();
        streams.push_back(std::make_unique<data::SyntheticDataset>(
            streamSpec(spec.preset, spec.frames, v)));
        prerender(*streams.back(), layers);
        core::RtgsSlam warm(spec.config, streams.back()->intrinsics());
        for (u32 f = 0; f < kWarmupFrames; ++f)
            warm.processFrame(streams.back()->frame(f));
        warm.finish();
        setup_seconds.push_back(nowSeconds() - s0);
    }

    Quality quality;
    std::vector<u64> hashes(spec.streamCount, 0);
    std::vector<double> stream_seconds(spec.streamCount, 0);
    std::vector<u32> stream_plays(spec.streamCount, 0);
    double timed_seconds = 0;
    double hook_seconds = 0, process_seconds = 0;
    u32 episodes = 0;
    // Every stream once, plus one repeat for the determinism check.
    const u32 min_episodes = spec.streamCount + (spec.checkHash ? 1 : 0);
    const std::vector<u32> order = playOrder(spec.streamCount, opt.seed);

    do {
        const u32 v = order[episodes % spec.streamCount];
        const bool first_play = stream_plays[v] == 0;
        data::SyntheticDataset &ds = *streams[v];

        // Declared before the system: its hooks point here.
        TraceFrame tf;
        core::RtgsSlam rtgs(spec.config, ds.intrinsics());
        slam::SlamSystem &sys = rtgs.system();

        // ---- traced-run hooks (absent from timed runs).
        std::optional<core::SimilarityGate> shadow_gate;
        const u32 episode = episodes;
        if (opt.trace) {
            if (spec.config.gate.enabled)
                shadow_gate.emplace(spec.config.gate);
            rtgs.setExternalTrackHook(
                [&](const slam::TrackIterationContext &ctx) {
                    const double t = nowSeconds();
                    spans.add({tf.firstIteration ? "slam.pre_track"
                                                 : "slam.track_iter",
                               tf.lastMark, t, tf.frameSpan, tf.request, 0});
                    if (!tf.firstIteration)
                        layers.add("slam.track_iter", (t - tf.lastMark) * 1e3);
                    tf.firstIteration = false;
                    tf.lastWorkload = ctx.forward->workload();
                    tf.haveLastWorkload = true;
                    addWorkload(layers, tf.lastWorkload);
                    if (!tf.trackCapture) {
                        ReplayInput in;
                        in.cloud = sys.trackingCloud();
                        in.camera = ctx.forward->camera;
                        in.loss = spec.config.base.tracker.loss;
                        in.poseGrad = true;
                        in.request = tf.request;
                        tf.trackCapture = std::move(in);
                    }
                    const double t_end = nowSeconds();
                    tf.hookSeconds += t_end - t;
                    tf.lastMark = t_end;
                });
            sys.setMapIterationHook(
                [&](const slam::MapIterationContext &ctx) {
                    const double t = nowSeconds();
                    addWorkload(layers, ctx.forward->workload());
                    std::lock_guard<std::mutex> lock(tf.mapMutex);
                    if (!tf.mapCapture)
                        tf.mapCapture = captureMapIteration(sys, ctx, episode);
                    tf.mapHookSeconds += nowSeconds() - t;
                });
        }

        // ---- timed episode.
        std::vector<double> service(spec.frames);
        double replay_seconds = 0;
        const double e0 = nowSeconds();
        for (u32 f = 0; f < spec.frames; ++f) {
            const data::Frame &frame = ds.frame(f);
            if (opt.trace) {
                tf.request = requestId(episodes, f);
                tf.firstIteration = true;
            }
            const double a = nowSeconds();
            if (opt.trace) {
                tf.frameSpan =
                    spans.open("slam.process_frame", a, -1, tf.request, 0);
                tf.lastMark = a;
            }
            rtgs.processFrame(frame);
            const double b = nowSeconds();
            service[f] = b - a;
            if (opt.trace) {
                spans.add({"slam.post_track", tf.lastMark, b, tf.frameSpan,
                           tf.request, 0});
                spans.close(tf.frameSpan, b);
                // Replays run between frames, outside the timed calls.
                const double r0 = nowSeconds();
                if (tf.trackCapture) {
                    tf.trackCapture->rgb = frame.rgb;
                    tf.trackCapture->depth = frame.depth;
                    replayIteration(*tf.trackCapture,
                                    sys.renderPipeline().settings(), layers,
                                    spans);
                    tf.trackCapture.reset();
                }
                std::optional<ReplayInput> map_capture;
                {
                    std::lock_guard<std::mutex> lock(tf.mapMutex);
                    map_capture.swap(tf.mapCapture);
                }
                if (map_capture)
                    replayIteration(*map_capture,
                                    sys.renderPipeline().settings(), layers,
                                    spans);
                if (shadow_gate) {
                    const double g0 = nowSeconds();
                    shadow_gate->evaluate(
                        frame.rgb,
                        tf.haveLastWorkload ? &tf.lastWorkload : nullptr);
                    layers.add("core.gate_evaluate",
                               (nowSeconds() - g0) * 1e3);
                }
                replay_seconds += nowSeconds() - r0;
            }
        }
        const double d0 = nowSeconds();
        rtgs.finish();
        const double e1 = nowSeconds();
        if (opt.trace)
            spans.add({"slam.finish", d0, e1, -1,
                       requestId(episodes, spec.frames), 0});
        layers.add("slam.drain", (e1 - d0) * 1e3);
        // The replays ran between frames; keep them out of the wall time.
        const double episode_seconds = e1 - e0 - replay_seconds;
        timed_seconds += episode_seconds;
        stream_seconds[v] += episode_seconds;
        ++stream_plays[v];
        // finish() quiesced the map worker; its hook fields are settled.
        hook_seconds += tf.hookSeconds + tf.mapHookSeconds;

        // ---- accounting and checks (untimed).
        const auto &reports = rtgs.reports();
        if (reports.size() != spec.frames) {
            out.errors.push_back("episode produced " +
                                 std::to_string(reports.size()) +
                                 " reports for " +
                                 std::to_string(spec.frames) + " frames");
        }
        for (size_t f = 0; f < reports.size(); ++f) {
            const core::RtgsFrameReport &r = reports[f];
            FrameOutcome o;
            o.completed = true;
            o.validPose = validPose(r.base.pose);
            o.latencySeconds = service[f];
            acc.add(o, deadline);
            process_seconds += service[f];
            addReportLayers(layers, r.base, service[f]);
            layers.add("core.gate_skipped_iters", r.gatedTrackIterations);
            layers.add("core.gate_budget_scale", r.gate.budgetScale);
            layers.add("core.tracking_scale", r.trackingScale);
        }
        layers.add("core.pruned",
                   static_cast<double>(rtgs.pruner().stats().prunedTotal));
        addSystemLayers(layers, sys);

        if (first_play)
            quality.add(sys, ds);
        if (spec.checkHash) {
            const u64 h = outputHash(sys);
            if (first_play)
                hashes[v] = h;
            else if (h != hashes[v])
                out.errors.push_back("stream " + std::to_string(v) +
                                     " is not deterministic across episodes");
        }
        ++episodes;
    } while (episodes < min_episodes || timed_seconds < opt.seconds);

    // Frames over time with every stream weighted equally, so a partly
    // repeated last cycle does not tilt the figure toward its streams.
    double cycle_seconds = 0;
    for (u32 v = 0; v < spec.streamCount; ++v)
        cycle_seconds += stream_seconds[v] / stream_plays[v];

    out.endToEnd.push_back({"setup_s", "s", median(setup_seconds)});
    out.endToEnd.push_back(
        {"fps", "1/s",
         static_cast<double>(spec.frames) * spec.streamCount / cycle_seconds});
    pushLatencyMetrics(out, acc, {acc.latenciesSeconds});
    quality.push(out);
    out.endToEnd.push_back({"peak_rss_mb", "MB", peakRssMb()});

    if (spec.checkHash) {
        u64 combined = kFnvBasis;
        for (u64 h : hashes)
            combined = fnv1a(&h, sizeof(h), combined);
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(combined));
        out.info.push_back(fmtInfo("output_hash", std::string(buf)));
    }
    out.info.push_back(fmtInfo("episodes", episodes));
    out.info.push_back(fmtInfo("streams", spec.streamCount));
    out.info.push_back(fmtInfo("deadline_ms", deadline * 1e3));

    if (opt.trace)
        finishTrace(opt, layers, spans, hook_seconds, process_seconds, out);
    return out;
}

RunResult
runTrackSync(const RunOptions &opt)
{
    ClosedLoopSpec spec;
    spec.preset = data::DatasetSpec::tumLike(kTrackScale);
    spec.frames = kTrackFrames;
    spec.streamCount = kTrackStreams;
    spec.config.base =
        slam::SlamConfig::forAlgorithm(slam::BaseAlgorithm::MonoGs);
    spec.config.enablePruning = true;
    spec.config.enableDownsampling = true;
    spec.config.gate.enabled = true;
    spec.checkHash = true;
    return runClosedLoop(opt, spec);
}

RunResult
runMapAsync(const RunOptions &opt)
{
    ClosedLoopSpec spec;
    spec.preset = data::DatasetSpec::replicaLike(kMapScale);
    spec.frames = kMapFrames;
    spec.streamCount = kMapStreams;
    spec.config.base =
        slam::SlamConfig::forAlgorithm(slam::BaseAlgorithm::SplaTam);
    spec.config.base.mapQueueDepth = 2;
    spec.config.base.mapBatchSize = 2;
    spec.config.base.multiViewWindow = 2;
    spec.config.enablePruning = false;
    spec.config.enableDownsampling = false;
    spec.config.gate.enabled = false;
    return runClosedLoop(opt, spec);
}

// --------------------------------------------------- open-loop fleet

enum class SessionKind { GsSlam, PhotoSlam, MonoGsAsync, MonoGsHealthFaults };

const char *
kindName(SessionKind k)
{
    switch (k) {
      case SessionKind::GsSlam: return "gs_slam";
      case SessionKind::PhotoSlam: return "photo_slam";
      case SessionKind::MonoGsAsync: return "monogs_async";
      case SessionKind::MonoGsHealthFaults: return "monogs_health_faults";
    }
    return "?";
}

slam::SlamConfig
sessionConfig(SessionKind kind)
{
    switch (kind) {
      case SessionKind::GsSlam:
        return slam::SlamConfig::forAlgorithm(slam::BaseAlgorithm::GsSlam);
      case SessionKind::PhotoSlam:
        return slam::SlamConfig::forAlgorithm(
            slam::BaseAlgorithm::PhotoSlam);
      case SessionKind::MonoGsAsync: {
        auto cfg =
            slam::SlamConfig::forAlgorithm(slam::BaseAlgorithm::MonoGs);
        cfg.mapQueueDepth = 2;
        return cfg;
      }
      case SessionKind::MonoGsHealthFaults: {
        auto cfg =
            slam::SlamConfig::forAlgorithm(slam::BaseAlgorithm::MonoGs);
        cfg.health.enabled = true;
        cfg.reloc.enabled = true;
        return cfg;
      }
    }
    return {};
}

data::FaultSchedule
faultSchedule(u64 seed, u32 frames)
{
    data::FaultSchedule s;
    s.seed = seed;
    s.dropProbability = Real(0.03);
    s.corruptionProbability = Real(0.05);
    s.corruptionNanFraction = Real(0.02);
    s.exposureShiftProbability = Real(0.05);
    s.occluderStart = frames / 3;
    s.occluderLength = std::min<u32>(12, frames / 4);
    return s;
}

/** One session's stream, generated in set-up. */
struct SessionStream
{
    SessionKind kind = SessionKind::GsSlam;
    std::unique_ptr<data::SyntheticDataset> dataset;
    /** Frames the sensor delivered (fault drops removed). */
    std::vector<data::Frame> delivered;
    double phaseSeconds = 0;
    slam::FleetRuntime::SessionId id = 0;
    // Generator-side record, parallel to `delivered`.
    std::vector<u32> frameIndex;
    std::vector<double> due, sent;
    std::vector<bool> accepted;
};

/** Hook-side state of one fleet session in the traced run. */
struct FleetTrace
{
    std::mutex mutex;
    double lastMark = -1;
    u32 frames = 0;
    /** Sampled track-iteration inputs, keyed by the session's
     *  processed-frame ordinal (resolved to a frame after the run). */
    std::vector<std::pair<size_t, ReplayInput>> captures;
    double hookSeconds = 0;
};

/** One executor worker per CPU this process may run on (like `nproc`,
 *  this honours the affinity mask, so a pinned run gets one worker). */
size_t
fleetWorkers()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
        return std::max(1u, std::thread::hardware_concurrency());
    return std::max(1, CPU_COUNT(&allowed));
}

RunResult
runFleetOpen(const RunOptions &opt)
{
    RunResult out;
    Layers layers;
    SpanLog spans;
    const unsigned sessions = std::max(1u, std::thread::hardware_concurrency());
    // Frames per session per round.
    const u32 frames = std::max<u32>(
        1, static_cast<u32>(std::ceil(opt.seconds * kFleetRateHz /
                                      kFleetRounds)));

    // ---- set-up, once per session: synthesis, pre-render, fault pass,
    // and construction and warm-up of a throwaway system of its kind.
    std::vector<SessionStream> streams(sessions);
    std::vector<double> setup_seconds;
    for (unsigned s = 0; s < sessions; ++s) {
        SessionStream &st = streams[s];
        st.kind = static_cast<SessionKind>(s % 4);
        const double s0 = nowSeconds();
        st.dataset = std::make_unique<data::SyntheticDataset>(streamSpec(
            data::DatasetSpec::tumLike(kFleetScale), frames, s));
        prerender(*st.dataset, layers);
        if (st.kind == SessionKind::MonoGsHealthFaults) {
            data::FaultInjector faults(faultSchedule(0x400 + s, frames));
            for (u32 f = 0; f < frames; ++f)
                if (auto fr = faults.process(st.dataset->frame(f)))
                    st.delivered.push_back(std::move(*fr));
            const data::FaultStats fs = faults.stats();
            layers.add("data.faults.dropped", static_cast<double>(fs.dropped));
            layers.add("data.faults.timestamp",
                       static_cast<double>(fs.timestampFaults));
            layers.add("data.faults.corrupted",
                       static_cast<double>(fs.corrupted));
            layers.add("data.faults.exposure",
                       static_cast<double>(fs.exposureShifted));
            layers.add("data.faults.occluded",
                       static_cast<double>(fs.occludedFrames));
        } else {
            for (u32 f = 0; f < frames; ++f)
                st.delivered.push_back(st.dataset->frame(f));
        }
        for (const data::Frame &fr : st.delivered)
            st.frameIndex.push_back(fr.index);
        // Staggered phases: session s arrives at the start of the s-th
        // slice of the frame period. Not seed-drawn either: moving the
        // arrivals against each other on the shared CPU swung the p90
        // latency between 56 and 248 ms.
        st.phaseSeconds = static_cast<double>(s) /
                          (static_cast<double>(sessions) * kFleetRateHz);
        {
            slam::SlamSystem warm(sessionConfig(st.kind),
                                  st.dataset->intrinsics());
            for (u32 f = 0; f < std::min(kWarmupFrames, frames); ++f)
                warm.processFrame(st.dataset->frame(f));
            warm.waitForMapping();
        }
        setup_seconds.push_back(nowSeconds() - s0);
    }

    struct Offer
    {
        double due;
        unsigned session;
        size_t index;
    };
    std::vector<Offer> offers;
    for (unsigned s = 0; s < sessions; ++s) {
        SessionStream &st = streams[s];
        for (size_t i = 0; i < st.delivered.size(); ++i)
            offers.push_back(
                {st.phaseSeconds + st.frameIndex[i] / kFleetRateHz, s, i});
        st.due.resize(st.delivered.size());
        st.sent.resize(st.delivered.size());
        st.accepted.resize(st.delivered.size());
    }
    std::stable_sort(offers.begin(), offers.end(),
                     [](const Offer &a, const Offer &b) {
                         return a.due < b.due;
                     });

    // ---- timed: kFleetRounds rounds, each a fresh fleet playing every
    // stream from its start under one generator thread.
    FrameAccounting acc;
    std::vector<std::vector<double>> round_latencies;
    Quality quality;
    u64 completed = 0, refused = 0;
    double wall_seconds = 0, construct_seconds = 0;
    double hook_seconds = 0, service_seconds = 0;
    for (u32 round = 0; round < kFleetRounds; ++round) {
        // Only the first round is traced: one set of spans and replays.
        const bool trace = opt.trace && round == 0;
        const double c0 = nowSeconds();
        // Declared before the fleet: the sessions' hooks point here.
        std::vector<std::unique_ptr<FleetTrace>> traces;
        slam::FleetConfig fleet_cfg;
        fleet_cfg.workers = fleetWorkers();
        fleet_cfg.maxActiveSessions = sessions;
        slam::FleetRuntime fleet(fleet_cfg);
        for (unsigned s = 0; s < sessions; ++s) {
            SessionStream &st = streams[s];
            slam::FleetSessionConfig sc;
            sc.slam = sessionConfig(st.kind);
            sc.intrinsics = st.dataset->intrinsics();
            sc.frameQueueDepth = kFleetQueueDepth;
            if (fleet.openSession(sc, st.id) !=
                slam::AdmitDecision::Admitted) {
                out.errors.push_back("fleet session " + std::to_string(s) +
                                     " not admitted");
                return out;
            }
            traces.push_back(std::make_unique<FleetTrace>());
            if (!trace)
                continue;
            // No frame has been submitted yet, so installing hooks is
            // safe.
            slam::SlamSystem *sys = fleet.system(st.id);
            FleetTrace *ft = traces.back().get();
            const slam::LossConfig loss = sc.slam.tracker.loss;
            sys->setTrackIterationHook(
                [sys, ft, s, loss,
                 &layers](const slam::TrackIterationContext &ctx) {
                    const double t = nowSeconds();
                    addWorkload(layers, ctx.forward->workload());
                    std::lock_guard<std::mutex> lock(ft->mutex);
                    if (ctx.iteration == 0)
                        ++ft->frames;
                    else
                        layers.add("slam.track_iter",
                                   (t - ft->lastMark) * 1e3);
                    if (ctx.iteration == 0 &&
                        ft->frames % kFleetReplayEvery == 1) {
                        ReplayInput in;
                        in.cloud = sys->trackingCloud();
                        in.camera = ctx.forward->camera;
                        in.loss = loss;
                        in.poseGrad = true;
                        in.lane = s;
                        // Rows are appended only by this (frame-loop)
                        // thread, so the count is this frame's ordinal.
                        ft->captures.emplace_back(sys->reports().size(),
                                                  std::move(in));
                    }
                    ft->lastMark = nowSeconds();
                    ft->hookSeconds += ft->lastMark - t;
                });
        }
        construct_seconds += nowSeconds() - c0;

        const double t_start = nowSeconds();
        for (const Offer &o : offers) {
            SessionStream &st = streams[o.session];
            data::Frame frame = st.delivered[o.index];
            const double due = t_start + o.due;
            const double wait = due - nowSeconds();
            if (wait > 0)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(wait));
            const double sent = nowSeconds();
            const bool ok = fleet.trySubmitFrame(st.id, std::move(frame));
            st.due[o.index] = due;
            st.sent[o.index] = sent;
            st.accepted[o.index] = ok;
            if (!ok)
                ++refused;
            if (trace)
                spans.add({"loadgen.submit", sent, nowSeconds(), -1,
                           requestId(o.session, st.frameIndex[o.index]),
                           sessions});
        }
        std::vector<slam::FleetSessionStats> stats(sessions);
        for (unsigned s = 0; s < sessions; ++s) {
            const double d0 = nowSeconds();
            stats[s] = fleet.closeSession(streams[s].id);
            const double d1 = nowSeconds();
            layers.add("slam.drain", (d1 - d0) * 1e3);
            if (trace)
                spans.add({"fleet.close", d0, d1, -1,
                           requestId(s, frames), s});
        }
        wall_seconds += nowSeconds() - t_start;

        // ---- accounting, per session, in submission order.
        FrameAccounting round_acc;
        for (unsigned s = 0; s < sessions; ++s) {
            SessionStream &st = streams[s];
            slam::SlamSystem &sys = *fleet.system(st.id);
            const auto &reports = sys.reports();
            const auto &lat = stats[s].latenciesSeconds;
            if (reports.size() != lat.size())
                out.errors.push_back(
                    "session " + std::to_string(s) + ": " +
                    std::to_string(reports.size()) + " reports vs " +
                    std::to_string(lat.size()) + " completions");
            size_t k = 0; // k-th accepted frame <-> k-th completion
            for (size_t i = 0; i < st.delivered.size(); ++i) {
                layers.add("loadgen.lag", (st.sent[i] - st.due[i]) * 1e3);
                FrameOutcome o;
                if (st.accepted[i] && k < lat.size() && k < reports.size()) {
                    const slam::FrameReport &r = reports[k];
                    o.completed = true;
                    o.validPose = validPose(r.pose);
                    o.latencySeconds =
                        dueTimeLatency(st.due[i], st.sent[i], lat[k]);
                    const double service =
                        r.trackSeconds + (r.mappedAsync ? 0 : r.mapSeconds);
                    service_seconds += service;
                    layers.add("fleet.service", service * 1e3);
                    layers.add("fleet.queue_wait",
                               std::max(0.0, lat[k] - service) * 1e3);
                    addReportLayers(layers, r, -1);
                    if (trace) {
                        const double done = st.sent[i] + lat[k];
                        const std::string req = requestId(s, r.frameIndex);
                        const int64_t root =
                            spans.open("fleet.frame", st.due[i], -1, req, s);
                        spans.add({"loadgen.wait", st.due[i], st.sent[i],
                                   root, req, s});
                        spans.add({"fleet.queue_wait", st.sent[i],
                                   std::max(st.sent[i], done - service),
                                   root, req, s});
                        spans.add({"fleet.service", done - service, done,
                                   root, req, s});
                        spans.close(root, done);
                    }
                    ++k;
                    ++completed;
                }
                acc.add(o, kFleetDeadlineSeconds);
                round_acc.add(o, kFleetDeadlineSeconds);
            }
            layers.add("fleet.turns", static_cast<double>(stats[s].turns));
            layers.add("fleet.dropped", static_cast<double>(stats[s].dropped));
            addSystemLayers(layers, sys);
            if (round == 0)
                quality.add(sys, *st.dataset);
            std::lock_guard<std::mutex> lock(traces[s]->mutex);
            hook_seconds += traces[s]->hookSeconds;
        }
        round_latencies.push_back(round_acc.latenciesSeconds);
        layers.add("fleet.steals",
                   static_cast<double>(fleet.executor().steals()));

        if (trace) {
            // Replay the sampled captures now that the round is over.
            for (unsigned s = 0; s < sessions; ++s) {
                const SessionStream &st = streams[s];
                std::vector<u32> processed; // ordinal -> frame index
                for (size_t i = 0; i < st.frameIndex.size(); ++i)
                    if (st.accepted[i])
                        processed.push_back(st.frameIndex[i]);
                for (auto &[ordinal, in] : traces[s]->captures) {
                    if (ordinal >= processed.size())
                        continue;
                    const data::Frame &fr =
                        st.dataset->frame(processed[ordinal]);
                    in.rgb = fr.rgb;
                    in.depth = fr.depth;
                    in.request = requestId(s, fr.index);
                    replayIteration(
                        in, fleet.system(st.id)->renderPipeline().settings(),
                        layers, spans);
                }
            }
        }
    }
    layers.add("fleet.refused", static_cast<double>(refused));

    out.endToEnd.push_back(
        {"setup_s", "s",
         median(setup_seconds) + construct_seconds / kFleetRounds});
    out.endToEnd.push_back(
        {"fps", "1/s", static_cast<double>(completed) / wall_seconds});
    pushLatencyMetrics(out, acc, round_latencies);
    quality.push(out);
    out.endToEnd.push_back({"peak_rss_mb", "MB", peakRssMb()});
    out.info.push_back(fmtInfo("sessions", sessions));
    std::string kinds;
    for (unsigned s = 0; s < sessions; ++s)
        kinds += std::string(s ? "," : "") + kindName(streams[s].kind);
    out.info.push_back(fmtInfo("session_kinds", kinds));
    out.info.push_back(fmtInfo("rate_hz_per_session", kFleetRateHz));
    out.info.push_back(fmtInfo("deadline_ms", kFleetDeadlineSeconds * 1e3));
    out.info.push_back(fmtInfo("refused", static_cast<double>(refused)));

    if (opt.trace)
        finishTrace(opt, layers, spans, hook_seconds, service_seconds, out);
    return out;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"track_sync", "map_async",
                                                   "fleet_open"};
    return names;
}

RunResult
runWorkload(const RunOptions &options)
{
    if (options.workload == "track_sync")
        return runTrackSync(options);
    if (options.workload == "map_async")
        return runMapAsync(options);
    if (options.workload == "fleet_open")
        return runFleetOpen(options);
    RunResult bad;
    bad.errors.push_back("unknown workload " + options.workload);
    return bad;
}

} // namespace perfbench
