#include "data/dataset.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/rng.hh"

namespace rtgs::data
{

namespace
{

u64
hashName(const std::string &s)
{
    u64 h = 1469598103934665603ull;
    for (char c : s) {
        h ^= static_cast<u64>(static_cast<unsigned char>(c));
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

bool
isFinitePose(const SE3 &pose)
{
    for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c)
            if (!std::isfinite(pose.rot.m[r][c]))
                return false;
    return std::isfinite(pose.trans.x) && std::isfinite(pose.trans.y) &&
           std::isfinite(pose.trans.z);
}

size_t
sanitizeTrajectoryStream(std::vector<SE3> &poses,
                         std::vector<double> &timestamps)
{
    rtgs_assert(timestamps.empty() || timestamps.size() == poses.size());
    bool check_times = !timestamps.empty();
    size_t kept = 0;
    double last_ts = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < poses.size(); ++i) {
        if (!isFinitePose(poses[i])) {
            warn("trajectory entry %zu rejected: non-finite pose", i);
            continue;
        }
        if (check_times) {
            double ts = timestamps[i];
            if (!std::isfinite(ts) || ts <= last_ts) {
                warn("trajectory entry %zu rejected: timestamp %.6f "
                     "does not advance past %.6f",
                     i, ts, last_ts);
                continue;
            }
            last_ts = ts;
            timestamps[kept] = ts;
        }
        poses[kept] = poses[i];
        ++kept;
    }
    size_t removed = poses.size() - kept;
    poses.resize(kept);
    if (check_times)
        timestamps.resize(kept);
    return removed;
}

u32
DatasetSpec::width() const
{
    return std::max<u32>(
        16, static_cast<u32>(std::lround(fullWidth * resolutionScale)));
}

u32
DatasetSpec::height() const
{
    return std::max<u32>(
        16, static_cast<u32>(std::lround(fullHeight * resolutionScale)));
}

DatasetSpec
DatasetSpec::tumLike(Real scale)
{
    DatasetSpec s;
    s.name = "tum";
    s.fullWidth = 640;
    s.fullHeight = 480;
    s.resolutionScale = scale;
    s.fovX = Real(1.10); // fx ~ 525 at 640 wide
    s.scene.roomHalfExtents = {2.6f, 1.8f, 2.6f};
    s.scene.surfelSpacing = Real(0.17);
    s.scene.furnitureCount = 5;
    s.scene.textureFrequency = Real(2.2);
    s.scene.seed = 11;
    s.trajectory.frameCount = 50;
    s.trajectory.roomHalfExtents = s.scene.roomHalfExtents;
    s.trajectory.seed = 21;
    s.noise.enabled = true;
    return s;
}

DatasetSpec
DatasetSpec::replicaLike(Real scale)
{
    DatasetSpec s;
    s.name = "replica";
    s.fullWidth = 1200;
    s.fullHeight = 680;
    s.resolutionScale = scale;
    s.fovX = Real(1.57); // Replica renders with ~90 degree FOV
    s.scene.roomHalfExtents = {3.0f, 2.0f, 3.0f};
    s.scene.surfelSpacing = Real(0.13);
    s.scene.furnitureCount = 7;
    s.scene.textureFrequency = Real(1.8);
    s.scene.seed = 12;
    s.trajectory.frameCount = 60;
    s.trajectory.roomHalfExtents = s.scene.roomHalfExtents;
    s.trajectory.seed = 22;
    // Replica is itself a rendered dataset: tiny RGB noise, exact depth.
    s.noise.enabled = true;
    s.noise.rgbSigma = Real(0.005);
    s.noise.depthSigmaAt1m = Real(0);
    return s;
}

DatasetSpec
DatasetSpec::scannetLike(Real scale)
{
    DatasetSpec s;
    s.name = "scannet";
    s.fullWidth = 1296;
    s.fullHeight = 968;
    s.resolutionScale = scale;
    s.fovX = Real(1.25);
    s.scene.roomHalfExtents = {3.5f, 2.2f, 3.5f};
    s.scene.surfelSpacing = Real(0.115);
    s.scene.furnitureCount = 9;
    s.scene.textureFrequency = Real(2.6);
    s.scene.seed = 13;
    s.trajectory.frameCount = 50;
    s.trajectory.roomHalfExtents = s.scene.roomHalfExtents;
    s.trajectory.seed = 23;
    s.noise.enabled = true;
    s.noise.rgbSigma = Real(0.02); // ScanNet captures are noisy
    s.noise.depthSigmaAt1m = Real(0.005);
    return s;
}

DatasetSpec
DatasetSpec::scannetppLike(Real scale)
{
    DatasetSpec s;
    s.name = "scannetpp";
    s.fullWidth = 1752;
    s.fullHeight = 1160;
    s.resolutionScale = scale;
    s.fovX = Real(1.35);
    s.scene.roomHalfExtents = {3.8f, 2.4f, 3.8f};
    s.scene.surfelSpacing = Real(0.10);
    s.scene.furnitureCount = 10;
    s.scene.textureFrequency = Real(2.4);
    s.scene.seed = 14;
    s.trajectory.frameCount = 40;
    s.trajectory.roomHalfExtents = s.scene.roomHalfExtents;
    s.trajectory.seed = 24;
    s.noise.enabled = true;
    return s;
}

std::vector<DatasetSpec>
DatasetSpec::allPresets(Real scale)
{
    return {tumLike(scale), replicaLike(scale), scannetLike(scale),
            scannetppLike(scale)};
}

DatasetSpec
DatasetSpec::replicaScene(const std::string &room, Real scale)
{
    DatasetSpec s = replicaLike(scale);
    s.name = "replica/" + room;
    u64 h = hashName(room);
    s.scene.seed = 100 + (h % 1000);
    s.trajectory.seed = 200 + (h % 1000);
    // Rooms differ in size and clutter.
    Real size_mod = Real(0.85) + Real(0.3) * static_cast<Real>(
        (h >> 10) % 100) / 100;
    s.scene.roomHalfExtents = s.scene.roomHalfExtents * size_mod;
    s.trajectory.roomHalfExtents = s.scene.roomHalfExtents;
    s.scene.furnitureCount = 5 + (h >> 20) % 5;
    return s;
}

SyntheticDataset::SyntheticDataset(const DatasetSpec &spec)
    : spec_(spec)
{
    intrinsics_ = Intrinsics::fromFov(spec.fovX, spec.width(),
                                      spec.height());
    cloud_ = buildScene(spec.scene);
    poses_ = generateTrajectory(spec.trajectory);
    double dt = spec.fps > 0 ? 1.0 / static_cast<double>(spec.fps)
                             : 1.0 / 30.0;
    timestamps_.resize(poses_.size());
    for (size_t i = 0; i < poses_.size(); ++i)
        timestamps_[i] = static_cast<double>(i) * dt;
    // The generator only produces finite, monotonic streams, but the
    // loading path is hardened all the same: garbage poses/timestamps
    // are logged and skipped here instead of reaching tracking.
    size_t rejected = sanitizeTrajectoryStream(poses_, timestamps_);
    if (rejected > 0) {
        warn("dataset '%s': rejected %zu trajectory entr%s at load",
             spec.name.c_str(), rejected, rejected == 1 ? "y" : "ies");
    }
    cache_.resize(poses_.size());

    gs::RenderSettings settings;
    settings.background = {0.03f, 0.03f, 0.05f};
    pipeline_ = gs::RenderPipeline(settings);
}

const SE3 &
SyntheticDataset::gtPose(u32 index) const
{
    rtgs_assert(index < poses_.size());
    return poses_[index];
}

double
SyntheticDataset::timestamp(u32 index) const
{
    rtgs_assert(index < timestamps_.size());
    return timestamps_[index];
}

const Frame &
SyntheticDataset::frame(u32 index)
{
    rtgs_assert(index < cache_.size());
    if (cache_[index])
        return *cache_[index];

    Camera cam(intrinsics_, poses_[index]);
    gs::ForwardContext ctx = pipeline_.forward(cloud_, cam);

    Frame f;
    f.index = index;
    f.timestamp = timestamps_[index];
    f.rgb = std::move(ctx.result.image);
    f.gtPose = poses_[index];

    // True per-pixel depth: normalise the alpha-weighted accumulation;
    // barely covered pixels are invalid (0), and so is anything under
    // the sensor's minimum range (RGB-D cameras cannot measure below
    // ~0.2 m).
    f.depth = ImageF(f.rgb.width(), f.rgb.height());
    for (size_t i = 0; i < f.depth.pixelCount(); ++i) {
        Real a = ctx.result.alpha[i];
        Real d = a > Real(0.2) ? ctx.result.depth[i] / a : Real(0);
        f.depth[i] = d >= Real(0.2) ? d : Real(0);
    }

    if (spec_.noise.enabled) {
        Rng rng(spec_.noise.seed ^ (static_cast<u64>(index) * 0x9E37ull));
        for (size_t i = 0; i < f.rgb.pixelCount(); ++i) {
            auto jit = [&rng, this] {
                return static_cast<Real>(
                    rng.normal(0, spec_.noise.rgbSigma));
            };
            f.rgb[i].x = std::clamp(f.rgb[i].x + jit(), Real(0), Real(1));
            f.rgb[i].y = std::clamp(f.rgb[i].y + jit(), Real(0), Real(1));
            f.rgb[i].z = std::clamp(f.rgb[i].z + jit(), Real(0), Real(1));
            if (f.depth[i] > 0 && spec_.noise.depthSigmaAt1m > 0) {
                Real sigma = spec_.noise.depthSigmaAt1m * f.depth[i] *
                             f.depth[i];
                f.depth[i] = std::max(
                    Real(0), f.depth[i] +
                    static_cast<Real>(rng.normal(0, sigma)));
            }
        }
    }

    cache_[index] = std::move(f);
    return *cache_[index];
}

} // namespace rtgs::data
