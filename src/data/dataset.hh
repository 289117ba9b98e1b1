/**
 * @file
 * Synthetic RGB-D dataset service with presets mirroring the four
 * datasets of the paper's evaluation (Table 3).
 *
 * Each preset matches the paper's aspect ratio and relative scene
 * complexity; `resolutionScale` uniformly shrinks everything so the
 * whole evaluation runs on a CPU. Ground-truth frames are rendered from
 * the ground-truth Gaussian scene with the library's own rasterizer and
 * cached on first access.
 */

#ifndef RTGS_DATA_DATASET_HH
#define RTGS_DATA_DATASET_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "data/scene.hh"
#include "data/trajectory.hh"
#include "gs/render_pipeline.hh"
#include "image/image.hh"

namespace rtgs::data
{

/** One RGB-D observation with its ground-truth pose. */
struct Frame
{
    u32 index = 0;
    /** Capture time in seconds. Real sensor streams deliver these;
     *  synthetic datasets derive them from the index at `fps`. The
     *  fault injector perturbs them (duplicates, regressions) to model
     *  out-of-order delivery. */
    double timestamp = 0;
    ImageRGB rgb;
    ImageF depth;
    SE3 gtPose; // world -> camera
};

/** True when every element of the pose is finite. */
bool isFinitePose(const SE3 &pose);

/**
 * Harden an externally sourced pose/timestamp stream before it reaches
 * tracking: drops entries with NaN/inf poses and entries whose
 * timestamp does not strictly increase over the last kept entry. Each
 * rejection is logged (warn) instead of silently propagating garbage
 * into the pipeline. `timestamps` may be empty (no timestamp check);
 * otherwise it must parallel `poses`. Returns the number of entries
 * removed; both vectors are compacted in place.
 */
size_t sanitizeTrajectoryStream(std::vector<SE3> &poses,
                                std::vector<double> &timestamps);

/** Sensor noise model applied to ground-truth observations. */
struct NoiseConfig
{
    bool enabled = false;
    Real rgbSigma = Real(0.01);
    /**
     * Depth noise grows quadratically with range (Kinect-style):
     * sigma(d) = depthSigmaAt1m * d^2, i.e. ~5 cm at 4 m with the
     * default — the magnitude class of real structured-light sensors.
     */
    Real depthSigmaAt1m = Real(0.003);
    u64 seed = 99;
};

/** Full description of a synthetic dataset. */
struct DatasetSpec
{
    std::string name;
    u32 fullWidth = 640;   //!< the paper dataset's native width
    u32 fullHeight = 480;  //!< the paper dataset's native height
    /** Linear scale applied to the native resolution (CPU budget). */
    Real resolutionScale = Real(0.25);
    Real fovX = Real(1.2);
    /** Nominal capture rate; frame timestamps are index / fps. */
    Real fps = Real(30);
    SceneConfig scene;
    TrajectoryConfig trajectory;
    NoiseConfig noise;

    /** Scaled image width actually rendered. */
    u32 width() const;
    /** Scaled image height actually rendered. */
    u32 height() const;

    /**
     * Presets mirroring Table 3. `scale` shrinks resolution linearly;
     * scene complexity (Gaussian count) shrinks with it so workload
     * ratios between datasets match the paper's.
     */
    static DatasetSpec tumLike(Real scale = Real(0.25));
    static DatasetSpec replicaLike(Real scale = Real(0.25));
    static DatasetSpec scannetLike(Real scale = Real(0.25));
    static DatasetSpec scannetppLike(Real scale = Real(0.25));

    /** All four presets in paper order. */
    static std::vector<DatasetSpec> allPresets(Real scale = Real(0.25));

    /**
     * Variant of replicaLike for per-scene sweeps (Fig. 16): varies the
     * scene/trajectory seed per named Replica room.
     */
    static DatasetSpec replicaScene(const std::string &room,
                                    Real scale = Real(0.25));
};

/**
 * Lazily rendered synthetic dataset. Thread-compatible (not
 * thread-safe): callers own a dataset per thread or serialise access.
 */
class SyntheticDataset
{
  public:
    explicit SyntheticDataset(const DatasetSpec &spec);

    const DatasetSpec &spec() const { return spec_; }
    u32 frameCount() const { return static_cast<u32>(poses_.size()); }
    Intrinsics intrinsics() const { return intrinsics_; }

    /** Ground-truth scene cloud (for map bootstrapping in tests). */
    const gs::GaussianCloud &groundTruthCloud() const { return cloud_; }

    /** Ground-truth pose of a frame. */
    const SE3 &gtPose(u32 index) const;

    /** Capture timestamp of a frame (index / fps; strictly monotonic). */
    double timestamp(u32 index) const;

    /** Fetch (render-on-demand and cache) a frame. */
    const Frame &frame(u32 index);

  private:
    DatasetSpec spec_;
    Intrinsics intrinsics_;
    gs::GaussianCloud cloud_;
    std::vector<SE3> poses_;
    std::vector<double> timestamps_;
    std::vector<std::optional<Frame>> cache_;
    gs::RenderPipeline pipeline_;
};

} // namespace rtgs::data

#endif // RTGS_DATA_DATASET_HH
