/**
 * @file
 * Keyframe selection policies. The paper keeps each base algorithm's
 * native policy (Sec. 6.1): GS-SLAM selects on scene change (pose
 * distance), MonoGS uses fixed intervals, Photo-SLAM uses photometric
 * change, and SplaTAM maps every frame.
 */

#ifndef RTGS_SLAM_KEYFRAME_HH
#define RTGS_SLAM_KEYFRAME_HH

#include <memory>

#include "geometry/se3.hh"
#include "image/image.hh"

namespace rtgs::slam
{

/** Inputs a policy may consult when deciding keyframe status. */
struct KeyframeQuery
{
    u32 frameIndex = 0;
    u32 lastKeyframeIndex = 0;
    SE3 currentPose;       //!< tracked pose of the current frame
    SE3 lastKeyframePose;  //!< tracked pose of the last keyframe
    const ImageRGB *currentImage = nullptr;
    const ImageRGB *lastKeyframeImage = nullptr;
};

/** Interface for keyframe selection. Frame 0 is always a keyframe. */
class KeyframePolicy
{
  public:
    virtual ~KeyframePolicy() = default;

    /** Decide whether the queried frame becomes a keyframe. */
    virtual bool isKeyframe(const KeyframeQuery &query) const = 0;

    /** Human-readable policy name for reports. */
    virtual const char *name() const = 0;
};

/** MonoGS-style: every Nth frame. */
class IntervalKeyframePolicy : public KeyframePolicy
{
  public:
    explicit IntervalKeyframePolicy(u32 interval);
    bool isKeyframe(const KeyframeQuery &query) const override;
    const char *name() const override { return "interval"; }

  private:
    u32 interval_;
};

/** GS-SLAM-style: pose translation/rotation distance thresholds. */
class PoseDistanceKeyframePolicy : public KeyframePolicy
{
  public:
    PoseDistanceKeyframePolicy(Real trans_threshold, Real rot_threshold);
    bool isKeyframe(const KeyframeQuery &query) const override;
    const char *name() const override { return "pose-distance"; }

  private:
    Real transThreshold_;
    Real rotThreshold_;
};

/** Photo-SLAM-style: photometric change (image RMSE) threshold. */
class PhotometricKeyframePolicy : public KeyframePolicy
{
  public:
    explicit PhotometricKeyframePolicy(Real rmse_threshold);
    bool isKeyframe(const KeyframeQuery &query) const override;
    const char *name() const override { return "photometric"; }

  private:
    Real rmseThreshold_;
};

/** SplaTAM-style: every frame is mapped. */
class EveryFrameKeyframePolicy : public KeyframePolicy
{
  public:
    bool isKeyframe(const KeyframeQuery &) const override { return true; }
    const char *name() const override { return "every-frame"; }
};

} // namespace rtgs::slam

#endif // RTGS_SLAM_KEYFRAME_HH
