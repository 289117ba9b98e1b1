#include "slam/keyframe.hh"

#include "common/logging.hh"
#include "image/metrics.hh"

namespace rtgs::slam
{

IntervalKeyframePolicy::IntervalKeyframePolicy(u32 interval)
    : interval_(interval)
{
    rtgs_assert(interval > 0);
}

bool
IntervalKeyframePolicy::isKeyframe(const KeyframeQuery &query) const
{
    return query.frameIndex % interval_ == 0;
}

PoseDistanceKeyframePolicy::PoseDistanceKeyframePolicy(Real trans_threshold,
                                                       Real rot_threshold)
    : transThreshold_(trans_threshold), rotThreshold_(rot_threshold)
{
    rtgs_assert(trans_threshold > 0 && rot_threshold > 0);
}

bool
PoseDistanceKeyframePolicy::isKeyframe(const KeyframeQuery &query) const
{
    if (query.frameIndex == 0)
        return true;
    Real dt = SE3::translationDistance(query.currentPose,
                                       query.lastKeyframePose);
    Real dr = SE3::rotationDistance(query.currentPose,
                                    query.lastKeyframePose);
    return dt > transThreshold_ || dr > rotThreshold_;
}

PhotometricKeyframePolicy::PhotometricKeyframePolicy(Real rmse_threshold)
    : rmseThreshold_(rmse_threshold)
{
    rtgs_assert(rmse_threshold > 0);
}

bool
PhotometricKeyframePolicy::isKeyframe(const KeyframeQuery &query) const
{
    if (query.frameIndex == 0 || !query.currentImage ||
        !query.lastKeyframeImage) {
        return true;
    }
    return imageRmse(*query.currentImage, *query.lastKeyframeImage) >
           rmseThreshold_;
}

} // namespace rtgs::slam
