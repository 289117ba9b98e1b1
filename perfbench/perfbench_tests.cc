/**
 * @file
 * Pins the benchmark's accounting rules: which tail percentile a sample
 * count supports, what counts as a failed frame, and that open-loop
 * latency is charged from the due time.
 */

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "stats.hh"

namespace perfbench
{
namespace
{

TEST(PercentileRule, TailNeedsTenSamplesBeyondIt)
{
    EXPECT_EQ(highestSupportedPercentile(19), 0);
    EXPECT_EQ(highestSupportedPercentile(20), 50);
    EXPECT_EQ(highestSupportedPercentile(39), 50);
    EXPECT_EQ(highestSupportedPercentile(40), 75);
    EXPECT_EQ(highestSupportedPercentile(99), 75);
    EXPECT_EQ(highestSupportedPercentile(100), 90);
    EXPECT_EQ(highestSupportedPercentile(199), 90);
    EXPECT_EQ(highestSupportedPercentile(200), 95);
    EXPECT_EQ(highestSupportedPercentile(1000), 99);
    EXPECT_EQ(highestSupportedPercentile(9999), 99);
    EXPECT_EQ(highestSupportedPercentile(10000), 99.9);

    EXPECT_FALSE(percentileSupported(99, 90));
    EXPECT_TRUE(percentileSupported(100, 90));
}

TEST(PercentileRule, InterpolatesBetweenRanks)
{
    std::vector<double> v;
    for (int i = 1; i <= 101; ++i)
        v.push_back(i);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 51);
    EXPECT_DOUBLE_EQ(percentile(v, 90), 91);
    EXPECT_DOUBLE_EQ(percentile({1, 2}, 50), 1.5);
    EXPECT_EQ(percentile({}, 50), 0);
}

rtgs::SE3
identityPose()
{
    rtgs::SE3 p;
    for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c)
            p.rot.m[r][c] = r == c ? 1.0f : 0.0f;
    p.trans = {0.1f, -0.2f, 0.3f};
    return p;
}

TEST(PoseValidity, NanOrNonOrthonormalPoseIsAFailedFrame)
{
    EXPECT_TRUE(validPose(identityPose()));

    rtgs::SE3 nan_rot = identityPose();
    nan_rot.rot.m[1][2] = std::numeric_limits<float>::quiet_NaN();
    EXPECT_FALSE(validPose(nan_rot));

    rtgs::SE3 inf_trans = identityPose();
    inf_trans.trans.y = std::numeric_limits<float>::infinity();
    EXPECT_FALSE(validPose(inf_trans));

    rtgs::SE3 stretched = identityPose();
    stretched.rot.m[0][0] = 1.01f; // not a rotation any more
    EXPECT_FALSE(validPose(stretched));

    rtgs::SE3 diverged = identityPose();
    diverged.rot.m[2][0] = 1e31f; // the seed's divergence magnitude
    EXPECT_FALSE(validPose(diverged));

    rtgs::SE3 float_noise = identityPose();
    float_noise.rot.m[0][1] = 1e-7f;
    EXPECT_TRUE(validPose(float_noise));

    FrameAccounting acc;
    acc.add({true, validPose(nan_rot), 0.001}, 1.0);
    acc.add({true, validPose(identityPose()), 0.001}, 1.0);
    EXPECT_EQ(acc.offered, 2u);
    EXPECT_EQ(acc.failed, 1u);
    // Processed with a wrong pose: failed, but not uncompleted.
    EXPECT_EQ(acc.notCompleted, 0u);
    // A failed frame misses the deadline however fast it was.
    EXPECT_EQ(acc.deadlineMissed, 1u);
    EXPECT_DOUBLE_EQ(acc.failedFraction(), 0.5);
}

TEST(OpenLoop, DueTimeLatencyIncludesGeneratorWait)
{
    // Due at 1.00 s, sent 50 ms late, served in 20 ms.
    const double lat = dueTimeLatency(1.00, 1.05, 0.020);
    EXPECT_NEAR(lat, 0.070, 1e-12);

    FrameAccounting acc;
    // Against a 60 ms limit the service time alone would pass; the
    // generator's wait makes the frame miss.
    acc.add({true, true, lat}, 0.060);
    EXPECT_EQ(acc.failed, 0u);
    EXPECT_EQ(acc.deadlineMissed, 1u);
    ASSERT_EQ(acc.latenciesSeconds.size(), 1u);
    EXPECT_NEAR(acc.latenciesSeconds[0], 0.070, 1e-12);
}

TEST(OpenLoop, RefusedFrameFailsAndMissesWithoutALatencySample)
{
    FrameAccounting acc;
    acc.add({false, false, 0}, 0.25);
    EXPECT_EQ(acc.failed, 1u);
    EXPECT_EQ(acc.notCompleted, 1u);
    EXPECT_EQ(acc.deadlineMissed, 1u);
    EXPECT_TRUE(acc.latenciesSeconds.empty());
}

} // namespace
} // namespace perfbench
