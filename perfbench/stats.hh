/**
 * @file
 * The benchmark's accounting rules, kept free of the SLAM stack so the
 * unit tests can pin them: percentile reporting, pose validity, and
 * open-loop (due-time) frame accounting.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geometry/se3.hh"

namespace perfbench
{

/** Samples that must lie beyond a reported tail percentile. */
constexpr size_t kTailSamples = 10;

/**
 * Highest percentile of {50, 75, 90, 95, 99, 99.9} that has at least
 * kTailSamples samples beyond it out of `n`, i.e. the largest p with
 * n * (1 - p/100) >= 10. Returns 0 when even the median is unsupported
 * (n < 20).
 */
double highestSupportedPercentile(size_t n);

/** True when `p` is reportable from `n` samples under the rule above. */
bool percentileSupported(size_t n, double p);

/** Linear-interpolated percentile (p in [0, 100]); 0 for no samples. */
double percentile(std::vector<double> values, double p);

/** Median of `values`; 0 for no samples. */
double median(std::vector<double> values);

/**
 * A pose counts as valid when every element is finite and its rotation
 * is orthonormal to within this Frobenius-norm tolerance on R^T R - I.
 * Float rotations kept on SO(3) sit near 1e-6; the seed's diverging
 * tracker passes 1e-3 around frame 10 and reaches 1e31 by frame 23.
 */
constexpr double kPoseOrthoTolerance = 1e-3;

/** ||R^T R - I||_F, or +inf when any pose element is not finite. */
double orthonormalityError(const rtgs::SE3 &pose);

/** Finite and within kPoseOrthoTolerance of a rigid transform. */
bool validPose(const rtgs::SE3 &pose);

/** What happened to one offered frame. */
struct FrameOutcome
{
    /** The system accepted the frame (not refused, not dropped). */
    bool completed = false;
    /** The completed frame's pose is a valid rigid transform. */
    bool validPose = false;
    /** Seconds from the frame's reference instant (its due time on an
     *  open loop, its processFrame call on a closed loop) to its
     *  completion; meaningful only when completed. */
    double latencySeconds = 0;
};

/** Failure and deadline accounting over offered frames. */
struct FrameAccounting
{
    uint64_t offered = 0;
    uint64_t failed = 0;         //!< refused, dropped, or invalid pose
    /** Refused or dropped: the frames the system did not process. This
     *  is the result's `failed` count; an invalid pose is a processed
     *  frame whose output is wrong, and counts in `failed` only. */
    uint64_t notCompleted = 0;
    uint64_t deadlineMissed = 0; //!< failed, or later than the limit
    std::vector<double> latenciesSeconds; //!< completed frames only

    /** Account one offered frame against a latency limit. */
    void add(const FrameOutcome &frame, double deadline_seconds);

    double failedFraction() const;
    double deadlineMissFraction() const;
};

/**
 * Open-loop latency of one frame: measured from when the frame was due,
 * not from when the generator managed to send it, so a generator that
 * ran late (`sent_seconds > due_seconds`) charges its wait to the frame.
 * `service_latency_seconds` is the system's submit-to-completion time.
 */
double dueTimeLatency(double due_seconds, double sent_seconds,
                      double service_latency_seconds);

/** FNV-1a over a byte range, chained through `hash`. */
uint64_t fnv1a(const void *bytes, size_t n, uint64_t hash);

/** FNV-1a offset basis. */
constexpr uint64_t kFnvBasis = 1469598103934665603ull;

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
