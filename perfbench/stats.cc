#include "stats.hh"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perfbench
{

double
highestSupportedPercentile(size_t n)
{
    static const double kLadder[] = {99.9, 99, 95, 90, 75, 50};
    for (double p : kLadder)
        if (percentileSupported(n, p))
            return p;
    return 0;
}

bool
percentileSupported(size_t n, double p)
{
    // Samples strictly beyond the p-th percentile: n * (1 - p/100),
    // compared in integer thousandths to dodge float rounding.
    const auto tail_milli = static_cast<uint64_t>(
        std::llround((100.0 - p) * 10.0)); // (100 - p) per mille
    return static_cast<uint64_t>(n) * tail_milli >= kTailSamples * 1000;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double rank =
        std::clamp(p, 0.0, 100.0) / 100.0 *
        static_cast<double>(values.size() - 1);
    const auto lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50);
}

double
orthonormalityError(const rtgs::SE3 &pose)
{
    for (int r = 0; r < 3; ++r)
        for (int c = 0; c < 3; ++c)
            if (!std::isfinite(pose.rot.m[r][c]))
                return std::numeric_limits<double>::infinity();
    if (!std::isfinite(pose.trans.x) || !std::isfinite(pose.trans.y) ||
        !std::isfinite(pose.trans.z))
        return std::numeric_limits<double>::infinity();
    double sum = 0;
    for (int i = 0; i < 3; ++i) {
        for (int j = 0; j < 3; ++j) {
            double dot = 0;
            for (int k = 0; k < 3; ++k)
                dot += static_cast<double>(pose.rot.m[k][i]) *
                       static_cast<double>(pose.rot.m[k][j]);
            const double e = dot - (i == j ? 1.0 : 0.0);
            sum += e * e;
        }
    }
    // The products of huge-but-finite entries can overflow to inf,
    // which correctly reads as invalid below.
    return std::sqrt(sum);
}

bool
validPose(const rtgs::SE3 &pose)
{
    return orthonormalityError(pose) < kPoseOrthoTolerance;
}

void
FrameAccounting::add(const FrameOutcome &frame, double deadline_seconds)
{
    ++offered;
    const bool ok = frame.completed && frame.validPose;
    if (!ok)
        ++failed;
    if (!frame.completed)
        ++notCompleted;
    if (!ok || frame.latencySeconds > deadline_seconds)
        ++deadlineMissed;
    if (frame.completed)
        latenciesSeconds.push_back(frame.latencySeconds);
}

double
FrameAccounting::failedFraction() const
{
    return offered ? static_cast<double>(failed) /
                         static_cast<double>(offered)
                   : 0;
}

double
FrameAccounting::deadlineMissFraction() const
{
    return offered ? static_cast<double>(deadlineMissed) /
                         static_cast<double>(offered)
                   : 0;
}

double
dueTimeLatency(double due_seconds, double sent_seconds,
               double service_latency_seconds)
{
    return (sent_seconds - due_seconds) + service_latency_seconds;
}

uint64_t
fnv1a(const void *bytes, size_t n, uint64_t hash)
{
    const auto *p = static_cast<const unsigned char *>(bytes);
    for (size_t i = 0; i < n; ++i) {
        hash ^= p[i];
        hash *= 1099511628211ull;
    }
    return hash;
}

} // namespace perfbench
