#include "slam/relocalizer.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/rng.hh"
#include "image/resize.hh"

namespace rtgs::slam
{

namespace
{

/** Mean-squared RGB distance between two equally-sized probes;
 *  +inf on a size mismatch or non-finite pixels (never a best match). */
double
probeRmse(const ImageRGB &a, const ImageRGB &b)
{
    if (a.width() != b.width() || a.height() != b.height() ||
        a.pixelCount() == 0) {
        return std::numeric_limits<double>::infinity();
    }
    double acc = 0;
    for (size_t i = 0; i < a.pixelCount(); ++i) {
        Vec3f d{a[i].x - b[i].x, a[i].y - b[i].y, a[i].z - b[i].z};
        acc += static_cast<double>(d.x) * d.x +
               static_cast<double>(d.y) * d.y +
               static_cast<double>(d.z) * d.z;
    }
    double rmse =
        std::sqrt(acc / (3.0 * static_cast<double>(a.pixelCount())));
    return std::isfinite(rmse)
               ? rmse
               : std::numeric_limits<double>::infinity();
}

} // namespace

Relocalizer::Relocalizer(const RelocalizerConfig &config)
    : config_(config), backoffFrames_(config.backoffStartFrames)
{
    // No assertHeld() here: construction may happen on a different
    // thread than the frame loop; the affinity binds on first use.
}

ImageRGB
Relocalizer::makeProbe(const ImageRGB &rgb) const
{
    if (rgb.width() == 0 || rgb.height() == 0)
        return {};
    return resizeProbe(rgb, config_.probeWidth);
}

void
Relocalizer::noteKeyframe(u32 frame_index, const SE3 &pose,
                          const ImageRGB &rgb)
{
    affinity_.assertHeld();
    KeyframeProbe entry;
    entry.frameIndex = frame_index;
    entry.pose = pose;
    entry.probe = makeProbe(rgb);
    database_.push_back(std::move(entry));
    while (database_.size() > std::max<u32>(1, config_.maxKeyframes))
        database_.pop_front();
}

std::vector<RelocCandidate>
Relocalizer::generateCandidates(u32 frame_index,
                                const ImageRGB &frame_probe) const
{
    affinity_.assertHeld();
    std::vector<RelocCandidate> out;
    if (database_.empty())
        return out;

    // Anchor ranking: appearance nearest-neighbour over thumbnails,
    // newest-first on ties (stable sort over a newest-first scan).
    std::vector<std::pair<double, size_t>> ranked;
    ranked.reserve(database_.size());
    for (size_t r = 0; r < database_.size(); ++r) {
        size_t i = database_.size() - 1 - r;
        ranked.emplace_back(probeRmse(frame_probe, database_[i].probe),
                            i);
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });

    size_t anchors =
        std::min<size_t>(std::max<u32>(1, config_.anchorKeyframes),
                         ranked.size());
    for (size_t a = 0; a < anchors; ++a) {
        const KeyframeProbe &kf = database_[ranked[a].second];
        out.push_back({kf.pose, kf.frameIndex,
                       RelocCandidateKind::Anchor});
    }

    // Velocity ladder: continue the newest inter-keyframe motion past
    // the newest keyframe. This is the only candidate family that can
    // chase a forward discontinuity (a transport stall teleports the
    // camera AHEAD of everything the database has seen).
    if (database_.size() >= 2 && config_.extrapolationSteps > 0) {
        const KeyframeProbe &prev = database_[database_.size() - 2];
        const KeyframeProbe &newest = database_.back();
        SE3 delta = newest.pose * prev.pose.inverse();
        SE3 extrap = newest.pose;
        for (u32 k = 0; k < config_.extrapolationSteps; ++k) {
            extrap = delta * extrap;
            out.push_back({extrap, newest.frameIndex,
                           RelocCandidateKind::Extrapolated});
        }
    }

    // Seeded SE(3) perturbations around every base candidate. The Rng
    // is a pure function of (seed, frame index, base index): bitwise
    // reproducible, independent of episode history and worker count.
    size_t bases = out.size();
    out.reserve(bases * (1 + config_.perturbationsPerAnchor));
    for (size_t bi = 0; bi < bases; ++bi) {
        RelocCandidate base = out[bi];
        Rng rng(config_.seed ^
                (static_cast<u64>(frame_index) * 0x9E3779B97F4A7C15ull) ^
                ((static_cast<u64>(bi) + 1) * 0xBF58476D1CE4E5B9ull));
        for (u32 p = 0; p < config_.perturbationsPerAnchor; ++p) {
            double ts = static_cast<double>(config_.perturbTranslationSigma);
            double rs = static_cast<double>(config_.perturbRotationSigma);
            Twist xi{{static_cast<Real>(rng.normal(0, ts)),
                      static_cast<Real>(rng.normal(0, ts)),
                      static_cast<Real>(rng.normal(0, ts))},
                     {static_cast<Real>(rng.normal(0, rs)),
                      static_cast<Real>(rng.normal(0, rs)),
                      static_cast<Real>(rng.normal(0, rs))}};
            out.push_back({base.pose.retract(xi), base.anchorFrame,
                           RelocCandidateKind::Perturbed});
        }
    }
    return out;
}

RelocSearchResult
Relocalizer::search(u32 frame_index, const ImageRGB &frame_probe,
                    const ScoreFn &score)
{
    affinity_.assertHeld();
    ++attempts_;
    RelocSearchResult res;
    std::vector<RelocCandidate> candidates =
        generateCandidates(frame_index, frame_probe);
    for (const RelocCandidate &c : candidates) {
        double db = score(c.pose);
        ++res.candidatesScored;
        if (!std::isfinite(db))
            continue;
        // Fixed-order argmax: strictly-greater keeps the FIRST best,
        // so the reduction never depends on evaluation order details.
        if (!res.hasCandidate || db > res.bestScoreDb) {
            res.hasCandidate = true;
            res.bestScoreDb = db;
            res.bestPose = c.pose;
        }
    }
    candidatesScored_ += res.candidatesScored;
    return res;
}

void
Relocalizer::noteOutcome(u32 frame_index, bool was_accepted)
{
    affinity_.assertHeld();
    if (was_accepted) {
        ++accepted_;
        backoffFrames_ = config_.backoffStartFrames;
        nextAttemptFrame_ = 0;
        return;
    }
    nextAttemptFrame_ = frame_index + 1 + backoffFrames_;
    backoffFrames_ = std::min(
        std::max<u32>(1, config_.backoffMaxFrames),
        backoffFrames_ == 0 ? 1 : backoffFrames_ * 2);
}

void
Relocalizer::reset()
{
    // Mirrors HealthMonitor::reset(): dropping all state also unbinds
    // the thread affinity so the next user may be a different thread.
    affinity_.rebind();
    affinity_.assertHeld();
    database_.clear();
    nextAttemptFrame_ = 0;
    backoffFrames_ = config_.backoffStartFrames;
    attempts_ = 0;
    accepted_ = 0;
    candidatesScored_ = 0;
}

} // namespace rtgs::slam
