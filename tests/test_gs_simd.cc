/**
 * @file
 * Contract tests for the approximate-computing ladder (ISSUE 7):
 *
 *  - the `precise` rung is BITWISE identical to the serial reference
 *    forward pass (the strongest cross-implementation check the repo
 *    has: two independent loop structures, one bit pattern);
 *  - the avx2-precise row kernels match scalar-exact bit for bit on
 *    every non-NaN value, over randomised rows with extreme inputs;
 *  - the approx exp honours its <= 16 ulp bound and the faithful exp
 *    its <= 1 ulp bound over the live power range, on whatever path
 *    the process dispatches to (AVX2 or scalar);
 *  - fp16 column round-trips stay within half-ulp-of-format
 *    bounds, and the packed CowColumn keeps COW semantics;
 *  - every rung is bitwise deterministic across 1/2/4 render workers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "common/cpu_features.hh"
#include "common/halffloat.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "gs/reference.hh"
#include "gs/render_pipeline.hh"
#include "gs/row_kernels.hh"

namespace rtgs::gs
{

namespace
{

/** Randomised cloud + camera (same flavour as the equivalence sweeps). */
struct SimdScene
{
    GaussianCloud cloud;
    Camera camera;

    explicit SimdScene(u64 seed, size_t count = 80)
    {
        Rng rng(seed);
        for (size_t i = 0; i < count; ++i) {
            Vec3f pos{static_cast<Real>(rng.uniform(-1.2, 1.2)),
                      static_cast<Real>(rng.uniform(-0.9, 0.9)),
                      static_cast<Real>(rng.uniform(1.2, 5.0))};
            Real scale = static_cast<Real>(rng.uniform(0.04, 0.4));
            Real opacity = static_cast<Real>(rng.uniform(0.05, 0.95));
            Vec3f rgb{static_cast<Real>(rng.uniform(0.05, 0.95)),
                      static_cast<Real>(rng.uniform(0.05, 0.95)),
                      static_cast<Real>(rng.uniform(0.05, 0.95))};
            cloud.pushIsotropic(pos, scale, opacity, rgb);
            if (i % 2 == 0) {
                cloud.logScales.mut()[i].x +=
                    static_cast<Real>(rng.uniform(-0.8, 0.8));
                cloud.rotations.mut()[i] = Quatf::fromAxisAngle(
                    {static_cast<Real>(rng.normal()),
                     static_cast<Real>(rng.normal()),
                     static_cast<Real>(rng.normal())},
                    static_cast<Real>(rng.uniform(0, 3)));
            }
        }
        camera = Camera(Intrinsics::fromFov(Real(1.2), 144, 112),
                        SE3::lookAt(
                            {static_cast<Real>(rng.uniform(-0.3, 0.3)),
                             static_cast<Real>(rng.uniform(-0.3, 0.3)),
                             static_cast<Real>(rng.uniform(-0.5, 0.0))},
                            {0, 0, 3}));
    }
};

/** ulp distance between two floats of the same sign regime. */
u32
ulpDiff(float a, float b)
{
    i32 ia, ib;
    std::memcpy(&ia, &a, 4);
    std::memcpy(&ib, &b, 4);
    // Map to a monotonic integer line (both values positive here).
    i64 d = static_cast<i64>(ia) - static_cast<i64>(ib);
    return static_cast<u32>(d < 0 ? -d : d);
}

/** Bitwise image compare. */
bool
bitIdentical(const ImageRGB &a, const ImageRGB &b)
{
    return a.pixelCount() == b.pixelCount() &&
           std::memcmp(a.data(), b.data(),
                       a.pixelCount() * sizeof(Vec3f)) == 0;
}

ForwardContext
renderWith(const SimdScene &scene, PipelinePreset preset,
           ThreadPool *pool)
{
    RenderSettings settings;
    settings.background = {0.1f, 0.2f, 0.3f};
    settings.pipeline.preset = preset;
    RenderPipeline pipe(settings);
    if (pool)
        pipe.setPool(pool);
    GaussianCloud cloud = scene.cloud;
    applyStoragePrecision(cloud, settings.pipeline);
    return pipe.forward(cloud, scene.camera);
}

} // namespace

// ---------------------------------------------------------------------
// precise rung: bitwise identity vs the serial reference
// ---------------------------------------------------------------------

class SimdPrecise : public ::testing::TestWithParam<u64>
{
};

TEST_P(SimdPrecise, BitwiseMatchesSerialReference)
{
    SimdScene scene(GetParam());
    RenderSettings settings;
    settings.background = {0.1f, 0.2f, 0.3f};
    settings.pipeline.preset = PipelinePreset::Precise;

    ReferenceForward ref =
        forwardReference(scene.cloud, scene.camera, settings);
    RenderPipeline pipe(settings);
    ForwardContext ctx = pipe.forward(scene.cloud, scene.camera);

    ASSERT_EQ(ref.result.image.pixelCount(),
              ctx.result.image.pixelCount());
    EXPECT_TRUE(bitIdentical(ref.result.image, ctx.result.image));
    for (size_t i = 0; i < ref.result.image.pixelCount(); ++i) {
        ASSERT_EQ(ref.result.depth[i], ctx.result.depth[i]);
        ASSERT_EQ(ref.result.finalT[i], ctx.result.finalT[i]);
        ASSERT_EQ(ref.result.nContrib[i], ctx.result.nContrib[i]);
        ASSERT_EQ(ref.result.nBlended[i], ctx.result.nBlended[i]);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdPrecise,
                         ::testing::Values(3u, 17u, 88u, 2026u));

// ---------------------------------------------------------------------
// precise rung: avx2-precise vs scalar-exact row kernels
// ---------------------------------------------------------------------

namespace
{

u32
floatBits(float v)
{
    u32 b;
    std::memcpy(&b, &v, 4);
    return b;
}

/** The kernel contract: equal bits, except a NaN need only meet a NaN. */
bool
sameBitsOrBothNaN(float want, float got)
{
    return std::isnan(want) ? std::isnan(got)
                            : floatBits(want) == floatBits(got);
}

/**
 * Row-kernel fuzz inputs: mostly live-range values, with a fraction
 * swapped for ±0, denormals, ±inf, ±1e30 and NaN.
 */
struct RowFuzz
{
    Rng rng;

    explicit RowFuzz(u64 seed) : rng(seed) {}

    Real
    extreme()
    {
        const Real inf = std::numeric_limits<Real>::infinity();
        const Real kSpecials[] = {
            Real(0), -Real(0), Real(1e-40), -Real(1e-40),
            std::numeric_limits<Real>::denorm_min(), inf, -inf,
            Real(1e30), Real(-1e30),
            std::numeric_limits<Real>::quiet_NaN()};
        return kSpecials[rng.uniformInt(std::size(kSpecials))];
    }

    /** uniform(lo, hi), or an extreme value with probability p. */
    Real
    value(double lo, double hi, double p = 0.02)
    {
        return rng.chance(p) ? extreme()
                             : static_cast<Real>(rng.uniform(lo, hi));
    }

    /** Row start; now and then past 2^31, where u32 -> float rounds. */
    u32
    rowStart()
    {
        return rng.chance(0.01)
                   ? 0x80000000u + static_cast<u32>(rng.uniformInt(1u << 30))
                   : static_cast<u32>(rng.uniformInt(400));
    }

    HotSplat
    splat(u32 sx0, u32 n)
    {
        HotSplat g;
        g.mx = value(sx0 - 2.0, sx0 + n + 2.0);
        g.my = value(-4, 4);
        g.cxx = value(0.005, 1.5);
        g.cxy = value(-0.3, 0.3);
        g.cyy = value(0.005, 1.5);
        g.opacity = value(0.01, 1.0);
        g.powerSkip = value(-6, -0.5);
        g.r = value(0, 1);
        g.g = value(0, 1);
        g.b = value(0, 1);
        g.depth = value(0.5, 8);
        return g;
    }
};

RowKernelCtx
fuzzCtx(RowFuzz &f)
{
    return {f.value(1.0 / 255, 1.0 / 255, 0.01),
            f.value(0.99, 0.99, 0.01), f.value(1e-4, 1e-4, 0.01)};
}

/** Skip unless the host can run (and the binary carries) avx2-precise. */
#define REQUIRE_AVX2_PRECISE(scalar, avx2)                              \
    do {                                                                \
        if (detectedSimdLevel() < SimdLevel::Avx2 || &(scalar) == &(avx2)) \
            GTEST_SKIP() << "no AVX2 precise kernels on this host";     \
    } while (0)

} // namespace

TEST(SimdPreciseKernels, ForwardRowMatchesScalarExactBitwise)
{
    const RowKernels &scalar =
        selectRowKernels(PipelinePreset::Precise, SimdLevel::Scalar);
    const RowKernels &avx2 =
        selectRowKernels(PipelinePreset::Precise, SimdLevel::Avx2);
    REQUIRE_AVX2_PRECISE(scalar, avx2);
    EXPECT_STREQ(avx2.name, "avx2-precise");

    // Eight trailing lanes past the row catch stray tail stores.
    constexpr u32 kPad = 8;
    RowFuzz f(0xF0F0);
    for (int trial = 0; trial < 60000; ++trial) {
        const u32 n = 1 + static_cast<u32>(f.rng.uniformInt(40));
        const u32 sx0 = f.rowStart();
        const u32 slot = static_cast<u32>(f.rng.uniformInt(64));
        const HotSplat g = f.splat(sx0, n);
        const Real dy = f.value(-5, 5);
        const RowKernelCtx ctx = fuzzCtx(f);

        const size_t len = n + kPad;
        std::vector<Real> real_in[5];
        for (auto &v : real_in) {
            v.resize(len);
            for (Real &x : v)
                x = f.value(0, 1);
        }
        std::vector<u32> blended_in(len), term_in(len);
        for (size_t i = 0; i < len; ++i) {
            blended_in[i] = static_cast<u32>(f.rng.uniformInt(50));
            term_in[i] = f.rng.chance(0.8)
                             ? kRowNotTerminated
                             : static_cast<u32>(f.rng.uniformInt(64));
        }

        auto run = [&](const RowKernels &k, std::vector<Real> (&st)[5],
                       std::vector<u32> &blended, std::vector<u32> &term) {
            for (int c = 0; c < 5; ++c)
                st[c] = real_in[c];
            blended = blended_in;
            term = term_in;
            std::vector<Real> scratch(2 * n);
            const ForwardRowState px{st[0].data(), st[1].data(),
                                     st[2].data(), st[3].data(),
                                     st[4].data(), blended.data(),
                                     term.data()};
            return k.forwardRow(g, dy, sx0, n, slot, ctx, px,
                                scratch.data());
        };
        std::vector<Real> want[5], got[5];
        std::vector<u32> want_bl, got_bl, want_term, got_term;
        const u32 want_ret = run(scalar, want, want_bl, want_term);
        const u32 got_ret = run(avx2, got, got_bl, got_term);

        ASSERT_EQ(want_ret, got_ret) << "trial " << trial;
        ASSERT_EQ(want_bl, got_bl) << "trial " << trial;
        ASSERT_EQ(want_term, got_term) << "trial " << trial;
        for (int c = 0; c < 5; ++c)
            for (size_t i = 0; i < len; ++i)
                ASSERT_TRUE(sameBitsOrBothNaN(want[c][i], got[c][i]))
                    << "trial " << trial << " field " << c << " px " << i
                    << ": " << want[c][i] << " vs " << got[c][i];
    }
}

TEST(SimdPreciseKernels, BackwardRowMatchesScalarExactBitwise)
{
    const RowKernels &scalar =
        selectRowKernels(PipelinePreset::Precise, SimdLevel::Scalar);
    const RowKernels &avx2 =
        selectRowKernels(PipelinePreset::Precise, SimdLevel::Avx2);
    REQUIRE_AVX2_PRECISE(scalar, avx2);

    constexpr u32 kPad = 8;
    RowFuzz f(0xB0B0);
    for (int trial = 0; trial < 60000; ++trial) {
        const u32 n = 1 + static_cast<u32>(f.rng.uniformInt(40));
        const u32 sx0 = f.rowStart();
        const u32 slot = static_cast<u32>(f.rng.uniformInt(64));
        const HotSplat g = f.splat(sx0, n);
        const Real dy = f.value(-5, 5);
        const RowKernelCtx ctx = fuzzCtx(f);

        const size_t len = n + kPad;
        // T, acc, bgT, dlR, dlG, dlB, dlD.
        std::vector<Real> in[7];
        for (int c = 0; c < 7; ++c) {
            in[c].resize(len);
            for (Real &x : in[c])
                x = c == 0 ? f.value(1e-4, 1) : f.value(-1, 1);
        }
        // Some counts above 2^31 exercise the unsigned slot < ce test.
        std::vector<u32> ce(len);
        for (u32 &c : ce)
            c = f.rng.chance(0.05) ? 0xFFFFFFF0u
                                   : static_cast<u32>(f.rng.uniformInt(80));
        BackwardSplatAccum init;
        Real *init_f[] = {&init.dR,  &init.dG, &init.dB, &init.dDepth,
                          &init.dOp, &init.sX, &init.sY, &init.sXX,
                          &init.sXY, &init.sYY};
        for (Real *x : init_f)
            *x = f.value(-1, 1);

        auto run = [&](const RowKernels &k, std::vector<Real> &T,
                       std::vector<Real> &acc) {
            T = in[0];
            acc = in[1];
            std::vector<Real> scratch(2 * n);
            const BackwardRowState px{T.data(),     acc.data(),
                                      in[2].data(), in[3].data(),
                                      in[4].data(), in[5].data(),
                                      in[6].data(), ce.data()};
            BackwardSplatAccum a = init;
            k.backwardRow(g, dy, sx0, n, slot, ctx, px, a,
                          scratch.data());
            return a;
        };
        std::vector<Real> want_T, want_acc, got_T, got_acc;
        const BackwardSplatAccum want = run(scalar, want_T, want_acc);
        const BackwardSplatAccum got = run(avx2, got_T, got_acc);

        const Real want_sums[] = {want.dR,  want.dG, want.dB, want.dDepth,
                                  want.dOp, want.sX, want.sY, want.sXX,
                                  want.sXY, want.sYY};
        const Real got_sums[] = {got.dR,  got.dG, got.dB, got.dDepth,
                                 got.dOp, got.sX, got.sY, got.sXX,
                                 got.sXY, got.sYY};
        for (int c = 0; c < 10; ++c)
            ASSERT_TRUE(sameBitsOrBothNaN(want_sums[c], got_sums[c]))
                << "trial " << trial << " sum " << c << ": "
                << want_sums[c] << " vs " << got_sums[c];
        for (size_t i = 0; i < len; ++i) {
            ASSERT_TRUE(sameBitsOrBothNaN(want_T[i], got_T[i]))
                << "trial " << trial << " T px " << i;
            ASSERT_TRUE(sameBitsOrBothNaN(want_acc[i], got_acc[i]))
                << "trial " << trial << " acc px " << i;
        }
    }
}

// ---------------------------------------------------------------------
// exp contracts over the live power range
// ---------------------------------------------------------------------

TEST(SimdExp, ApproxWithinSixteenUlpOverLiveRange)
{
    // The live range: powerSkip >= ln(alphaMin / opacity) - 1e-3 with
    // alphaMin = 1/255 and opacity <= 1, so power in (-5.6, 0].
    constexpr size_t kN = 20000;
    std::vector<Real> x(kN), y(kN);
    for (size_t i = 0; i < kN; ++i)
        x[i] = Real(-5.6) * static_cast<Real>(i) /
               static_cast<Real>(kN - 1);
    expApproxBatch(x.data(), y.data(), kN);
    u32 max_ulp = 0;
    for (size_t i = 0; i < kN; ++i) {
        float exact = std::exp(x[i]);
        max_ulp = std::max(max_ulp, ulpDiff(y[i], exact));
    }
    EXPECT_LE(max_ulp, 16u) << "approx exp out of contract";
    // The scalar twin honours the same bound independently of dispatch.
    max_ulp = 0;
    for (size_t i = 0; i < kN; ++i)
        max_ulp =
            std::max(max_ulp, ulpDiff(expApproxScalar(x[i]),
                                      std::exp(x[i])));
    EXPECT_LE(max_ulp, 16u) << "scalar approx twin out of contract";
}

TEST(SimdExp, FaithfulWithinOneUlpOverLiveRange)
{
    constexpr size_t kN = 20000;
    std::vector<Real> x(kN), y(kN);
    for (size_t i = 0; i < kN; ++i)
        x[i] = Real(-5.6) * static_cast<Real>(i) /
               static_cast<Real>(kN - 1);
    expFaithfulBatch(x.data(), y.data(), kN);
    u32 max_ulp = 0;
    for (size_t i = 0; i < kN; ++i)
        max_ulp = std::max(max_ulp, ulpDiff(y[i], std::exp(x[i])));
    EXPECT_LE(max_ulp, 1u) << "faithful exp out of contract";
}

// ---------------------------------------------------------------------
// fp16 conversions and packed-column semantics
// ---------------------------------------------------------------------

TEST(HalfFloat, RoundTripBoundsFp16)
{
    Rng rng(7);
    // Half-precision RNE: relative error <= 2^-11 for normal range.
    for (int i = 0; i < 20000; ++i) {
        float v = static_cast<float>(rng.uniform(-64.0, 64.0));
        float r = halfBitsToFloat(floatToHalfBits(v));
        EXPECT_LE(std::abs(r - v),
                  std::abs(v) * (1.0f / 2048) + 1e-6f)
            << "v=" << v;
    }
    // Specials.
    EXPECT_EQ(halfBitsToFloat(floatToHalfBits(0.0f)), 0.0f);
    EXPECT_TRUE(std::isinf(halfBitsToFloat(floatToHalfBits(1e6f))));
    EXPECT_TRUE(std::isnan(halfBitsToFloat(floatToHalfBits(NAN))));
    // Exact values survive exactly.
    for (float v : {1.0f, -2.5f, 0.125f, 1024.0f})
        EXPECT_EQ(halfBitsToFloat(floatToHalfBits(v)), v);
}

TEST(PackedColumn, LoadStoreAndCowSemantics)
{
    GaussianCloud cloud;
    for (int i = 0; i < 10; ++i) {
        cloud.pushIsotropic({Real(i) * 0.1f, 0, 2}, 0.2f, 0.5f,
                            {0.3f, 0.6f, 0.9f});
    }
    const Vec3f sh0 = cloud.shCoeffs.load(0);
    cloud.shCoeffs.setPrecision(ColumnPrecision::Half);
    cloud.opacityLogits.setPrecision(ColumnPrecision::Half);
    EXPECT_EQ(cloud.shCoeffs.precision(), ColumnPrecision::Half);
    EXPECT_EQ(cloud.shCoeffs.size(), 10u);
    // Narrowing error bounded by the fp16 contract.
    Vec3f got = cloud.shCoeffs.load(0);
    for (int c = 0; c < 3; ++c)
        EXPECT_NEAR(got[c], sh0[c], std::abs(sh0[c]) / 2048 + 1e-6f);
    // Packed byte footprint is half the fp32 one.
    EXPECT_EQ(cloud.shCoeffs.byteSize(), 10 * 3 * sizeof(u16));

    // COW: a copy shares; store() on the copy unshares only the copy.
    GaussianCloud snap = cloud;
    EXPECT_TRUE(snap.shCoeffs.shares(cloud.shCoeffs));
    snap.shCoeffs.store(3, {1, 2, 3});
    EXPECT_FALSE(snap.shCoeffs.shares(cloud.shCoeffs));
    EXPECT_NEAR(snap.shCoeffs.load(3).y, 2.0f, 2.0f / 2048);
    EXPECT_NE(cloud.shCoeffs.load(3).y, snap.shCoeffs.load(3).y);

    // pushBack / compactKeep on the packed representation.
    snap.pushIsotropic({0, 0, 3}, 0.2f, 0.4f, {0.1f, 0.2f, 0.3f});
    EXPECT_EQ(snap.shCoeffs.size(), 11u);
    std::vector<u8> keep(11, 1);
    keep[0] = 0;
    keep[5] = 0;
    snap.compact(keep);
    EXPECT_EQ(snap.size(), 9u);
    EXPECT_EQ(snap.shCoeffs.size(), 9u);

    // Round-trip back to fp32 restores raw access.
    snap.shCoeffs.setPrecision(ColumnPrecision::Full);
    EXPECT_EQ(snap.shCoeffs.precision(), ColumnPrecision::Full);
    (void)snap.shCoeffs.view();
}

// ---------------------------------------------------------------------
// worker-count determinism of every rung
// ---------------------------------------------------------------------

class SimdDeterminism
    : public ::testing::TestWithParam<PipelinePreset>
{
};

TEST_P(SimdDeterminism, BitwiseAcrossWorkerCounts)
{
    SimdScene scene(42);
    ThreadPool one(1), two(2), four(4);
    ForwardContext a = renderWith(scene, GetParam(), &one);
    ForwardContext b = renderWith(scene, GetParam(), &two);
    ForwardContext c = renderWith(scene, GetParam(), &four);
    EXPECT_TRUE(bitIdentical(a.result.image, b.result.image));
    EXPECT_TRUE(bitIdentical(a.result.image, c.result.image));
    for (size_t i = 0; i < a.result.image.pixelCount(); ++i) {
        ASSERT_EQ(a.result.finalT[i], b.result.finalT[i]);
        ASSERT_EQ(a.result.finalT[i], c.result.finalT[i]);
        ASSERT_EQ(a.result.nContrib[i], c.result.nContrib[i]);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Rungs, SimdDeterminism,
    ::testing::Values(PipelinePreset::Precise, PipelinePreset::Fast,
                      PipelinePreset::FastestApprox),
    [](const ::testing::TestParamInfo<PipelinePreset> &info) {
        return std::string(pipelinePresetName(info.param)) ==
                       "fastest_approx"
                   ? "fastest_approx"
                   : pipelinePresetName(info.param);
    });

// ---------------------------------------------------------------------
// rung sanity: the fast rungs stay close to precise
// ---------------------------------------------------------------------

TEST(SimdLadder, FastRungsTrackPrecise)
{
    SimdScene scene(11);
    ForwardContext precise =
        renderWith(scene, PipelinePreset::Precise, nullptr);
    ForwardContext fast =
        renderWith(scene, PipelinePreset::Fast, nullptr);
    ForwardContext approx =
        renderWith(scene, PipelinePreset::FastestApprox, nullptr);

    double max_fast = 0, max_approx = 0;
    for (size_t i = 0; i < precise.result.image.pixelCount(); ++i) {
        for (int c = 0; c < 3; ++c) {
            max_fast = std::max(
                max_fast,
                std::abs(double(fast.result.image[i][c]) -
                         double(precise.result.image[i][c])));
            max_approx = std::max(
                max_approx,
                std::abs(double(approx.result.image[i][c]) -
                         double(precise.result.image[i][c])));
        }
    }
    // `fast` only reassociates fp32 blending (exp faithful): tiny.
    EXPECT_LE(max_fast, 1e-4);
    // `fastest_approx` adds ~2e-7 exp error and fp16 colour/opacity
    // storage (relative 2^-11): still visually lossless territory.
    EXPECT_LE(max_approx, 2e-2);
    SUCCEED() << "dispatch level: "
              << simdLevelName(activeSimdLevel());
}

} // namespace rtgs::gs
