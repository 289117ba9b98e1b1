/**
 * @file
 * 8-wide AVX2 row kernels for all three rungs, plus the two vector exp
 * flavours of the fast rungs:
 *
 *  - expFaithful8: double-internal (two 4-wide halves), faithfully
 *    rounded to float — <= 1 ulp vs std::exp over the live range.
 *  - expApprox8:   single-precision Cephes-style degree-5 minimax,
 *    ~2e-7 relative error (contract: <= 16 ulp, asserted by
 *    tests/test_gs_simd.cc).
 *
 * This is the only TU compiled with -mavx2/-mfma (set per-file in
 * CMakeLists.txt); when the toolchain can't do that, the whole body
 * compiles away and rowKernelsAvx2() returns nullptr, so the
 * dispatcher falls back to scalar.
 *
 * Numeric contract of the `fast` and `fastest_approx` kernels:
 * identical fragment set and blend order to `precise` (same skip
 * tests, same per-pixel recurrences), fp32 state, but reassociated
 * lane arithmetic with FMA — results are deterministic per rung and
 * worker-count independent, just not bit-equal to scalar.
 *
 * The `precise` kernels (avx2-precise) instead repeat the scalar-exact
 * kernel's operations lane by lane in the same order: plain mul/add (no
 * FMA; the library builds with -ffp-contract=off), NaN-passing skip
 * tests, std::exp per live lane, masked stores, and the per-splat
 * gradient sums added in scalar in pixel order. Every non-NaN output
 * bit equals scalar-exact's; only NaN payload and sign bits may differ,
 * because operand order inside a commutative op is the compiler's.
 */

#include "gs/row_kernels.hh"

#if defined(__AVX2__) && defined(__FMA__)

#include <cmath>
#include <cstdint>
#include <immintrin.h>

namespace rtgs::gs
{

namespace
{

static_assert(sizeof(Real) == 4, "AVX2 kernels assume float Real");

/**
 * Per-lane i32 masks for a length-m tail (m in 1..8): the first m
 * lanes of maskTail(m) are all-ones. Index 8 - m into the shifting
 * window of ones.
 */
const i32 kTailMaskTable[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                0,  0,  0,  0,  0,  0,  0,  0};

inline __m256i
tailMask(u32 m)
{
    return _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(kTailMaskTable + (8 - m)));
}

/** Horizontal sum of 8 float lanes. */
inline float
sum8(__m256 v)
{
    __m128 lo = _mm256_castps256_ps128(v);
    __m128 hi = _mm256_extractf128_ps(v, 1);
    __m128 s = _mm_add_ps(lo, hi);
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    return _mm_cvtss_f32(s);
}

/** Popcount of a blend mask (number of set lanes). */
inline u32
laneCount(__m256 mask)
{
    return static_cast<u32>(
        __builtin_popcount(static_cast<unsigned>(_mm256_movemask_ps(mask))));
}

// det-lint: begin-allow(double-accum) — the exact-tier exp is double
// on purpose: it widens ONE value transcendentally and narrows back,
// which is precision-raising, not an accumulation path. The lint rule
// exists to stop float sums drifting through double accumulators; a
// faithfully-rounded scalar function is the sanctioned exception.
/** exp on 4 doubles, |x| <= 90: range reduce, degree-10 Taylor. */
inline __m256d
expDouble4(__m256d x)
{
    const __m256d inv_ln2 = _mm256_set1_pd(1.4426950408889634074);
    const __m256d ln2_hi = _mm256_set1_pd(6.93147180369123816490e-01);
    const __m256d ln2_lo = _mm256_set1_pd(1.90821492927058770002e-10);

    __m256d n = _mm256_round_pd(
        _mm256_mul_pd(x, inv_ln2),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    __m256d r = _mm256_fnmadd_pd(n, ln2_hi, x);
    r = _mm256_fnmadd_pd(n, ln2_lo, r);

    // Taylor to r^10 on [-ln2/2, ln2/2]: truncation ~2e-12 relative,
    // far below half a float ulp after the final narrowing.
    __m256d p = _mm256_set1_pd(1.0 / 3628800.0);
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 362880.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 40320.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 5040.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 720.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 120.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 24.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 6.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(0.5));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0));
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0));

    // Scale by 2^n through the exponent field (n in [-130, 1] here,
    // well inside the double exponent range).
    __m128i n32 = _mm256_cvtpd_epi32(n);
    __m256i n64 = _mm256_cvtepi32_epi64(n32);
    __m256i pow2 = _mm256_slli_epi64(
        _mm256_add_epi64(n64, _mm256_set1_epi64x(1023)), 52);
    return _mm256_mul_pd(p, _mm256_castsi256_pd(pow2));
}

/** Faithfully-rounded float exp: widen to double, exp, narrow. */
inline __m256
expFaithful8(__m256 x)
{
    __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(x));
    __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(x, 1));
    __m128 rlo = _mm256_cvtpd_ps(expDouble4(lo));
    __m128 rhi = _mm256_cvtpd_ps(expDouble4(hi));
    return _mm256_set_m128(rhi, rlo);
}
// det-lint: end-allow(double-accum)

/** Polynomial float exp, the vector form of expApproxScalar. */
inline __m256
expApprox8(__m256 x)
{
    const __m256 inv_ln2 = _mm256_set1_ps(1.44269504088896341f);
    const __m256 ln2_hi = _mm256_set1_ps(0.693359375f);
    const __m256 ln2_lo = _mm256_set1_ps(-2.12194440e-4f);

    __m256 n = _mm256_round_ps(
        _mm256_mul_ps(x, inv_ln2),
        _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    __m256 r = _mm256_fnmadd_ps(n, ln2_hi, x);
    r = _mm256_fnmadd_ps(n, ln2_lo, r);

    __m256 p = _mm256_set1_ps(1.9875691500e-4f);
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.3981999507e-3f));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(8.3334519073e-3f));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(4.1665795894e-2f));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(1.6666665459e-1f));
    p = _mm256_fmadd_ps(p, r, _mm256_set1_ps(5.0000001201e-1f));
    __m256 y = _mm256_fmadd_ps(_mm256_mul_ps(r, r), p,
                               _mm256_add_ps(r, _mm256_set1_ps(1.0f)));

    __m256i pow2 = _mm256_slli_epi32(
        _mm256_add_epi32(_mm256_cvtps_epi32(n), _mm256_set1_epi32(127)),
        23);
    return _mm256_mul_ps(y, _mm256_castsi256_ps(pow2));
}

/** Lane iota 0..7 as floats. */
inline __m256
iota8()
{
    return _mm256_setr_ps(0, 1, 2, 3, 4, 5, 6, 7);
}

/**
 * Forward row, 8 pixels per step. The structure mirrors the scalar
 * kernel exactly (same skip tests, same recurrences); lanes that fail
 * any test get a zeroed blend weight, so the unconditional accumulate
 * is a no-op for them. exp input is clamped to [-87, 0] so rejected
 * lanes (power > 0 or far below skip) still produce finite garbage
 * that the mask then discards.
 */
template <__m256 (*EXP8)(__m256)>
u32
forwardRowAvx2(const HotSplat &g, Real dy, u32 sx0, u32 n, u32 slot,
               const RowKernelCtx &ctx, const ForwardRowState &px,
               Real *)
{
    const __m256 vdy = _mm256_set1_ps(dy);
    const __m256 cxx = _mm256_set1_ps(g.cxx);
    const __m256 cxy2 = _mm256_set1_ps(2.0f * g.cxy);
    const __m256 cyy_dy2 =
        _mm256_mul_ps(_mm256_set1_ps(g.cyy), _mm256_mul_ps(vdy, vdy));
    const __m256 half = _mm256_set1_ps(-0.5f);
    const __m256 skip = _mm256_set1_ps(g.powerSkip);
    const __m256 zero = _mm256_setzero_ps();
    const __m256 opacity = _mm256_set1_ps(g.opacity);
    const __m256 alpha_min = _mm256_set1_ps(ctx.alphaMin);
    const __m256 alpha_max = _mm256_set1_ps(ctx.alphaMax);
    const __m256 t_eps = _mm256_set1_ps(ctx.tEps);
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 col_r = _mm256_set1_ps(g.r);
    const __m256 col_g = _mm256_set1_ps(g.g);
    const __m256 col_b = _mm256_set1_ps(g.b);
    const __m256 col_d = _mm256_set1_ps(g.depth);
    const __m256i vslot = _mm256_set1_epi32(static_cast<i32>(slot));
    // dx for lane 0; lane offsets via iota. Exact for coords < 2^24.
    const __m256 dx0 = _mm256_add_ps(
        _mm256_set1_ps(static_cast<float>(sx0) + 0.5f - g.mx), iota8());
    const __m256 eight = _mm256_set1_ps(8.0f);

    u32 newly_terminated = 0;
    __m256 vdx = dx0;
    for (u32 i = 0; i < n; i += 8, vdx = _mm256_add_ps(vdx, eight)) {
        const u32 m = n - i >= 8 ? 8 : n - i;
        const __m256i lane_mask = tailMask(m);

        // power = -0.5 (cxx dx^2 + 2 cxy dx dy + cyy dy^2)
        __m256 q = _mm256_fmadd_ps(
            _mm256_mul_ps(cxx, vdx), vdx,
            _mm256_fmadd_ps(_mm256_mul_ps(cxy2, vdx), vdy, cyy_dy2));
        __m256 power = _mm256_mul_ps(half, q);

        __m256 blend = _mm256_and_ps(
            _mm256_cmp_ps(power, zero, _CMP_LE_OQ),
            _mm256_cmp_ps(power, skip, _CMP_GE_OQ));
        blend = _mm256_and_ps(blend, _mm256_castsi256_ps(lane_mask));
        if (_mm256_testz_ps(blend, blend))
            continue;

        __m256 T = m == 8
                       ? _mm256_loadu_ps(px.T + i)
                       : _mm256_maskload_ps(px.T + i, lane_mask);
        blend = _mm256_and_ps(blend,
                              _mm256_cmp_ps(T, t_eps, _CMP_GE_OQ));

        __m256 x = _mm256_max_ps(_mm256_set1_ps(-87.0f),
                                 _mm256_min_ps(power, zero));
        __m256 alpha =
            _mm256_min_ps(alpha_max, _mm256_mul_ps(opacity, EXP8(x)));
        blend = _mm256_and_ps(
            blend, _mm256_cmp_ps(alpha, alpha_min, _CMP_GE_OQ));
        if (_mm256_testz_ps(blend, blend))
            continue;

        // Masked lanes blend with alpha = 0: T and the accumulators
        // are unchanged there, so one unconditional store suffices.
        alpha = _mm256_and_ps(alpha, blend);
        __m256 w = _mm256_mul_ps(alpha, T);
        __m256 t_next = _mm256_mul_ps(T, _mm256_sub_ps(one, alpha));

        if (m == 8) {
            _mm256_storeu_ps(px.r + i, _mm256_fmadd_ps(
                col_r, w, _mm256_loadu_ps(px.r + i)));
            _mm256_storeu_ps(px.g + i, _mm256_fmadd_ps(
                col_g, w, _mm256_loadu_ps(px.g + i)));
            _mm256_storeu_ps(px.b + i, _mm256_fmadd_ps(
                col_b, w, _mm256_loadu_ps(px.b + i)));
            _mm256_storeu_ps(px.d + i, _mm256_fmadd_ps(
                col_d, w, _mm256_loadu_ps(px.d + i)));
            _mm256_storeu_ps(px.T + i, t_next);
        } else {
            _mm256_maskstore_ps(px.r + i, lane_mask, _mm256_fmadd_ps(
                col_r, w, _mm256_maskload_ps(px.r + i, lane_mask)));
            _mm256_maskstore_ps(px.g + i, lane_mask, _mm256_fmadd_ps(
                col_g, w, _mm256_maskload_ps(px.g + i, lane_mask)));
            _mm256_maskstore_ps(px.b + i, lane_mask, _mm256_fmadd_ps(
                col_b, w, _mm256_maskload_ps(px.b + i, lane_mask)));
            _mm256_maskstore_ps(px.d + i, lane_mask, _mm256_fmadd_ps(
                col_d, w, _mm256_maskload_ps(px.d + i, lane_mask)));
            _mm256_maskstore_ps(px.T + i, lane_mask, t_next);
        }

        // blended += 1 on blend lanes (mask is -1 there: subtract).
        i32 *blended_i = reinterpret_cast<i32 *>(px.blended + i);
        const __m256i blend_i = _mm256_castps_si256(blend);
        __m256i bl = _mm256_sub_epi32(
            _mm256_maskload_epi32(blended_i, lane_mask), blend_i);
        _mm256_maskstore_epi32(blended_i, lane_mask, bl);

        // Newly terminated: blended this step and fell below t_eps.
        __m256 term = _mm256_and_ps(
            blend, _mm256_cmp_ps(t_next, t_eps, _CMP_LT_OQ));
        if (!_mm256_testz_ps(term, term)) {
            i32 *term_i = reinterpret_cast<i32 *>(px.term + i);
            _mm256_maskstore_epi32(term_i, _mm256_castps_si256(term),
                                   vslot);
            newly_terminated += laneCount(term);
        }
    }
    return newly_terminated;
}

/**
 * Backward row, 8 pixels per step. Per-splat gradient sums live in
 * vector accumulators for the row and are horizontally reduced into
 * `out` once at the end — a reassociation the fast rungs permit.
 */
template <__m256 (*EXP8)(__m256)>
void
backwardRowAvx2(const HotSplat &g, Real dy, u32 sx0, u32 n, u32 slot,
                const RowKernelCtx &ctx, const BackwardRowState &px,
                BackwardSplatAccum &out, Real *)
{
    const __m256 vdy = _mm256_set1_ps(dy);
    const __m256 cxx = _mm256_set1_ps(g.cxx);
    const __m256 cxy2 = _mm256_set1_ps(2.0f * g.cxy);
    const __m256 cyy_dy2 =
        _mm256_mul_ps(_mm256_set1_ps(g.cyy), _mm256_mul_ps(vdy, vdy));
    const __m256 half = _mm256_set1_ps(-0.5f);
    const __m256 skip = _mm256_set1_ps(g.powerSkip);
    const __m256 zero = _mm256_setzero_ps();
    const __m256 opacity = _mm256_set1_ps(g.opacity);
    const __m256 alpha_min = _mm256_set1_ps(ctx.alphaMin);
    const __m256 alpha_max = _mm256_set1_ps(ctx.alphaMax);
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 col_r = _mm256_set1_ps(g.r);
    const __m256 col_g = _mm256_set1_ps(g.g);
    const __m256 col_b = _mm256_set1_ps(g.b);
    const __m256 col_d = _mm256_set1_ps(g.depth);
    const __m256i vslot = _mm256_set1_epi32(static_cast<i32>(slot));
    const __m256 dx0 = _mm256_add_ps(
        _mm256_set1_ps(static_cast<float>(sx0) + 0.5f - g.mx), iota8());
    const __m256 eight = _mm256_set1_ps(8.0f);

    __m256 a_r = zero, a_g = zero, a_b = zero, a_d = zero, a_op = zero;
    __m256 a_sx = zero, a_sy = zero;
    __m256 a_sxx = zero, a_sxy = zero, a_syy = zero;
    bool any = false;

    __m256 vdx = dx0;
    for (u32 i = 0; i < n; i += 8, vdx = _mm256_add_ps(vdx, eight)) {
        const u32 m = n - i >= 8 ? 8 : n - i;
        const __m256i lane_mask = tailMask(m);

        __m256 q = _mm256_fmadd_ps(
            _mm256_mul_ps(cxx, vdx), vdx,
            _mm256_fmadd_ps(_mm256_mul_ps(cxy2, vdx), vdy, cyy_dy2));
        __m256 power = _mm256_mul_ps(half, q);

        __m256 blend = _mm256_and_ps(
            _mm256_cmp_ps(power, zero, _CMP_LE_OQ),
            _mm256_cmp_ps(power, skip, _CMP_GE_OQ));
        blend = _mm256_and_ps(blend, _mm256_castsi256_ps(lane_mask));
        if (_mm256_testz_ps(blend, blend))
            continue;

        // ce test: this splat blended forward only where slot < ce.
        const i32 *ce_i = reinterpret_cast<const i32 *>(px.ce + i);
        __m256i ce = _mm256_maskload_epi32(ce_i, lane_mask);
        blend = _mm256_and_ps(
            blend,
            _mm256_castsi256_ps(_mm256_cmpgt_epi32(ce, vslot)));
        if (_mm256_testz_ps(blend, blend))
            continue;

        __m256 x = _mm256_max_ps(_mm256_set1_ps(-87.0f),
                                 _mm256_min_ps(power, zero));
        __m256 gval = EXP8(x);
        __m256 raw_alpha = _mm256_mul_ps(opacity, gval);
        __m256 clamped =
            _mm256_cmp_ps(raw_alpha, alpha_max, _CMP_GT_OQ);
        __m256 alpha = _mm256_min_ps(alpha_max, raw_alpha);
        blend = _mm256_and_ps(
            blend, _mm256_cmp_ps(alpha, alpha_min, _CMP_GE_OQ));
        if (_mm256_testz_ps(blend, blend))
            continue;
        any = true;

        __m256 T = m == 8
                       ? _mm256_loadu_ps(px.T + i)
                       : _mm256_maskload_ps(px.T + i, lane_mask);
        __m256 acc = m == 8
                         ? _mm256_loadu_ps(px.acc + i)
                         : _mm256_maskload_ps(px.acc + i, lane_mask);
        __m256 dlR = m == 8
                         ? _mm256_loadu_ps(px.dlR + i)
                         : _mm256_maskload_ps(px.dlR + i, lane_mask);
        __m256 dlG = m == 8
                         ? _mm256_loadu_ps(px.dlG + i)
                         : _mm256_maskload_ps(px.dlG + i, lane_mask);
        __m256 dlB = m == 8
                         ? _mm256_loadu_ps(px.dlB + i)
                         : _mm256_maskload_ps(px.dlB + i, lane_mask);
        __m256 dlD = m == 8
                         ? _mm256_loadu_ps(px.dlD + i)
                         : _mm256_maskload_ps(px.dlD + i, lane_mask);
        __m256 bgT = m == 8
                         ? _mm256_loadu_ps(px.bgT + i)
                         : _mm256_maskload_ps(px.bgT + i, lane_mask);

        __m256 om = _mm256_sub_ps(one, alpha);
        __m256 inv_om = _mm256_div_ps(one, om);
        __m256 t_before = _mm256_mul_ps(T, inv_om);
        // Rewind T only on blend lanes.
        __m256 T_new = _mm256_blendv_ps(T, t_before, blend);

        __m256 w = _mm256_and_ps(_mm256_mul_ps(alpha, t_before), blend);
        a_r = _mm256_fmadd_ps(dlR, w, a_r);
        a_g = _mm256_fmadd_ps(dlG, w, a_g);
        a_b = _mm256_fmadd_ps(dlB, w, a_b);
        a_d = _mm256_fmadd_ps(dlD, w, a_d);

        __m256 gd = _mm256_fmadd_ps(
            col_r, dlR,
            _mm256_fmadd_ps(col_g, dlG,
                            _mm256_fmadd_ps(col_b, dlB,
                                            _mm256_mul_ps(col_d, dlD))));

        __m256 grad = _mm256_andnot_ps(clamped, blend);
        __m256 dl_dalpha = _mm256_fnmadd_ps(
            bgT, inv_om,
            _mm256_mul_ps(_mm256_sub_ps(gd, acc), t_before));
        dl_dalpha = _mm256_and_ps(dl_dalpha, grad);

        a_op = _mm256_fmadd_ps(gval, dl_dalpha, a_op);
        __m256 dl_dpower = _mm256_mul_ps(alpha, dl_dalpha);
        __m256 mx = _mm256_mul_ps(vdx, dl_dpower);
        __m256 my = _mm256_mul_ps(vdy, dl_dpower);
        a_sx = _mm256_add_ps(a_sx, mx);
        a_sy = _mm256_add_ps(a_sy, my);
        a_sxx = _mm256_fmadd_ps(vdx, mx, a_sxx);
        a_sxy = _mm256_fmadd_ps(vdx, my, a_sxy);
        a_syy = _mm256_fmadd_ps(vdy, my, a_syy);

        // acc' = gd alpha + acc (1 - alpha) on blend lanes.
        __m256 acc_new = _mm256_blendv_ps(
            acc, _mm256_fmadd_ps(gd, alpha, _mm256_mul_ps(acc, om)),
            blend);
        if (m == 8) {
            _mm256_storeu_ps(px.T + i, T_new);
            _mm256_storeu_ps(px.acc + i, acc_new);
        } else {
            _mm256_maskstore_ps(px.T + i, lane_mask, T_new);
            _mm256_maskstore_ps(px.acc + i, lane_mask, acc_new);
        }
    }

    if (!any)
        return;
    out.dR += sum8(a_r);
    out.dG += sum8(a_g);
    out.dB += sum8(a_b);
    out.dDepth += sum8(a_d);
    out.dOp += sum8(a_op);
    out.sX += sum8(a_sx);
    out.sY += sum8(a_sy);
    out.sXX += sum8(a_sxx);
    out.sXY += sum8(a_sxy);
    out.sYY += sum8(a_syy);
}

/**
 * Exact u32 -> float of 8 lanes, rounding like the scalar
 * static_cast: both 16-bit halves convert exactly, so the one add
 * rounds once (cvtepi32_ps alone would misread lanes >= 2^31).
 */
inline __m256
u32ToFloat8(__m256i v)
{
    __m256 hi = _mm256_cvtepi32_ps(_mm256_srli_epi32(v, 16));
    __m256 lo = _mm256_cvtepi32_ps(
        _mm256_and_si256(v, _mm256_set1_epi32(0xFFFF)));
    return _mm256_add_ps(_mm256_mul_ps(hi, _mm256_set1_ps(65536.0f)), lo);
}

/**
 * evalPowerRow's operation sequence on 8 lanes: dx =
 * (float(sx0 + i) + 0.5) - mx and power = -0.5 * ((cxx dx dx +
 * 2 cxy dx dy) + cyy dy dy), every product and sum rounded in the
 * scalar order. cyy dy dy is the same value for the whole row, so it is
 * computed once.
 */
struct PowerRow8
{
    __m256 mx, cxx, cxy2, dy, cyy_dy_dy;

    PowerRow8(const HotSplat &g, Real row_dy)
        : mx(_mm256_set1_ps(g.mx)), cxx(_mm256_set1_ps(g.cxx)),
          cxy2(_mm256_set1_ps(Real(2) * g.cxy)),
          dy(_mm256_set1_ps(row_dy)),
          cyy_dy_dy(_mm256_set1_ps(g.cyy * row_dy * row_dy))
    {
    }

    /** Power of pixels x..x+7; their dx offsets go to `dx`. */
    __m256
    eval(u32 x, __m256 &dx) const
    {
        __m256i px = _mm256_add_epi32(
            _mm256_set1_epi32(static_cast<i32>(x)),
            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        dx = _mm256_sub_ps(
            _mm256_add_ps(u32ToFloat8(px), _mm256_set1_ps(0.5f)), mx);
        __m256 q = _mm256_add_ps(
            _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(cxx, dx), dx),
                          _mm256_mul_ps(_mm256_mul_ps(cxy2, dx), dy)),
            cyy_dy_dy);
        return _mm256_mul_ps(_mm256_set1_ps(-0.5f), q);
    }

    /**
     * Lanes passing the scalar kernel's `power > 0` and `power < skip`
     * rejects. The unordered predicates let a NaN power through, as
     * the scalar `continue`s do.
     */
    static __m256
    inRange(__m256 power, __m256 skip)
    {
        return _mm256_and_ps(
            _mm256_cmp_ps(power, _mm256_setzero_ps(), _CMP_NGT_UQ),
            _mm256_cmp_ps(power, skip, _CMP_NLT_UQ));
    }
};

/**
 * std::exp of every `live` lane, in lane order; other lanes read 0.
 * One libm call per live pixel is the precise contract: a vector exp
 * would round differently. Calling it per 8-pixel step keeps each row
 * to one pass; a row spans at most one tile width (16 pixels by
 * default), so most rows are one or two steps.
 */
inline __m256
expLive(__m256 x, __m256 live)
{
    alignas(32) float in[8];
    alignas(32) float out[8] = {};
    _mm256_store_ps(in, x);
    for (unsigned bits = static_cast<unsigned>(_mm256_movemask_ps(live));
         bits != 0; bits &= bits - 1) {
        const int j = __builtin_ctz(bits);
        out[j] = std::exp(in[j]);
    }
    return _mm256_load_ps(out);
}

/** Forward row of the `precise` rung: forwardRowScalar<stdExp>, 8-wide. */
u32
forwardRowPrecise(const HotSplat &g, Real dy, u32 sx0, u32 n, u32 slot,
                  const RowKernelCtx &ctx, const ForwardRowState &px,
                  Real *)
{
    const PowerRow8 row(g, dy);
    const __m256 skip = _mm256_set1_ps(g.powerSkip);
    const __m256 opacity = _mm256_set1_ps(g.opacity);
    const __m256 alpha_min = _mm256_set1_ps(ctx.alphaMin);
    const __m256 alpha_max = _mm256_set1_ps(ctx.alphaMax);
    const __m256 t_eps = _mm256_set1_ps(ctx.tEps);
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 col_r = _mm256_set1_ps(g.r);
    const __m256 col_g = _mm256_set1_ps(g.g);
    const __m256 col_b = _mm256_set1_ps(g.b);
    const __m256 col_d = _mm256_set1_ps(g.depth);
    const __m256i vslot = _mm256_set1_epi32(static_cast<i32>(slot));

    u32 newly_terminated = 0;
    for (u32 i = 0; i < n; i += 8) {
        const __m256i lanes = tailMask(n - i >= 8 ? 8 : n - i);
        __m256 dx;
        const __m256 power = row.eval(sx0 + i, dx);
        __m256 live = _mm256_and_ps(PowerRow8::inRange(power, skip),
                                    _mm256_castsi256_ps(lanes));
        if (_mm256_testz_ps(live, live))
            continue;
        const __m256 T = _mm256_maskload_ps(px.T + i, lanes);
        live = _mm256_and_ps(live, _mm256_cmp_ps(T, t_eps, _CMP_NLT_UQ));
        if (_mm256_testz_ps(live, live))
            continue;
        // std::min(alphaMax, a) is (a < alphaMax ? a : alphaMax), which
        // is exactly minps(a, alphaMax), NaN included.
        const __m256 alpha = _mm256_min_ps(
            _mm256_mul_ps(opacity, expLive(power, live)), alpha_max);
        live = _mm256_and_ps(live,
                             _mm256_cmp_ps(alpha, alpha_min, _CMP_NLT_UQ));
        if (_mm256_testz_ps(live, live))
            continue;

        // Only blending lanes are loaded and stored: every other lane
        // keeps its bits, signed zeros and NaNs included.
        const __m256i blend = _mm256_castps_si256(live);
        const __m256 t_next = _mm256_mul_ps(T, _mm256_sub_ps(one, alpha));
        const __m256 w = _mm256_mul_ps(alpha, T);
        _mm256_maskstore_ps(
            px.r + i, blend,
            _mm256_add_ps(_mm256_maskload_ps(px.r + i, blend),
                          _mm256_mul_ps(col_r, w)));
        _mm256_maskstore_ps(
            px.g + i, blend,
            _mm256_add_ps(_mm256_maskload_ps(px.g + i, blend),
                          _mm256_mul_ps(col_g, w)));
        _mm256_maskstore_ps(
            px.b + i, blend,
            _mm256_add_ps(_mm256_maskload_ps(px.b + i, blend),
                          _mm256_mul_ps(col_b, w)));
        _mm256_maskstore_ps(
            px.d + i, blend,
            _mm256_add_ps(_mm256_maskload_ps(px.d + i, blend),
                          _mm256_mul_ps(col_d, w)));
        _mm256_maskstore_ps(px.T + i, blend, t_next);

        // blended += 1 on blend lanes (the mask is -1 there).
        i32 *blended_i = reinterpret_cast<i32 *>(px.blended + i);
        _mm256_maskstore_epi32(
            blended_i, blend,
            _mm256_sub_epi32(_mm256_maskload_epi32(blended_i, blend),
                             blend));

        const __m256 term =
            _mm256_and_ps(live, _mm256_cmp_ps(t_next, t_eps, _CMP_LT_OQ));
        if (!_mm256_testz_ps(term, term)) {
            _mm256_maskstore_epi32(reinterpret_cast<i32 *>(px.term + i),
                                   _mm256_castps_si256(term), vslot);
            newly_terminated += laneCount(term);
        }
    }
    return newly_terminated;
}

/**
 * Backward row of the `precise` rung: backwardRowScalar<stdExp> with the
 * per-pixel recurrences 8-wide. The per-lane gradient products come out
 * of SIMD; their sums into the splat's ten accumulators stay scalar and
 * in pixel order, so every rounding matches the scalar kernel's.
 */
void
backwardRowPrecise(const HotSplat &g, Real dy, u32 sx0, u32 n, u32 slot,
                   const RowKernelCtx &ctx, const BackwardRowState &px,
                   BackwardSplatAccum &out, Real *)
{
    const PowerRow8 row(g, dy);
    const __m256 skip = _mm256_set1_ps(g.powerSkip);
    const __m256 opacity = _mm256_set1_ps(g.opacity);
    const __m256 alpha_min = _mm256_set1_ps(ctx.alphaMin);
    const __m256 alpha_max = _mm256_set1_ps(ctx.alphaMax);
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 col_r = _mm256_set1_ps(g.r);
    const __m256 col_g = _mm256_set1_ps(g.g);
    const __m256 col_b = _mm256_set1_ps(g.b);
    const __m256 col_d = _mm256_set1_ps(g.depth);
    // Unsigned slot < ce as a signed compare of sign-flipped values.
    const __m256i flip = _mm256_set1_epi32(INT32_MIN);
    const __m256i vslot =
        _mm256_xor_si256(_mm256_set1_epi32(static_cast<i32>(slot)), flip);

    Real d_r = out.dR, d_g = out.dG, d_b = out.dB;
    Real d_depth = out.dDepth, d_op = out.dOp;
    Real s_x = out.sX, s_y = out.sY;
    Real s_xx = out.sXX, s_xy = out.sXY, s_yy = out.sYY;
    alignas(32) float p_r[8], p_g[8], p_b[8], p_d[8], p_op[8];
    alignas(32) float p_x[8], p_y[8], p_xx[8], p_xy[8], p_yy[8];

    for (u32 i = 0; i < n; i += 8) {
        const __m256i lanes = tailMask(n - i >= 8 ? 8 : n - i);
        __m256 dx;
        const __m256 power = row.eval(sx0 + i, dx);
        __m256 live = _mm256_and_ps(PowerRow8::inRange(power, skip),
                                    _mm256_castsi256_ps(lanes));
        if (_mm256_testz_ps(live, live))
            continue;
        const __m256i ce = _mm256_maskload_epi32(
            reinterpret_cast<const i32 *>(px.ce + i), lanes);
        live = _mm256_and_ps(live, _mm256_castsi256_ps(_mm256_cmpgt_epi32(
                                       _mm256_xor_si256(ce, flip), vslot)));
        if (_mm256_testz_ps(live, live))
            continue;
        const __m256 gval = expLive(power, live);
        const __m256 raw_alpha = _mm256_mul_ps(opacity, gval);
        const __m256 clamped =
            _mm256_cmp_ps(raw_alpha, alpha_max, _CMP_GT_OQ);
        const __m256 alpha = _mm256_blendv_ps(raw_alpha, alpha_max, clamped);
        live = _mm256_and_ps(live,
                             _mm256_cmp_ps(alpha, alpha_min, _CMP_NLT_UQ));
        if (_mm256_testz_ps(live, live))
            continue;

        const __m256i blend = _mm256_castps_si256(live);
        const __m256 T = _mm256_maskload_ps(px.T + i, blend);
        const __m256 acc = _mm256_maskload_ps(px.acc + i, blend);
        const __m256 dlR = _mm256_maskload_ps(px.dlR + i, blend);
        const __m256 dlG = _mm256_maskload_ps(px.dlG + i, blend);
        const __m256 dlB = _mm256_maskload_ps(px.dlB + i, blend);
        const __m256 dlD = _mm256_maskload_ps(px.dlD + i, blend);
        const __m256 bgT = _mm256_maskload_ps(px.bgT + i, blend);

        const __m256 om = _mm256_sub_ps(one, alpha);
        const __m256 inv_om = _mm256_div_ps(one, om);
        const __m256 t_before = _mm256_mul_ps(T, inv_om);
        const __m256 w = _mm256_mul_ps(alpha, t_before);
        const __m256 gd = _mm256_add_ps(
            _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(col_r, dlR),
                                        _mm256_mul_ps(col_g, dlG)),
                          _mm256_mul_ps(col_b, dlB)),
            _mm256_mul_ps(col_d, dlD));
        const __m256 dl_dalpha =
            _mm256_sub_ps(_mm256_mul_ps(_mm256_sub_ps(gd, acc), t_before),
                          _mm256_mul_ps(bgT, inv_om));
        const __m256 dl_dpower = _mm256_mul_ps(alpha, dl_dalpha);
        const __m256 mx = _mm256_mul_ps(dx, dl_dpower);
        const __m256 my = _mm256_mul_ps(row.dy, dl_dpower);

        _mm256_store_ps(p_r, _mm256_mul_ps(dlR, w));
        _mm256_store_ps(p_g, _mm256_mul_ps(dlG, w));
        _mm256_store_ps(p_b, _mm256_mul_ps(dlB, w));
        _mm256_store_ps(p_d, _mm256_mul_ps(dlD, w));
        _mm256_store_ps(p_op, _mm256_mul_ps(gval, dl_dalpha));
        _mm256_store_ps(p_x, mx);
        _mm256_store_ps(p_y, my);
        _mm256_store_ps(p_xx, _mm256_mul_ps(dx, mx));
        _mm256_store_ps(p_xy, _mm256_mul_ps(dx, my));
        _mm256_store_ps(p_yy, _mm256_mul_ps(row.dy, my));

        _mm256_maskstore_ps(px.T + i, blend, t_before);
        _mm256_maskstore_ps(
            px.acc + i, blend,
            _mm256_add_ps(_mm256_mul_ps(gd, alpha), _mm256_mul_ps(acc, om)));

        const unsigned unclamped =
            ~static_cast<unsigned>(_mm256_movemask_ps(clamped));
        for (unsigned bits = static_cast<unsigned>(_mm256_movemask_ps(live));
             bits != 0; bits &= bits - 1) {
            const int j = __builtin_ctz(bits);
            d_r += p_r[j];
            d_g += p_g[j];
            d_b += p_b[j];
            d_depth += p_d[j];
            if (unclamped & (1u << j)) {
                d_op += p_op[j];
                s_x += p_x[j];
                s_y += p_y[j];
                s_xx += p_xx[j];
                s_xy += p_xy[j];
                s_yy += p_yy[j];
            }
        }
    }

    out.dR = d_r;
    out.dG = d_g;
    out.dB = d_b;
    out.dDepth = d_depth;
    out.dOp = d_op;
    out.sX = s_x;
    out.sY = s_y;
    out.sXX = s_xx;
    out.sXY = s_xy;
    out.sYY = s_yy;
}

const RowKernels kAvx2Precise{forwardRowPrecise, backwardRowPrecise,
                              "avx2-precise"};
const RowKernels kAvx2Exact{forwardRowAvx2<expFaithful8>,
                            backwardRowAvx2<expFaithful8>, "avx2-exact"};
const RowKernels kAvx2Approx{forwardRowAvx2<expApprox8>,
                             backwardRowAvx2<expApprox8>, "avx2-approx"};

} // namespace

const RowKernels *
rowKernelsAvx2(PipelinePreset preset)
{
    switch (preset) {
    case PipelinePreset::Precise:
        return &kAvx2Precise;
    case PipelinePreset::Fast:
        return &kAvx2Exact;
    case PipelinePreset::FastestApprox:
        return &kAvx2Approx;
    }
    return nullptr;
}

bool
expBatchAvx2(const Real *x, Real *out, size_t n, bool approx)
{
    size_t i = 0;
    const __m256 lo = _mm256_set1_ps(-87.0f);
    for (; i + 8 <= n; i += 8) {
        __m256 v = _mm256_max_ps(lo, _mm256_loadu_ps(x + i));
        _mm256_storeu_ps(out + i, approx ? expApprox8(v)
                                         : expFaithful8(v));
    }
    if (i < n) {
        Real buf_in[8] = {};
        Real buf_out[8];
        for (size_t j = i; j < n; ++j)
            buf_in[j - i] = x[j];
        __m256 v = _mm256_max_ps(lo, _mm256_loadu_ps(buf_in));
        _mm256_storeu_ps(buf_out, approx ? expApprox8(v)
                                         : expFaithful8(v));
        for (size_t j = i; j < n; ++j)
            out[j] = buf_out[j - i];
    }
    return true;
}

} // namespace rtgs::gs

#else // !(__AVX2__ && __FMA__)

namespace rtgs::gs
{

const RowKernels *
rowKernelsAvx2(PipelinePreset)
{
    return nullptr; // toolchain built this TU without AVX2 support
}

bool
expBatchAvx2(const Real *, Real *, size_t, bool)
{
    return false;
}

} // namespace rtgs::gs

#endif
