#include "gs/row_kernels.hh"

#include <algorithm>
#include <cmath>

namespace rtgs::gs
{

namespace
{

/**
 * Shared scalar body for the exact and approx forward rows. EXP is
 * either std::exp (the `precise` contract: operation-for-operation the
 * pre-ladder loop, byte-identical to the serial reference; the
 * avx2-precise kernel repeats it lane by lane) or the polynomial twin.
 * Everything else — skip tests, blend order, the termination
 * bookkeeping — is common, which is exactly the point: a
 * rung may only change how exp is evaluated, never which fragments
 * blend in which order.
 */
template <Real (*EXP)(Real)>
u32
forwardRowScalar(const HotSplat &g, Real dy, u32 sx0, u32 n, u32 slot,
                 const RowKernelCtx &ctx, const ForwardRowState &px,
                 Real *scratch)
{
    Real *__restrict power_row = scratch;
    evalPowerRow(g, dy, sx0, n, power_row, nullptr);

    const Real skip = g.powerSkip;
    u32 newly_terminated = 0;
    for (u32 i = 0; i < n; ++i) {
        Real power = power_row[i];
        if (power > 0)
            continue;
        if (power < skip)
            continue;
        Real T = px.T[i];
        if (T < ctx.tEps)
            continue; // terminated earlier in the stream
        Real alpha = std::min(ctx.alphaMax, g.opacity * EXP(power));
        if (alpha < ctx.alphaMin)
            continue;

        Real t_next = T * (1 - alpha);
        // Early termination preserves compositing order (Sec 2.1).
        Real w = alpha * T;
        px.r[i] += g.r * w;
        px.g[i] += g.g * w;
        px.b[i] += g.b * w;
        px.d[i] += g.depth * w;
        ++px.blended[i];
        px.T[i] = t_next;
        if (t_next < ctx.tEps) {
            px.term[i] = slot;
            ++newly_terminated;
        }
    }
    return newly_terminated;
}

/** Scalar backward row, same EXP parameterisation as the forward. */
template <Real (*EXP)(Real)>
void
backwardRowScalar(const HotSplat &g, Real dy, u32 sx0, u32 n, u32 slot,
                  const RowKernelCtx &ctx, const BackwardRowState &px,
                  BackwardSplatAccum &out, Real *scratch)
{
    Real *__restrict power_row = scratch;
    Real *__restrict dx_row = scratch + n;
    evalPowerRow(g, dy, sx0, n, power_row, dx_row);

    const Real skip = g.powerSkip;
    Real d_r = out.dR, d_g = out.dG, d_b = out.dB;
    Real d_depth = out.dDepth, d_op = out.dOp;
    Real s_x = out.sX, s_y = out.sY;
    Real s_xx = out.sXX, s_xy = out.sXY, s_yy = out.sYY;

    for (u32 i = 0; i < n; ++i) {
        Real power = power_row[i];
        if (power > 0)
            continue;
        if (power < skip)
            continue;
        if (slot >= px.ce[i])
            continue; // never examined forward at this pixel
        Real gval = EXP(power);
        Real raw_alpha = g.opacity * gval;
        bool clamped = raw_alpha > ctx.alphaMax;
        Real alpha = clamped ? ctx.alphaMax : raw_alpha;
        if (alpha < ctx.alphaMin)
            continue;

        // Recover the transmittance in front of this fragment from the
        // running rear value; the forward pass only stored the final
        // product.
        Real om = 1 - alpha;
        Real inv_om = Real(1) / om;
        Real t_before = px.T[i] * inv_om;
        px.T[i] = t_before;

        // Colour gradient: dC/dc_j = alpha_j * T_j.
        Real w = alpha * t_before;
        d_r += px.dlR[i] * w;
        d_g += px.dlG[i] * w;
        d_b += px.dlB[i] * w;
        d_depth += px.dlD[i] * w;

        // The splat's colour/depth dotted with the adjoints; feeds
        // both Eq. 4 and the rear accumulation.
        Real gd = g.r * px.dlR[i] + g.g * px.dlG[i] + g.b * px.dlB[i] +
                  g.depth * px.dlD[i];
        Real acc = px.acc[i];

        if (!clamped) {
            // Alpha gradient: Eq. 4 plus the background term.
            Real dl_dalpha = (gd - acc) * t_before - px.bgT[i] * inv_om;

            // alpha = opacity * G, G = exp(power).
            d_op += gval * dl_dalpha;
            Real dl_dpower = alpha * dl_dalpha;

            // power = -0.5 d^T conic d, d = pixel - mean2d.
            Real dx = dx_row[i];
            Real mx = dx * dl_dpower;
            Real my = dy * dl_dpower;
            s_x += mx;
            s_y += my;
            s_xx += dx * mx;
            s_xy += dx * my;
            s_yy += dy * my;
        }

        // Rear accumulation now includes this fragment; the next
        // (front-er) fragment's Eq. 4 term reads it.
        px.acc[i] = gd * alpha + acc * om;
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

Real
stdExp(Real x)
{
    return std::exp(x);
}

const RowKernels kScalarExact{forwardRowScalar<stdExp>,
                              backwardRowScalar<stdExp>, "scalar-exact"};
const RowKernels kScalarApprox{forwardRowScalar<expApproxScalar>,
                               backwardRowScalar<expApproxScalar>,
                               "scalar-approx"};

} // namespace

Real
expApproxScalar(Real x)
{
    // Cephes-style expf: n = round(x / ln 2), two-step ln 2 subtraction
    // keeps the reduced argument accurate, then a degree-5 minimax for
    // exp(r) = 1 + r + r^2 P(r) on [-ln2/2, ln2/2]. Plain mul/add on
    // purpose: the baseline TU has no hardware FMA, and std::fma would
    // fall back to libm soft-float — slower than std::exp itself.
    Real n = std::nearbyint(x * Real(1.44269504088896341));
    Real r = x - n * Real(0.693359375);
    r -= n * Real(-2.12194440e-4);

    Real p = Real(1.9875691500e-4);
    p = p * r + Real(1.3981999507e-3);
    p = p * r + Real(8.3334519073e-3);
    p = p * r + Real(4.1665795894e-2);
    p = p * r + Real(1.6666665459e-1);
    p = p * r + Real(5.0000001201e-1);
    Real y = r * r * p + r + Real(1);

    // Scale by 2^n through the exponent bits; n is in [-127, 1] for any
    // x >= -87, so the bias never underflows.
    union {
        float f;
        u32 u;
    } s;
    s.u = static_cast<u32>((static_cast<i32>(n) + 127) << 23);
    return y * s.f;
}

void
expApproxBatch(const Real *x, Real *out, size_t n)
{
    if (activeSimdLevel() == SimdLevel::Avx2 &&
        expBatchAvx2(x, out, n, /*approx=*/true)) {
        return;
    }
    for (size_t i = 0; i < n; ++i)
        out[i] = expApproxScalar(x[i]);
}

void
expFaithfulBatch(const Real *x, Real *out, size_t n)
{
    if (activeSimdLevel() == SimdLevel::Avx2 &&
        expBatchAvx2(x, out, n, /*approx=*/false)) {
        return;
    }
    for (size_t i = 0; i < n; ++i)
        out[i] = std::exp(x[i]);
}

const RowKernels &
selectRowKernels(PipelinePreset preset, SimdLevel level)
{
    if (level >= SimdLevel::Avx2) {
        if (const RowKernels *k = rowKernelsAvx2(preset))
            return *k;
    }
    // Scalar dispatch: `precise` and `fast` run the exact scalar
    // kernel (`fast`'s only speed lever was SIMD); `fastest_approx`
    // keeps the polynomial exp, which also wins in scalar form.
    return preset == PipelinePreset::FastestApprox ? kScalarApprox
                                                   : kScalarExact;
}

} // namespace rtgs::gs
