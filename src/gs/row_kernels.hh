/**
 * @file
 * Width-agnostic row kernels for the splat-major forward blend and
 * backward gradient walks, plus the runtime dispatcher that picks an
 * implementation per (preset, SIMD level).
 *
 * A "row kernel" processes one pixel row of one splat's cutoff-ellipse
 * bounding box against SoA per-pixel state. The tile drivers
 * (`rasterizeTile`, `backwardTileSplatMajor`) own traversal order, the
 * cutoff-ellipse clip and the per-splat record write; the kernels own
 * only the per-pixel arithmetic. That split is what makes the ladder
 * safe: every rung walks *exactly* the same fragments in the same
 * order, so approximation changes values, never structure.
 *
 * Implementations:
 *  - scalar exact  — replicates the pre-ladder loops operation for
 *    operation; the `precise` rung under scalar dispatch and the
 *    `fast` fallback when AVX2 is unavailable. Byte-identical to the
 *    serial reference.
 *  - scalar approx — same structure with the polynomial exp; the
 *    `fastest_approx` rung under scalar dispatch.
 *  - AVX2 precise — 8 pixels at a time, the scalar-exact operations in
 *    the same order (no FMA, std::exp per live lane, masked stores,
 *    per-splat sums added in pixel order): bitwise equal to scalar
 *    exact on every non-NaN value.
 *  - AVX2 exact/approx — 8-wide with FMA, faithfully-rounded
 *    (<= 1 ulp) or polynomial (<= 16 ulp) exp.
 * The AVX2 tables are compiled in one TU with -mavx2/-mfma and selected
 * only when CPUID reports support (common/cpu_features.hh).
 */

#ifndef RTGS_GS_ROW_KERNELS_HH
#define RTGS_GS_ROW_KERNELS_HH

#include <cstddef>

#include "common/cpu_features.hh"
#include "gs/pipeline_config.hh"
#include "gs/rasterizer.hh"

namespace rtgs::gs
{

/** Sentinel for "pixel never terminated" in the forward term array. */
inline constexpr u32 kRowNotTerminated = 0xFFFFFFFFu;

/** Blend thresholds shared by every row kernel (from RenderSettings). */
struct RowKernelCtx
{
    Real alphaMin;
    Real alphaMax;
    Real tEps;
};

/**
 * SoA per-pixel forward state, pointers pre-offset to the row segment's
 * first pixel. Disjoint per (tile, row segment), so kernels never
 * synchronise.
 */
struct ForwardRowState
{
    Real *T;      //!< running transmittance
    Real *r, *g, *b; //!< accumulated colour
    Real *d;      //!< accumulated alpha-weighted depth
    u32 *blended; //!< fragments blended so far
    u32 *term;    //!< stream slot of termination (kRowNotTerminated)
};

/**
 * Blend splat `g` into `n` pixels starting at screen x `sx0`, row
 * centre offset `dy` = (py + 0.5) - g.my, stream position `slot`.
 * `scratch` has room for 2 * tileWidth Reals. Returns how many pixels
 * newly crossed the termination threshold.
 */
using ForwardRowFn = u32 (*)(const HotSplat &g, Real dy, u32 sx0, u32 n,
                             u32 slot, const RowKernelCtx &ctx,
                             const ForwardRowState &px, Real *scratch);

/**
 * Per-splat gradient accumulator, carried across the rows of one
 * splat's bbox walk and folded into a SplatGradRecord by the tile
 * driver. Raw moment sums; conic factors and the -1/2 are applied once
 * per splat.
 */
struct BackwardSplatAccum
{
    Real dR = 0, dG = 0, dB = 0, dDepth = 0, dOp = 0;
    Real sX = 0, sY = 0, sXX = 0, sXY = 0, sYY = 0;
};

/** SoA per-pixel backward state, pre-offset like ForwardRowState. */
struct BackwardRowState
{
    Real *T;       //!< rear transmittance (rewinds front-to-back)
    Real *acc;     //!< rear colour/depth pre-dotted with adjoints
    const Real *bgT;  //!< finalT * background.dot(dL/dC)
    const Real *dlR, *dlG, *dlB, *dlD; //!< loss adjoints
    const u32 *ce; //!< per-pixel contributor count (forward nContrib)
};

/**
 * Accumulate splat `g`'s gradient contributions from one row into
 * `out`, updating the per-pixel rear state. Mirrors ForwardRowFn's
 * argument order; `scratch` again holds 2 * tileWidth Reals.
 */
using BackwardRowFn = void (*)(const HotSplat &g, Real dy, u32 sx0,
                               u32 n, u32 slot, const RowKernelCtx &ctx,
                               const BackwardRowState &px,
                               BackwardSplatAccum &out, Real *scratch);

/** One rung's kernel table. */
struct RowKernels
{
    ForwardRowFn forwardRow;
    BackwardRowFn backwardRow;
    const char *name; //!< e.g. "scalar-exact", "avx2-approx" (for JSON)
};

/**
 * Pick the kernel table for a preset at an explicit SIMD level: the
 * preset's AVX2 table when the level allows and the binary carries it,
 * otherwise the scalar table of matching exp flavour. Both `precise`
 * tables (scalar-exact, avx2-precise) are byte-identical to the serial
 * reference on every non-NaN value.
 */
const RowKernels &selectRowKernels(PipelinePreset preset, SimdLevel level);

/** Dispatch at the process's active SIMD level (CPUID + RTGS_SIMD). */
inline const RowKernels &
selectRowKernels(const PipelineConfig &config)
{
    return selectRowKernels(config.preset, activeSimdLevel());
}

/**
 * Scalar twin of the approx rung's polynomial exp (Cephes-style
 * degree-5 minimax, plain mul/add). Defined for x <= 0; relative error
 * ~2e-7 over the live power range.
 */
Real expApproxScalar(Real x);

/**
 * Test/bench hooks: evaluate the approx or faithful exp over a batch
 * with the *active* dispatch (AVX2 when available, scalar twin /
 * std::exp otherwise). The ulp-contract tests run against these so the
 * bound is checked on whatever path production dispatches to.
 */
void expApproxBatch(const Real *x, Real *out, size_t n);
void expFaithfulBatch(const Real *x, Real *out, size_t n);

/**
 * A preset's AVX2 kernel table from the -mavx2 TU, or nullptr when the
 * toolchain could not build it. Internal to the dispatcher; call
 * through selectRowKernels() everywhere else.
 */
const RowKernels *rowKernelsAvx2(PipelinePreset preset);

/** AVX2 exp batch hooks (nullptr function behaviour: see above). */
bool expBatchAvx2(const Real *x, Real *out, size_t n, bool approx);

} // namespace rtgs::gs

#endif // RTGS_GS_ROW_KERNELS_HH
