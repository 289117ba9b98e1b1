/**
 * @file
 * Step 2 (Sorting): order each tile's Gaussians front-to-back by
 * camera-space depth so alpha blending composites correctly.
 *
 * One LSD radix sort over the packed (tileId << 32) | depthBits keys
 * orders the whole flat intersection buffer at once: tile grouping is
 * preserved (tile id occupies the high bits) and every tile range comes
 * out depth-sorted — no per-tile comparison sort, no indirect depth
 * loads in the compare path. Passes run in parallel chunks with stable
 * scatter, so ties keep their ascending-Gaussian-id order exactly like
 * the old per-tile std::stable_sort.
 */

#ifndef RTGS_GS_SORTING_HH
#define RTGS_GS_SORTING_HH

#include "gs/tiling.hh"

namespace rtgs::gs
{

/** Sort every tile range in place by ascending depth (stable), on
 *  `pool` (inline when null). */
void sortTilesByDepth(TileBins &bins, const ProjectedCloud &projected,
                      ThreadPool *pool = nullptr);

/** True if every tile range is in non-decreasing depth order. */
bool tilesAreDepthSorted(const TileBins &bins,
                         const ProjectedCloud &projected);

/**
 * Smallest key count worth a radix-sort chunk of its own
 * (ThreadPool::chunkCount). Up to it every pass, and the key fill, run
 * inline: no fork-join per histogram or scatter. Measured with
 * bench_micro_rasterizer's BM_StageGrain on a 4-vCPU x86-64 VM (~3.5
 * effective cores): two fork-joins per pass lost to inline at every
 * size up to 262144 keys (16.6 vs 14.9 ms there; 10.5 vs 2.5 ms at
 * 65536).
 */
inline constexpr size_t kSortGrain = 262144;

/**
 * Stable LSD radix sort of (key, value) pairs by key, in parallel
 * 8-bit-digit passes on `pool` (inline up to kSortGrain keys, or when
 * `pool` is null). Only digits below bits_used are processed, and
 * passes whose digit is constant across all keys are skipped.
 */
void radixSortPairs(std::vector<u64> &keys, std::vector<u32> &values,
                    u32 bits_used, ThreadPool *pool = nullptr);

} // namespace rtgs::gs

#endif // RTGS_GS_SORTING_HH
