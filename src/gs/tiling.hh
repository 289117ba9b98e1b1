/**
 * @file
 * Step 1-2 (Tile intersection): assign projected 2D Gaussians to the
 * 16x16-pixel tiles their footprint overlaps.
 *
 * Binning mirrors the CUDA reference pipeline in portable C++: a
 * parallel per-Gaussian count pass, an exclusive prefix sum over tile
 * offsets, and a parallel stable scatter into one flat index buffer.
 * Per-tile std::vector lists (and their per-frame allocation storm) are
 * gone; every consumer reads a contiguous [offsets[t], offsets[t+1])
 * range of the flat array.
 */

#ifndef RTGS_GS_TILING_HH
#define RTGS_GS_TILING_HH

#include <vector>

#include "gs/projection.hh"

namespace rtgs::gs
{

/** Image-space tile grid. */
struct TileGrid
{
    u32 tileSize = 16;
    u32 width = 0;   //!< image width in pixels
    u32 height = 0;  //!< image height in pixels
    u32 tilesX = 0;
    u32 tilesY = 0;

    TileGrid() = default;
    TileGrid(u32 image_w, u32 image_h, u32 tile_size);

    u32 tileCount() const { return tilesX * tilesY; }

    u32 tileOfPixel(u32 x, u32 y) const
    {
        return (y / tileSize) * tilesX + (x / tileSize);
    }

    /** Pixel bounds [x0,x1) x [y0,y1) of a tile (clipped to the image). */
    void tileBounds(u32 tile, u32 &x0, u32 &y0, u32 &x1, u32 &y1) const;
};

/**
 * Flat per-tile Gaussian index bins. Tile t owns the contiguous range
 * indices[offsets[t] .. offsets[t+1]) of Gaussian ids (into the
 * ProjectedCloud). intersectTiles emits each tile's ids in ascending
 * Gaussian order; sortTilesByDepth reorders every range front-to-back.
 *
 * keys holds the packed (tileId << 32) | depthBits radix-sort key for
 * each slot of indices; positive-float depth bits compare like the
 * depths themselves, so one LSD radix pass sequence over the keys
 * depth-sorts every tile range at once. The keys are filled by
 * sortTilesByDepth from the depths current at sort time — binning
 * leaves them empty.
 */
struct TileBins
{
    u32 tiles = 0;             //!< tile count (== offsets.size() - 1)
    std::vector<u32> offsets;  //!< exclusive prefix sums, size tiles + 1
    std::vector<u32> indices;  //!< flat Gaussian ids, grouped by tile
    std::vector<u64> keys;     //!< packed sort keys, parallel to indices

    /** Number of Gaussians binned to tile t. */
    u32 count(u32 tile) const
    {
        return offsets[tile + 1] - offsets[tile];
    }

    /** Pointer to tile t's ids (count(t) entries). */
    const u32 *tileData(u32 tile) const
    {
        return indices.data() + offsets[tile];
    }

    /** Total tile-Gaussian intersection count (used by adaptive pruning). */
    u64 totalIntersections() const { return indices.size(); }
};

/** Pack a radix key: tile id in the high word, depth bits in the low. */
inline u64
packTileDepthKey(u32 tile, Real depth)
{
    // Positive IEEE-754 floats order identically to their bit patterns;
    // depths are in (nearClip, farClip], so no sign handling is needed.
    u32 depth_bits;
    static_assert(sizeof(depth_bits) == sizeof(depth));
    __builtin_memcpy(&depth_bits, &depth, sizeof(depth_bits));
    return (static_cast<u64>(tile) << 32) | depth_bits;
}

/**
 * Smallest Gaussian count worth a binning chunk of its own
 * (ThreadPool::chunkCount); smaller clouds bin inline. Measured with
 * bench_micro_rasterizer's BM_StageGrain on a 4-vCPU x86-64 VM (~3.5
 * effective cores): inline beat a full fork-join at every size up to
 * 16384 Gaussians (324 vs 623 us there).
 */
inline constexpr size_t kBinGrain = 16384;

/**
 * Assign each valid projected Gaussian to all tiles it overlaps.
 * Parallel over Gaussians on `pool` (inline up to kBinGrain of them,
 * or when `pool` is null); the scatter is stable, so each tile's range
 * lists ids in ascending Gaussian order (the order the old per-tile
 * push_back loop produced).
 */
TileBins intersectTiles(const ProjectedCloud &projected,
                        const TileGrid &grid, ThreadPool *pool = nullptr);

} // namespace rtgs::gs

#endif // RTGS_GS_TILING_HH
