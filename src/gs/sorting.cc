#include "gs/sorting.hh"

#include <algorithm>
#include <array>

#include "common/logging.hh"
#include "common/thread_pool.hh"

namespace rtgs::gs
{

namespace
{

constexpr u32 kRadixBits = 8;
constexpr u32 kBuckets = 1u << kRadixBits;

/** Smallest bit count that covers v (bitsFor(0) == 0). */
u32
bitsFor(u64 v)
{
    u32 b = 0;
    while (v) {
        ++b;
        v >>= 1;
    }
    return b;
}

} // namespace

void
radixSortPairs(std::vector<u64> &keys, std::vector<u32> &values,
               u32 bits_used, ThreadPool *pool)
{
    rtgs_assert(keys.size() == values.size());
    const size_t n = keys.size();
    if (n < 2)
        return;

    const size_t nchunks = chunkCount(pool, n, kSortGrain);
    const size_t chunk = (n + nchunks - 1) / nchunks;

    std::vector<u64> keys_tmp(n);
    std::vector<u32> vals_tmp(n);
    std::vector<std::array<u32, kBuckets>> hist(nchunks);

    u64 *src_k = keys.data(), *dst_k = keys_tmp.data();
    u32 *src_v = values.data(), *dst_v = vals_tmp.data();
    bool in_tmp = false;

    for (u32 shift = 0; shift < bits_used; shift += kRadixBits) {
        // Histogram this digit, one bucket table per chunk.
        parallelFor(pool, 0, nchunks, [&](size_t c) {
            std::array<u32, kBuckets> &h = hist[c];
            h.fill(0);
            size_t lo = c * chunk, hi = std::min(n, lo + chunk);
            for (size_t i = lo; i < hi; ++i)
                ++h[(src_k[i] >> shift) & (kBuckets - 1)];
        });

        // A constant digit means this pass would be the identity.
        u32 nonzero = 0;
        for (u32 b = 0; b < kBuckets && nonzero < 2; ++b) {
            u32 sum = 0;
            for (size_t c = 0; c < nchunks; ++c)
                sum += hist[c][b];
            nonzero += sum != 0;
        }
        if (nonzero < 2)
            continue;

        // Exclusive prefix sum in (bucket-major, chunk-minor) order
        // turns the histograms into stable per-chunk write cursors.
        u32 running = 0;
        for (u32 b = 0; b < kBuckets; ++b) {
            for (size_t c = 0; c < nchunks; ++c) {
                u32 cnt = hist[c][b];
                hist[c][b] = running;
                running += cnt;
            }
        }

        parallelFor(pool, 0, nchunks, [&](size_t c) {
            std::array<u32, kBuckets> &cursor = hist[c];
            size_t lo = c * chunk, hi = std::min(n, lo + chunk);
            for (size_t i = lo; i < hi; ++i) {
                u32 pos = cursor[(src_k[i] >> shift) & (kBuckets - 1)]++;
                dst_k[pos] = src_k[i];
                dst_v[pos] = src_v[i];
            }
        });

        std::swap(src_k, dst_k);
        std::swap(src_v, dst_v);
        in_tmp = !in_tmp;
    }

    if (in_tmp) {
        keys.swap(keys_tmp);
        values.swap(vals_tmp);
    }
}

void
sortTilesByDepth(TileBins &bins, const ProjectedCloud &projected,
                 ThreadPool *pool)
{
    if (bins.indices.size() < 2)
        return;

    // Keys are always derived from the *current* projected depths, so
    // re-sorting after a re-projection can never use stale ordering.
    // Tile ranges are disjoint, so the fill parallelises over tiles.
    bins.keys.resize(bins.indices.size());
    auto fill = [&](size_t lo, size_t hi) {
        for (u32 t = static_cast<u32>(lo); t < hi; ++t)
            for (u32 i = bins.offsets[t]; i < bins.offsets[t + 1]; ++i)
                bins.keys[i] =
                    packTileDepthKey(t, projected[bins.indices[i]].depth);
    };
    if (chunkCount(pool, bins.indices.size(), kSortGrain) == 1)
        fill(0, bins.tiles); // the sort below runs inline too
    else
        pool->parallelForChunks(0, bins.tiles, fill);

    // Depth occupies the low 32 bits; the tile id needs bitsFor(tiles-1)
    // more. Tile grouping already matches the key order, so the sort
    // leaves offsets valid.
    u32 bits_used = 32 + bitsFor(bins.tiles > 0 ? bins.tiles - 1 : 0);
    radixSortPairs(bins.keys, bins.indices, bits_used, pool);
}

bool
tilesAreDepthSorted(const TileBins &bins, const ProjectedCloud &projected)
{
    for (u32 t = 0; t < bins.tiles; ++t) {
        for (u32 i = bins.offsets[t] + 1; i < bins.offsets[t + 1]; ++i) {
            if (projected[bins.indices[i - 1]].depth >
                projected[bins.indices[i]].depth)
                return false;
        }
    }
    return true;
}

} // namespace rtgs::gs
