#include "image/resize.hh"

#include <algorithm>
#include <cmath>

namespace rtgs
{

namespace
{

/**
 * Area-weighted reduction shared by RGB and scalar images. For each output
 * pixel we integrate the overlapping source pixels weighted by overlap
 * area, which is exact for arbitrary scale factors.
 */
template <typename T>
Image<T>
resizeBoxImpl(const Image<T> &src, u32 out_w, u32 out_h)
{
    rtgs_assert(out_w > 0 && out_h > 0 && !src.empty());
    Image<T> dst(out_w, out_h);
    double sx = static_cast<double>(src.width()) / out_w;
    double sy = static_cast<double>(src.height()) / out_h;

    for (u32 oy = 0; oy < out_h; ++oy) {
        double y0 = oy * sy, y1 = (oy + 1) * sy;
        u32 iy0 = static_cast<u32>(y0);
        u32 iy1 = std::min<u32>(src.height(),
                                static_cast<u32>(std::ceil(y1)));
        for (u32 ox = 0; ox < out_w; ++ox) {
            double x0 = ox * sx, x1 = (ox + 1) * sx;
            u32 ix0 = static_cast<u32>(x0);
            u32 ix1 = std::min<u32>(src.width(),
                                    static_cast<u32>(std::ceil(x1)));
            T acc{};
            double weight = 0.0;
            for (u32 iy = iy0; iy < iy1; ++iy) {
                double wy = std::min<double>(y1, iy + 1) -
                            std::max<double>(y0, iy);
                for (u32 ix = ix0; ix < ix1; ++ix) {
                    double wx = std::min<double>(x1, ix + 1) -
                                std::max<double>(x0, ix);
                    double w = wx * wy;
                    acc += src.at(ix, iy) * static_cast<Real>(w);
                    weight += w;
                }
            }
            dst.at(ox, oy) = weight > 0 ?
                acc * static_cast<Real>(1.0 / weight) : T{};
        }
    }
    return dst;
}

} // namespace

ImageRGB
resizeBox(const ImageRGB &src, u32 out_w, u32 out_h)
{
    return resizeBoxImpl(src, out_w, out_h);
}

ImageF
resizeBox(const ImageF &src, u32 out_w, u32 out_h)
{
    return resizeBoxImpl(src, out_w, out_h);
}

ImageRGB
resizeProbe(const ImageRGB &src, u32 probe_width)
{
    u32 pw = std::max<u32>(8, std::min(probe_width, src.width()));
    u32 ph = std::max<u32>(
        8, static_cast<u32>(static_cast<u64>(pw) * src.height() /
                            std::max<u32>(1, src.width())));
    return resizeBox(src, pw, ph);
}

ImageF
resizeNearest(const ImageF &src, u32 out_w, u32 out_h)
{
    rtgs_assert(out_w > 0 && out_h > 0 && !src.empty());
    ImageF dst(out_w, out_h);
    double sx = static_cast<double>(src.width()) / out_w;
    double sy = static_cast<double>(src.height()) / out_h;
    for (u32 oy = 0; oy < out_h; ++oy) {
        u32 iy = std::min<u32>(src.height() - 1,
                               static_cast<u32>((oy + 0.5) * sy));
        for (u32 ox = 0; ox < out_w; ++ox) {
            u32 ix = std::min<u32>(src.width() - 1,
                                   static_cast<u32>((ox + 0.5) * sx));
            dst.at(ox, oy) = src.at(ix, iy);
        }
    }
    return dst;
}

ImageRGB
resizeBilinear(const ImageRGB &src, u32 out_w, u32 out_h)
{
    rtgs_assert(out_w > 0 && out_h > 0 && !src.empty());
    ImageRGB dst(out_w, out_h);
    double sx = static_cast<double>(src.width()) / out_w;
    double sy = static_cast<double>(src.height()) / out_h;
    for (u32 oy = 0; oy < out_h; ++oy) {
        double fy = (oy + 0.5) * sy - 0.5;
        fy = std::max(0.0, fy);
        u32 y0 = std::min<u32>(src.height() - 1, static_cast<u32>(fy));
        u32 y1 = std::min<u32>(src.height() - 1, y0 + 1);
        Real ty = static_cast<Real>(fy - y0);
        for (u32 ox = 0; ox < out_w; ++ox) {
            double fx = (ox + 0.5) * sx - 0.5;
            fx = std::max(0.0, fx);
            u32 x0 = std::min<u32>(src.width() - 1, static_cast<u32>(fx));
            u32 x1 = std::min<u32>(src.width() - 1, x0 + 1);
            Real tx = static_cast<Real>(fx - x0);
            Vec3f top = src.at(x0, y0) * (1 - tx) + src.at(x1, y0) * tx;
            Vec3f bot = src.at(x0, y1) * (1 - tx) + src.at(x1, y1) * tx;
            dst.at(ox, oy) = top * (1 - ty) + bot * ty;
        }
    }
    return dst;
}

} // namespace rtgs
