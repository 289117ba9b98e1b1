/**
 * @file
 * Image resampling for dynamic downsampling: area-weighted box reduction
 * to an arbitrary smaller size, and bilinear upsampling for comparisons
 * at the original resolution.
 */

#ifndef RTGS_IMAGE_RESIZE_HH
#define RTGS_IMAGE_RESIZE_HH

#include "image/image.hh"

namespace rtgs
{

/** Area-averaged resize (intended for shrinking). */
ImageRGB resizeBox(const ImageRGB &src, u32 out_w, u32 out_h);

/**
 * Box-downsampled thumbnail for cheap frame comparisons (the similarity
 * gate, the relocalizer's keyframe database): `probe_width` wide but
 * never upsampled, height by the source's aspect, both floored at 8
 * so thumbnails stay comparable.
 */
ImageRGB resizeProbe(const ImageRGB &src, u32 probe_width);

/** Area-averaged resize of a scalar image (depth uses plain averaging). */
ImageF resizeBox(const ImageF &src, u32 out_w, u32 out_h);

/** Bilinear resize (intended for enlarging). */
ImageRGB resizeBilinear(const ImageRGB &src, u32 out_w, u32 out_h);

/**
 * Nearest-neighbour resize for depth maps. Depth must never be
 * averaged across silhouette boundaries (it invents phantom surfaces
 * between foreground and background), so downsampled tracking uses
 * nearest sampling for the geometric channel.
 */
ImageF resizeNearest(const ImageF &src, u32 out_w, u32 out_h);

} // namespace rtgs

#endif // RTGS_IMAGE_RESIZE_HH
