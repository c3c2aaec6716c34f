// Device-side mask post-processing: the despeckle (3x3 median) and
// radius-1 close stages of validate_foreground, as gpusim kernels.
//
// Two formulations with bit-identical output:
//
//  * launch_mask_stage — ONE stage (median / dilate / erode) as a plain
//    global-memory stencil kernel. The pre-fusion chain runs one launch per
//    stage, round-tripping every intermediate mask through DRAM: this is
//    what "ladder level <= F + post-processing" costs, and the comparison
//    baseline for step G.
//
//  * launch_fused_postproc — the WHOLE chain in one launch (optimization
//    step G, the kernel-fusion technique of arXiv 1509.04394). Each block
//    stages a (tile + halo) window of the raw mask into shared memory and
//    evaluates every stage in shared memory; intermediate masks never touch
//    DRAM, and only the cleaned mask is stored. Cross-block halos need no
//    seam pass here because the raw mask is complete when this launch
//    starts — the frame pass is split at exactly the point where a grid-
//    wide barrier would otherwise be required (see DESIGN.md §12).
//
// Border semantics reproduce the host postproc byte-for-byte: the median
// window shrinks at frame borders (ties clear to background), dilation pads
// out-of-frame with background, erosion pads with foreground. All three
// reduce to two counters per window — in-frame cells (total) and in-frame
// foreground cells (fg): median = 2*fg > total, dilate = fg > 0,
// erode = fg == total.
#pragma once

#include <cstdint>

#include "mog/gpusim/kernel_launch.hpp"
#include "mog/kernels/isa.hpp"
#include "mog/postproc/validation.hpp"

namespace mog::kernels {

/// One unfused post-processing stage over a full-frame 0/255 mask.
enum class MaskStageOp {
  kMedian3,  ///< 3x3 majority, shrinking window at borders
  kDilate1,  ///< radius-1 max, out-of-frame = background
  kErode1,   ///< radius-1 min, out-of-frame = foreground
};

/// Launch one stencil stage: out[p] = op(in window at p). `in` and `out`
/// must be distinct full-frame buffers.
gpusim::KernelStats launch_mask_stage(gpusim::Device& device,
                                      const gpusim::DevSpan<std::uint8_t>& in,
                                      const gpusim::DevSpan<std::uint8_t>& out,
                                      int width, int height, MaskStageOp op,
                                      int threads_per_block);
/// The same, run by the build for `isa` (see launch_mog_frame).
gpusim::KernelStats launch_mask_stage(IsaLevel isa, gpusim::Device& device,
                                      const gpusim::DevSpan<std::uint8_t>& in,
                                      const gpusim::DevSpan<std::uint8_t>& out,
                                      int width, int height, MaskStageOp op,
                                      int threads_per_block);

/// Launch the fused epilogue: cleaned = close_1?(median3?(raw)) per
/// `config` (which must satisfy config.validate_fused() and enable at least
/// one of despeckle / close). threads_per_block must be a positive multiple
/// of 32; each block processes a 32 x (threads_per_block/32) pixel tile.
gpusim::KernelStats launch_fused_postproc(
    gpusim::Device& device, const gpusim::DevSpan<std::uint8_t>& raw,
    const gpusim::DevSpan<std::uint8_t>& cleaned, int width, int height,
    const ValidationConfig& config, int threads_per_block);
/// The same, run by the build for `isa` (see launch_mog_frame).
gpusim::KernelStats launch_fused_postproc(
    IsaLevel isa, gpusim::Device& device,
    const gpusim::DevSpan<std::uint8_t>& raw,
    const gpusim::DevSpan<std::uint8_t>& cleaned, int width, int height,
    const ValidationConfig& config, int threads_per_block);

}  // namespace mog::kernels
