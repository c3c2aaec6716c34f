// Foreground validation: the cleanup pipeline of the paper's reference
// implementation (Cheung & Kamath 2005 apply "foreground validation" after
// raw MoG decisions). Composes despeckling, morphology, and blob-level
// filtering into one configurable pass.
#pragma once

#include "mog/postproc/components.hpp"
#include "mog/postproc/morphology.hpp"

namespace mog {

struct ValidationConfig {
  bool despeckle = true;     ///< 3x3 binary median first
  int close_radius = 1;      ///< fill small holes (0 = skip)
  int open_radius = 0;       ///< remove thin bridges (0 = skip)
  int min_blob_area = 24;    ///< drop blobs below this (0 = keep all)
  double min_fill_ratio = 0; ///< drop wireframe-like blobs (0 = keep all)

  void validate() const;

  /// True when at least one stage would run; validate_foreground is the
  /// identity (and skips all work) when this is false.
  bool active() const {
    return despeckle || close_radius > 0 || open_radius > 0 ||
           min_blob_area > 0 || min_fill_ratio > 0.0;
  }

  /// True when the configuration is expressible as the fused device epilogue
  /// (optimization step G): despeckle plus a radius-≤1 close. Opening and
  /// the blob-level filters need global connectivity and cannot fuse; a
  /// close radius beyond 1 exceeds the epilogue's shared-memory halo. Level
  /// G falls back to host postproc (with a recorded counter) when false.
  bool fusable() const {
    return close_radius <= 1 && open_radius == 0 && min_blob_area == 0 &&
           min_fill_ratio == 0.0;
  }

  /// validate() plus the fusability constraints — the fused-epilogue kernel
  /// rejects configurations it cannot honor bit-exactly instead of silently
  /// diverging from validate_foreground.
  void validate_fused() const;
};

/// The device-postproc default: exactly the stages the fused epilogue
/// supports (despeckle + radius-1 close, no blob filtering).
inline ValidationConfig fused_validation_config() {
  ValidationConfig c;
  c.despeckle = true;
  c.close_radius = 1;
  c.open_radius = 0;
  c.min_blob_area = 0;
  c.min_fill_ratio = 0.0;
  return c;
}

/// Apply the validation pipeline to a raw foreground mask.
FrameU8 validate_foreground(const FrameU8& raw_mask,
                            const ValidationConfig& config = {});

/// Mask post-processing as a GPU-pipeline stage. At optimization level G
/// the fused device epilogue cleans the mask before it crosses the
/// simulated DRAM/transfer boundary (one extra launch per frame); at lower
/// levels the same stages run as the unfused device chain (one launch per
/// stage). Configurations the device kernels cannot express (see
/// ValidationConfig::fusable) fall back to host post-processing after the
/// download — recorded by the pipeline, never silent.
struct MaskPostprocConfig {
  bool enabled = false;  ///< run validation stages as part of the pipeline
  ValidationConfig validation = fused_validation_config();
};

}  // namespace mog
