// Windowed (tiled) MoG using SM shared memory — §IV-D / Fig. 9 of the paper.
//
// Frames are split into 640-pixel tiles and ordered into frame groups. One
// block owns one tile: it fetches the tile's Gaussian parameters into shared
// memory once, processes the tile across every frame of the group (updating
// the parameters in shared memory), and writes them back once — dividing the
// per-frame global parameter traffic by the group size at the cost of
// shared-memory capacity (and thus occupancy) and per-frame output latency.
//
// The compute structure on top is the fully optimized variant F (no sort,
// predicated update, recomputed diff).
#pragma once

#include <cstdint>
#include <span>

#include "mog/cpu/mog_update.hpp"
#include "mog/gpusim/kernel_launch.hpp"
#include "mog/kernels/device_state.hpp"
#include "mog/kernels/isa.hpp"

namespace mog::kernels {

struct TiledConfig {
  int tile_pixels = 640;  ///< threads per block; the paper's tile size
  int frame_group = 8;    ///< frames processed per parameter residency

  void validate() const {
    MOG_CHECK(tile_pixels >= 32 && tile_pixels <= 1024 &&
                  tile_pixels % 32 == 0,
              "tile_pixels must be a warp multiple in [32, 1024]");
    MOG_CHECK(frame_group >= 1 && frame_group <= 64,
              "frame_group must be in [1, 64]");
  }
};

/// Process a group of frames in one launch. `frames` / `foregrounds` hold
/// one device buffer per frame of the group (1 <= group size <= config
/// limit; a trailing partial group is fine). Requires SoA state.
template <typename T>
gpusim::KernelStats launch_tiled_group(
    gpusim::Device& device, DeviceMogState<T>& state,
    std::span<const gpusim::DevSpan<std::uint8_t>> frames,
    std::span<const gpusim::DevSpan<std::uint8_t>> foregrounds,
    const TypedMogParams<T>& params, const TiledConfig& config);

/// The same, run by the build for `isa` (see launch_mog_frame).
template <typename T>
gpusim::KernelStats launch_tiled_group(
    IsaLevel isa, gpusim::Device& device, DeviceMogState<T>& state,
    std::span<const gpusim::DevSpan<std::uint8_t>> frames,
    std::span<const gpusim::DevSpan<std::uint8_t>> foregrounds,
    const TypedMogParams<T>& params, const TiledConfig& config);

extern template gpusim::KernelStats launch_tiled_group<float>(
    gpusim::Device&, DeviceMogState<float>&,
    std::span<const gpusim::DevSpan<std::uint8_t>>,
    std::span<const gpusim::DevSpan<std::uint8_t>>,
    const TypedMogParams<float>&, const TiledConfig&);
extern template gpusim::KernelStats launch_tiled_group<double>(
    gpusim::Device&, DeviceMogState<double>&,
    std::span<const gpusim::DevSpan<std::uint8_t>>,
    std::span<const gpusim::DevSpan<std::uint8_t>>,
    const TypedMogParams<double>&, const TiledConfig&);

}  // namespace mog::kernels
