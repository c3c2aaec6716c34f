// SM occupancy calculator (CUDA occupancy rules for compute capability 2.0).
//
// Occupancy = resident warps per SM / max warps per SM, limited by:
//   * warps per block vs the 48-warp SM limit,
//   * the 8-blocks-per-SM scheduler limit,
//   * register file: registers are allocated per warp with 64-register
//     granularity on Fermi,
//   * shared memory per block (128-byte allocation granularity).
//
// The profiler-style *achieved* occupancy applies the calibrated
// kAchievedOccupancyFactor (scheduler gaps, tail blocks never reach the
// theoretical bound in practice).
#pragma once

#include <cstdint>

#include "mog/gpusim/device_spec.hpp"

namespace mog::gpusim {

struct Occupancy {
  int blocks_per_sm = 0;
  int warps_per_sm = 0;
  double theoretical = 0.0;  ///< warps_per_sm / max_warps_per_sm
  double achieved = 0.0;     ///< theoretical * kAchievedOccupancyFactor

  /// Which resource bound the result (useful in reports and tests).
  enum class Limiter { kWarps, kBlocks, kRegisters, kSharedMem };
  Limiter limiter = Limiter::kWarps;
};

Occupancy compute_occupancy(const DeviceSpec& spec, int regs_per_thread,
                            int threads_per_block,
                            std::uint64_t shared_bytes_per_block);

const char* to_string(Occupancy::Limiter limiter);

}  // namespace mog::gpusim
