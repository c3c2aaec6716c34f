// Simulated GPU hardware description.
//
// Defaults model the paper's Nvidia Tesla C2075 (Fermi GF110, compute
// capability 2.0) as specified in Table I and the product brief:
// 14 SMs x 32 cores, 1.15 GHz, 1.03 TFLOPS SP / 515 GFLOPS DP, 6 GB GDDR5 at
// 144 GB/s, 48 KB shared memory + 16 KB L1 per SM, 32 K 32-bit registers per
// SM, up to 1536 threads / 48 warps / 8 blocks per SM.
#pragma once

#include <cstdint>
#include <string>

namespace mog::gpusim {

inline constexpr int kWarpSize = 32;

struct DeviceSpec {
  std::string name = "Nvidia Tesla C2075 (simulated)";

  // Compute resources.
  int num_sms = 14;
  int cores_per_sm = 32;
  double core_clock_ghz = 1.15;

  // Scheduler / occupancy limits (compute capability 2.0).
  int max_threads_per_sm = 1536;
  int max_warps_per_sm = 48;
  int max_blocks_per_sm = 8;
  int max_threads_per_block = 1024;
  int registers_per_sm = 32 * 1024;     ///< 32-bit registers
  int max_registers_per_thread = 63;
  int register_alloc_unit = 64;         ///< per-warp allocation granularity
  int shared_mem_per_sm = 48 * 1024;    ///< bytes (48 KB shared / 16 KB L1)
  int shared_alloc_unit = 128;          ///< bytes

  // Memory system.
  double dram_bandwidth_gbps = 144.0;   ///< GDDR5 peak
  int l1_bytes = 16 * 1024;             ///< L1 when configured 48 KB shared
  int load_segment_bytes = 128;         ///< L1-cached load granularity
  int store_segment_bytes = 32;         ///< stores bypass L1 (write-evict)
  int dram_page_bytes = 4096;           ///< row-locality granularity

  // Host link: PCIe gen2 x16 with pageable host memory. The paper profiles
  // transfers at about one third of per-frame time before overlapping, which
  // pins the effective rate near 1 GB/s (typical for non-pinned cudaMemcpy
  // on this generation).
  double pcie_effective_gbps = 1.1;
  double dma_setup_seconds = 15e-6;

  // Host-side simulation knob (not a property of the modeled GPU): number of
  // host worker threads the block executor spreads a launch's blocks across.
  // CUDA blocks are independent by construction, so this changes wall-clock
  // only — masks, device state, and every KernelStats counter are
  // bit-identical at any thread count. 0 = one worker per hardware thread
  // (overridable via the MOG_EXECUTOR_THREADS environment variable);
  // 1 = serial execution on the launching thread.
  int executor_threads = 0;

  double clock_hz() const { return core_clock_ghz * 1e9; }
  double dram_bytes_per_cycle() const {
    return dram_bandwidth_gbps * 1e9 / clock_hz();
  }
};

/// Resolve an executor_threads knob to a concrete worker count in [1, 64].
/// `requested` <= 0 means auto: the MOG_EXECUTOR_THREADS environment
/// variable if set and positive, else one per hardware thread.
int resolved_executor_threads(int requested);

/// The paper's Table I CPU column lives in mog/cpu/cost_model.hpp; this
/// helper renders the GPU column for the Table I bench.
std::string describe_device(const DeviceSpec& spec);

/// A Kepler-era embedded GPU (Tegra-K1-class) for the paper's §VI future
/// work: one SM, low clock, narrow LPDDR3 shared with the host (so
/// transfers are cheap but bandwidth is scarce), 1/24-rate double precision.
DeviceSpec embedded_device_spec();

}  // namespace mog::gpusim
