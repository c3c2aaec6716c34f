#include "mog/gpusim/device_spec.hpp"

#include <cstdlib>

#include "mog/common/block_executor.hpp"
#include "mog/common/strutil.hpp"

namespace mog::gpusim {

int resolved_executor_threads(int requested) {
  if (requested <= 0)
    if (const char* env = std::getenv("MOG_EXECUTOR_THREADS"); env != nullptr)
      requested = std::atoi(env);
  return resolve_pool_threads(requested);
}

std::string describe_device(const DeviceSpec& spec) {
  std::string s;
  s += strprintf("%s\n", spec.name.c_str());
  s += strprintf("  SMs x cores        : %d x %d (%d cores)\n", spec.num_sms,
                 spec.cores_per_sm, spec.num_sms * spec.cores_per_sm);
  s += strprintf("  core clock         : %.2f GHz\n", spec.core_clock_ghz);
  s += strprintf("  DRAM bandwidth     : %.1f GB/s (GDDR5)\n",
                 spec.dram_bandwidth_gbps);
  s += strprintf("  shared mem / SM    : %d KB (+%d KB L1)\n",
                 spec.shared_mem_per_sm / 1024, spec.l1_bytes / 1024);
  s += strprintf("  registers / SM     : %dK x 32-bit\n",
                 spec.registers_per_sm / 1024);
  s += strprintf("  max threads / SM   : %d (%d warps, %d blocks)\n",
                 spec.max_threads_per_sm, spec.max_warps_per_sm,
                 spec.max_blocks_per_sm);
  s += strprintf("  host link          : PCIe, %.2f GB/s effective\n",
                 spec.pcie_effective_gbps);
  return s;
}

DeviceSpec embedded_device_spec() {
  DeviceSpec spec;
  spec.name = "Embedded GPU, Tegra-K1-class (simulated)";
  // One 192-core SMX modeled as six 32-lane SM-equivalents at 0.85 GHz.
  spec.num_sms = 6;
  spec.cores_per_sm = 32;
  spec.core_clock_ghz = 0.85;
  // Kepler-generation occupancy limits.
  spec.max_threads_per_sm = 2048;
  spec.max_warps_per_sm = 64;
  spec.max_blocks_per_sm = 16;
  spec.registers_per_sm = 64 * 1024;
  spec.max_registers_per_thread = 255;
  spec.register_alloc_unit = 256;
  spec.shared_mem_per_sm = 48 * 1024;
  // Narrow LPDDR3, shared with the host CPU.
  spec.dram_bandwidth_gbps = 14.9;
  // Integrated memory: "transfers" are cache-coherent copies, cheap but not
  // free (the runtime still stages frames).
  spec.pcie_effective_gbps = 5.0;
  spec.dma_setup_seconds = 5e-6;
  return spec;
}

}  // namespace mog::gpusim
