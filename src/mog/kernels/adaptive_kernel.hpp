// GPU port of the variable-component-count MoG (§II related work).
//
// The paper predicts this algorithm family maps poorly to GPUs:
//   "The parallel threads in a GPU execute in lock-step mode. All threads
//    perform the same amount of computation even with variable number of
//    Gaussian components. ... the thread with the most Gaussian components
//    determines the latency of all parallel threads. Furthermore, an
//    unbalanced memory access pattern ... potentially reduces the memory
//    access efficiency."
//
// This kernel implements the algorithm faithfully for lockstep execution —
// component loops run to the warp-wide maximum count with lanes masked off,
// and parameter accesses stay memory-resident (per-lane slot indices make
// register caching impossible) — so the two §II effects can be *measured*:
// AdaptiveCounters reports lane-level useful iterations vs lockstep-charged
// iterations, and the ordinary KernelStats captures the ragged gathers.
#pragma once

#include <atomic>
#include <cstdint>

#include "mog/cpu/adaptive_mog.hpp"
#include "mog/gpusim/kernel_launch.hpp"
#include "mog/kernels/isa.hpp"

namespace mog::kernels {

/// Lockstep-waste accounting for one or more launches.
///
/// The kernel bumps these from every warp; with the multi-threaded block
/// executor, warps of different blocks run on different host threads, so the
/// counters are relaxed atomics. The totals stay deterministic at any thread
/// count — they are plain commutative sums. Copies snapshot the values.
struct AdaptiveCounters {
  std::atomic<std::uint64_t> lane_iterations{0};   ///< useful per-lane steps
  std::atomic<std::uint64_t> lockstep_iterations{
      0};  ///< charged: warp_max * active lanes

  AdaptiveCounters() = default;
  AdaptiveCounters(const AdaptiveCounters& o)
      : lane_iterations(o.lane_iterations.load(std::memory_order_relaxed)),
        lockstep_iterations(
            o.lockstep_iterations.load(std::memory_order_relaxed)) {}
  AdaptiveCounters& operator=(const AdaptiveCounters& o) {
    lane_iterations.store(o.lane_iterations.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    lockstep_iterations.store(
        o.lockstep_iterations.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    return *this;
  }

  /// Fraction of lockstep component work that was useful (<= 1).
  double lane_utilization() const {
    const std::uint64_t lock =
        lockstep_iterations.load(std::memory_order_relaxed);
    return lock == 0 ? 1.0
                     : static_cast<double>(
                           lane_iterations.load(std::memory_order_relaxed)) /
                           static_cast<double>(lock);
  }
  AdaptiveCounters& operator+=(const AdaptiveCounters& o) {
    lane_iterations.fetch_add(
        o.lane_iterations.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    lockstep_iterations.fetch_add(
        o.lockstep_iterations.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    return *this;
  }
};

/// Device-resident adaptive model state (SoA slots + per-pixel counts).
template <typename T>
class AdaptiveDeviceState {
 public:
  AdaptiveDeviceState(gpusim::Device& device, int width, int height,
                      const AdaptiveMogParams& params);

  std::size_t num_pixels() const { return n_; }
  int max_components() const { return k_max_; }

  const gpusim::DevSpan<T>& weights() const { return w_; }
  const gpusim::DevSpan<T>& means() const { return m_; }
  const gpusim::DevSpan<T>& sds() const { return sd_; }
  const gpusim::DevSpan<std::int32_t>& counts() const { return count_; }

  void upload(const AdaptiveMogModel<T>& model);
  AdaptiveMogModel<T> download(const AdaptiveMogParams& params) const;

 private:
  int width_, height_, k_max_;
  std::size_t n_;
  gpusim::DevSpan<T> w_, m_, sd_;
  gpusim::DevSpan<std::int32_t> count_;
};

/// Process one frame with the variable-K kernel. `counters` (optional)
/// accumulates the lockstep-waste metrics.
template <typename T>
gpusim::KernelStats launch_adaptive_frame(
    gpusim::Device& device, AdaptiveDeviceState<T>& state,
    const gpusim::DevSpan<std::uint8_t>& frame,
    const gpusim::DevSpan<std::uint8_t>& foreground,
    const TypedMogParams<T>& params, T prune_weight,
    AdaptiveCounters* counters = nullptr, int threads_per_block = 128);

/// The same, run by the build for `isa` (see launch_mog_frame).
template <typename T>
gpusim::KernelStats launch_adaptive_frame(
    IsaLevel isa, gpusim::Device& device, AdaptiveDeviceState<T>& state,
    const gpusim::DevSpan<std::uint8_t>& frame,
    const gpusim::DevSpan<std::uint8_t>& foreground,
    const TypedMogParams<T>& params, T prune_weight,
    AdaptiveCounters* counters = nullptr, int threads_per_block = 128);

extern template class AdaptiveDeviceState<float>;
extern template class AdaptiveDeviceState<double>;
extern template gpusim::KernelStats launch_adaptive_frame<float>(
    gpusim::Device&, AdaptiveDeviceState<float>&,
    const gpusim::DevSpan<std::uint8_t>&, const gpusim::DevSpan<std::uint8_t>&,
    const TypedMogParams<float>&, float, AdaptiveCounters*, int);
extern template gpusim::KernelStats launch_adaptive_frame<double>(
    gpusim::Device&, AdaptiveDeviceState<double>&,
    const gpusim::DevSpan<std::uint8_t>&, const gpusim::DevSpan<std::uint8_t>&,
    const TypedMogParams<double>&, double, AdaptiveCounters*, int);

}  // namespace mog::kernels
