// Device-resident Gaussian-mixture state.
//
// Like the paper (§IV-A), parameters are "initialized once by the CPU and
// then stored in GPU global memory" — they never cross the PCIe link during
// steady-state processing. Two layouts:
//
//   AoS (Fig. 4a, variant A):  [pixel0: m0 w0 sd0 m1 w1 sd1 ...][pixel1: ...]
//   SoA (Fig. 4b, variants B+): m[k*N + p], w[k*N + p], sd[k*N + p]
#pragma once

#include <cstdint>

#include "mog/cpu/mog_model.hpp"
#include "mog/gpusim/kernel_launch.hpp"

namespace mog::kernels {

enum class ParamLayout { kAoS, kSoA };

template <typename T>
class DeviceMogState {
 public:
  DeviceMogState(gpusim::Device& device, int width, int height,
                 const MogParams& params, ParamLayout layout)
      : layout_(layout),
        width_(width),
        height_(height),
        k_(params.num_components),
        n_(static_cast<std::size_t>(width) * height) {
    params.validate();
    if (layout == ParamLayout::kAoS) {
      aos_ = device.memory().alloc<T>(n_ * k_ * 3);
    } else {
      w_ = device.memory().alloc<T>(n_ * k_);
      m_ = device.memory().alloc<T>(n_ * k_);
      sd_ = device.memory().alloc<T>(n_ * k_);
    }
    upload(MogModel<T>(width, height, params));
  }

  ParamLayout layout() const { return layout_; }
  int width() const { return width_; }
  int height() const { return height_; }
  int num_components() const { return k_; }
  std::size_t num_pixels() const { return n_; }

  // SoA spans (valid when layout == kSoA).
  const gpusim::DevSpan<T>& weights() const { return w_; }
  const gpusim::DevSpan<T>& means() const { return m_; }
  const gpusim::DevSpan<T>& sds() const { return sd_; }
  // AoS span (valid when layout == kAoS); element order per component:
  // mean, weight, sd.
  const gpusim::DevSpan<T>& aos() const { return aos_; }

  /// Overwrite device state from a host model (layout conversion included).
  void upload(const MogModel<T>& model) {
    MOG_CHECK(model.width() == width_ && model.height() == height_ &&
                  model.num_components() == k_,
              "model shape mismatch");
    if (layout_ == ParamLayout::kAoS) {
      for (std::size_t p = 0; p < n_; ++p)
        for (int k = 0; k < k_; ++k) {
          const std::size_t base = (p * k_ + static_cast<std::size_t>(k)) * 3;
          aos_.data[base + 0] = model.mean(p, k);
          aos_.data[base + 1] = model.weight(p, k);
          aos_.data[base + 2] = model.sd(p, k);
        }
    } else {
      gpusim::copy_to_device(w_, model.weights().data(), n_ * k_);
      gpusim::copy_to_device(m_, model.means().data(), n_ * k_);
      gpusim::copy_to_device(sd_, model.sds().data(), n_ * k_);
    }
  }

  /// Read device state back into a host model (for background estimates and
  /// cross-checking against the CPU reference).
  MogModel<T> download(const MogParams& params) const {
    MogModel<T> model(width_, height_, params);
    if (layout_ == ParamLayout::kAoS) {
      for (std::size_t p = 0; p < n_; ++p)
        for (int k = 0; k < k_; ++k) {
          const std::size_t base = (p * k_ + static_cast<std::size_t>(k)) * 3;
          model.mean(p, k) = aos_.data[base + 0];
          model.weight(p, k) = aos_.data[base + 1];
          model.sd(p, k) = aos_.data[base + 2];
        }
    } else {
      gpusim::copy_from_device(model.weights().data(), w_, n_ * k_);
      gpusim::copy_from_device(model.means().data(), m_, n_ * k_);
      gpusim::copy_from_device(model.sds().data(), sd_, n_ * k_);
    }
    return model;
  }

 private:
  ParamLayout layout_;
  int width_, height_, k_;
  std::size_t n_;
  gpusim::DevSpan<T> w_, m_, sd_, aos_;
};

}  // namespace mog::kernels
