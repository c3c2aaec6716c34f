// Host side of the adaptive kernel's device state: allocation and model
// transfers. Compiled once, at baseline, apart from the per-level kernel
// code in adaptive_kernel.cpp.
#include "mog/kernels/adaptive_kernel.hpp"

namespace mog::kernels {

template <typename T>
AdaptiveDeviceState<T>::AdaptiveDeviceState(gpusim::Device& device, int width,
                                            int height,
                                            const AdaptiveMogParams& params)
    : width_(width),
      height_(height),
      k_max_(params.base.num_components),
      n_(static_cast<std::size_t>(width) * height) {
  params.validate();
  w_ = device.memory().alloc<T>(n_ * k_max_);
  m_ = device.memory().alloc<T>(n_ * k_max_);
  sd_ = device.memory().alloc<T>(n_ * k_max_);
  count_ = device.memory().alloc<std::int32_t>(n_);
  upload(AdaptiveMogModel<T>(width, height, params));
}

template <typename T>
void AdaptiveDeviceState<T>::upload(const AdaptiveMogModel<T>& model) {
  MOG_CHECK(model.width() == width_ && model.height() == height_ &&
                model.max_components() == k_max_,
            "model shape mismatch");
  gpusim::copy_to_device(w_, model.weights().data(), n_ * k_max_);
  gpusim::copy_to_device(m_, model.means().data(), n_ * k_max_);
  gpusim::copy_to_device(sd_, model.sds().data(), n_ * k_max_);
  gpusim::copy_to_device(count_, model.counts().data(), n_);
}

template <typename T>
AdaptiveMogModel<T> AdaptiveDeviceState<T>::download(
    const AdaptiveMogParams& params) const {
  AdaptiveMogModel<T> model(width_, height_, params);
  gpusim::copy_from_device(model.weights().data(), w_, n_ * k_max_);
  gpusim::copy_from_device(model.means().data(), m_, n_ * k_max_);
  gpusim::copy_from_device(model.sds().data(), sd_, n_ * k_max_);
  gpusim::copy_from_device(model.counts().data(), count_, n_);
  return model;
}

template class AdaptiveDeviceState<float>;
template class AdaptiveDeviceState<double>;

}  // namespace mog::kernels
