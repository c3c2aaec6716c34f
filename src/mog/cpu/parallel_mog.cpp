#include "mog/cpu/parallel_mog.hpp"

#include "mog/common/block_executor.hpp"

namespace mog {

template <typename T>
ParallelMog<T>::ParallelMog(int width, int height, const MogParams& params,
                            int num_threads)
    : params_(params),
      tp_(TypedMogParams<T>::from(params)),
      model_(width, height, params),
      num_threads_(resolve_pool_threads(num_threads)) {}

template <typename T>
void ParallelMog<T>::process_band(int band, const FrameU8& frame,
                                  FrameU8& fg) {
  const std::size_t n = model_.num_pixels();
  const int bands = num_threads();
  const std::size_t lo = n * band / bands;
  const std::size_t hi = n * (band + 1) / bands;

  T* w = model_.weights().data();
  T* m = model_.means().data();
  T* sd = model_.sds().data();
  for (std::size_t p = lo; p < hi; ++p) {
    const T x = static_cast<T>(frame[p]);
    fg[p] = update_pixel_sorted(w + p, m + p, sd + p, n, x, tp_) ? 255 : 0;
  }
}

template <typename T>
void ParallelMog<T>::apply(const FrameU8& frame, FrameU8& fg) {
  MOG_CHECK(frame.width() == model_.width() &&
                frame.height() == model_.height(),
            "frame dimensions do not match the model");
  if (!fg.same_shape(frame)) fg = FrameU8(frame.width(), frame.height());
  BlockExecutor::shared().run(
      num_threads_, num_threads_, [&](std::int64_t band, int) {
        process_band(static_cast<int>(band), frame, fg);
      });
}

template class ParallelMog<float>;
template class ParallelMog<double>;

}  // namespace mog
