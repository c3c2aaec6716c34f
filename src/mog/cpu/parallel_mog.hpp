// Multi-threaded CPU MoG — the paper's 8-thread OpenMP baseline (§IV-A,
// 99.8 s vs 227.3 s serial, i.e. 2.28x). Pixels are independent, so the
// frame is split into contiguous pixel bands, one band per thread
// (equivalent to an OpenMP static schedule). The bands run on the
// process-wide BlockExecutor, so no frame pays for thread creation.
#pragma once

#include "mog/common/image.hpp"
#include "mog/cpu/mog_model.hpp"
#include "mog/cpu/mog_params.hpp"
#include "mog/cpu/mog_update.hpp"

namespace mog {

template <typename T>
class ParallelMog {
 public:
  ParallelMog(int width, int height, const MogParams& params = {},
              int num_threads = 0);  // 0 = hardware_concurrency

  void apply(const FrameU8& frame, FrameU8& fg);

  const MogModel<T>& model() const { return model_; }
  int num_threads() const { return num_threads_; }
  Image<T> background() const { return model_.background_image(); }

 private:
  void process_band(int band, const FrameU8& frame, FrameU8& fg);

  MogParams params_;
  TypedMogParams<T> tp_;
  MogModel<T> model_;
  int num_threads_;
};

extern template class ParallelMog<float>;
extern template class ParallelMog<double>;

}  // namespace mog
