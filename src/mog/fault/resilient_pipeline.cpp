#include "mog/fault/resilient_pipeline.hpp"

#include <cmath>
#include <type_traits>

#include "mog/common/strutil.hpp"
#include "mog/cpu/cost_model.hpp"
#include "mog/cpu/model_io.hpp"
#include "mog/telemetry/frame_ticket.hpp"
#include "mog/telemetry/log.hpp"
#include "mog/telemetry/telemetry.hpp"

namespace mog::fault {

namespace {

const telemetry::ScopedLogger klog{"fault"};

/// Tag a recovery trace instant with the frame ticket in scope, so the
/// serving layer's per-frame flow chains name the frame an action salvaged.
std::vector<std::pair<std::string, double>> with_ticket(
    std::vector<std::pair<std::string, double>> args) {
  if (const std::uint64_t t = telemetry::current_frame_ticket(); t != 0)
    args.emplace_back("ticket", static_cast<double>(t));
  return args;
}

// A burst-corrupted frame is saturated (0/255) over a large contiguous
// band; clean camera frames are not. Conservative: a false positive only
// costs one reused mask.
constexpr double kSaturationFractionThreshold = 0.25;

bool looks_corrupt(const FrameU8& frame) {
  std::size_t saturated = 0;
  for (std::size_t i = 0; i < frame.size(); ++i)
    saturated += (frame[i] == 0 || frame[i] == 255) ? 1u : 0u;
  return static_cast<double>(saturated) >
         kSaturationFractionThreshold * static_cast<double>(frame.size());
}

}  // namespace

const char* to_string(ExecutionTier tier) {
  switch (tier) {
    case ExecutionTier::kTiledGpu: return "tiled-gpu";
    case ExecutionTier::kGpuDirect: return "gpu-direct";
    case ExecutionTier::kCpuSerial: return "cpu-serial";
  }
  return "?";
}

void RetryPolicy::validate() const {
  MOG_CHECK(max_attempts >= 1, "retry policy needs at least one attempt");
}

void ResilienceConfig::validate() const {
  retry.validate();
  MOG_CHECK(checkpoint_interval >= 0, "checkpoint_interval must be >= 0");
  MOG_CHECK(health_check_interval >= 0,
            "health_check_interval must be >= 0");
  MOG_CHECK(health_check_stride >= 1, "health_check_stride must be >= 1");
  MOG_CHECK(weight_drift_tolerance > 0.0,
            "weight_drift_tolerance must be positive");
  MOG_CHECK(degrade_after_failures >= 1,
            "degrade_after_failures must be >= 1");
  MOG_CHECK(frame_deadline_seconds >= 0.0,
            "frame_deadline_seconds must be >= 0");
}

RecoveryStats& RecoveryStats::operator+=(const RecoveryStats& o) {
  frames_in += o.frames_in;
  frames_absorbed += o.frames_absorbed;
  masks_delivered += o.masks_delivered;
  frames_dropped += o.frames_dropped;
  frames_truncated += o.frames_truncated;
  frames_corrupt += o.frames_corrupt;
  masks_reused += o.masks_reused;
  transfer_faults += o.transfer_faults;
  launch_faults += o.launch_faults;
  retries += o.retries;
  frames_lost += o.frames_lost;
  checkpoints += o.checkpoints;
  rollbacks += o.rollbacks;
  degradations += o.degradations;
  deadline_exceeded += o.deadline_exceeded;
  backoff_seconds += o.backoff_seconds;
  return *this;
}

std::string RecoveryStats::summary() const {
  return strprintf(
      "%llu/%llu frames absorbed, %llu masks (%llu reused); faults: "
      "%llu transfer, %llu launch, %llu bad frames; recovery: %llu retries "
      "(%.1f ms backoff), %llu lost, %llu checkpoints, %llu rollbacks, "
      "%llu degradations",
      static_cast<unsigned long long>(frames_absorbed),
      static_cast<unsigned long long>(frames_in),
      static_cast<unsigned long long>(masks_delivered),
      static_cast<unsigned long long>(masks_reused),
      static_cast<unsigned long long>(transfer_faults),
      static_cast<unsigned long long>(launch_faults),
      static_cast<unsigned long long>(frames_dropped + frames_truncated +
                                      frames_corrupt),
      static_cast<unsigned long long>(retries), 1e3 * backoff_seconds,
      static_cast<unsigned long long>(frames_lost),
      static_cast<unsigned long long>(checkpoints),
      static_cast<unsigned long long>(rollbacks),
      static_cast<unsigned long long>(degradations));
}

template <typename T>
ResilientPipeline<T>::ResilientPipeline(const GpuConfig& gpu_config,
                                        const ResilienceConfig& resilience,
                                        std::shared_ptr<FaultInjector> injector)
    : gpu_config_(gpu_config),
      res_(resilience),
      injector_(std::move(injector)) {
  res_.validate();
  tier_ = gpu_config_.tiled ? ExecutionTier::kTiledGpu
                            : ExecutionTier::kGpuDirect;
  build_engine(tier_);
  last_mask_ = FrameU8(gpu_config_.width, gpu_config_.height);
}

template <typename T>
void ResilientPipeline<T>::build_engine(ExecutionTier tier) {
  gpu_.reset();
  cpu_.reset();
  switch (tier) {
    case ExecutionTier::kTiledGpu:
      gpu_ = std::make_unique<GpuMogPipeline<T>>(gpu_config_);
      break;
    case ExecutionTier::kGpuDirect: {
      GpuConfig direct = gpu_config_;
      if (direct.tiled) {
        // Stepping down from the tiled tier lands on plain level F.
        direct.tiled = false;
        direct.level = kernels::OptLevel::kF;
      }
      gpu_ = std::make_unique<GpuMogPipeline<T>>(direct);
      break;
    }
    case ExecutionTier::kCpuSerial:
      cpu_ = std::make_unique<SerialMog<T>>(gpu_config_.width,
                                            gpu_config_.height,
                                            gpu_config_.params);
      break;
  }
  if (gpu_ && injector_) gpu_->device().set_fault_hook(injector_.get());
}

template <typename T>
MogModel<T> ResilientPipeline<T>::current_model() const {
  return cpu_ ? cpu_->model() : gpu_->model();
}

template <typename T>
MogModel<T> ResilientPipeline<T>::model() const {
  return current_model();
}

template <typename T>
FrameU8 ResilientPipeline<T>::background() const {
  return to_u8(current_model().background_image());
}

template <typename T>
void ResilientPipeline<T>::adopt_model(const MogModel<T>& m) {
  MOG_CHECK(m.width() == gpu_config_.width &&
                m.height() == gpu_config_.height &&
                m.num_components() == gpu_config_.params.num_components,
            "adopted model geometry does not match the pipeline");
  restore_model(m);
  checkpoint_ = m;
  has_checkpoint_ = true;
  frames_since_checkpoint_ = 0;
  consecutive_lost_ = 0;
  telemetry::emit_instant("model_adopted", "recovery", with_ticket({}));
  klog.info("external model adopted",
            {{"tier", to_string(tier_)},
             {"pixels", static_cast<std::int64_t>(m.num_pixels())}});
}

template <typename T>
gpusim::FrameSchedule ResilientPipeline<T>::frame_schedule() const {
  if (gpu_) return gpu_->frame_schedule();
  gpusim::FrameSchedule sched;  // CPU tier: no host<->device transfers
  sched.kernel_seconds = CpuCostModel{}.seconds(
      CpuVariant::kSerial,
      std::is_same_v<T, float> ? Precision::kFloat : Precision::kDouble,
      gpu_config_.width, gpu_config_.height, /*frames=*/1,
      gpu_config_.params.num_components);
  return sched;
}

template <typename T>
void ResilientPipeline<T>::restore_model(const MogModel<T>& m) {
  if (cpu_)
    cpu_->model() = m;
  else
    gpu_->set_model(m);
}

template <typename T>
bool ResilientPipeline<T>::salvage(FrameU8& fg, std::uint64_t& counter) {
  ++counter;
  ++stats_.masks_reused;
  ++stats_.masks_delivered;
  fg = last_mask_;
  telemetry::emit_instant(
      "mask_salvaged", "recovery",
      with_ticket({{"frame", static_cast<double>(stats_.frames_in)}}));
  klog.debug("mask salvaged",
             {{"frame", static_cast<std::int64_t>(stats_.frames_in)}});
  return true;
}

template <typename T>
bool ResilientPipeline<T>::process(const FrameU8& frame, FrameU8& fg) {
  ++stats_.frames_in;

  // 1. Video layer: apply injected faults, then validate what "arrived".
  FrameU8 working;
  const FrameU8* input = &frame;
  if (injector_) {
    working = frame;
    injector_->apply_frame_faults(working);
    input = &working;
  }
  if (input->empty()) return salvage(fg, stats_.frames_dropped);
  if (input->width() != gpu_config_.width ||
      input->height() != gpu_config_.height)
    return salvage(fg, stats_.frames_truncated);
  if (looks_corrupt(*input)) return salvage(fg, stats_.frames_corrupt);

  // 2. Feed the engine.
  bool delivered = false;
  bool absorbed = false;
  if (cpu_) {
    cpu_->apply(*input, fg);
    last_mask_ = fg;
    ++stats_.masks_delivered;
    delivered = true;
    absorbed = true;
  } else {
    absorbed = run_gpu_with_retry(*input, fg, delivered);
  }

  // 3. Post-frame bookkeeping: scrub fault point, watchdog, checkpoint.
  if (absorbed) {
    ++stats_.frames_absorbed;
    // Only an actually delivered mask proves the engine is healthy again; a
    // tiled frame that was merely buffered has not exercised the launch or
    // download path, so it must not reset the degradation counter.
    if (delivered) consecutive_lost_ = 0;
    after_absorbed_frame();
  }
  return delivered;
}

template <typename T>
template <typename Op>
bool ResilientPipeline<T>::with_retries(Op&& op) {
  double frame_backoff = 0;
  for (int attempt = 1; attempt <= res_.retry.max_attempts; ++attempt) {
    if (attempt > 1) {
      // Attempt 2 is retry 1: 1 ms, doubling per retry (RetryPolicy).
      const double delay = 1e-3 * std::pow(2.0, attempt - 2);
      // A sick device must fail over, not stall its stream through the whole
      // exponential ladder: once this frame's accumulated backoff would cross
      // the deadline, stop retrying and let the abandonment path run now.
      if (res_.frame_deadline_seconds > 0 &&
          frame_backoff + delay > res_.frame_deadline_seconds) {
        ++stats_.deadline_exceeded;
        telemetry::emit_instant(
            "retry_deadline", "recovery",
            with_ticket({{"deadline_seconds", res_.frame_deadline_seconds}}));
        klog.warn("frame retry deadline exceeded, abandoning",
                  {{"deadline_seconds", res_.frame_deadline_seconds},
                   {"attempt", attempt}});
        return false;
      }
      frame_backoff += delay;
      ++stats_.retries;
      stats_.backoff_seconds += delay;
      telemetry::emit_instant(
          "retry", "recovery",
          with_ticket({{"attempt", static_cast<double>(attempt)}}));
      klog.warn("transient device fault, retrying", {{"attempt", attempt}});
    }
    try {
      op();
      return true;
    } catch (const gpusim::TransferError&) {
      ++stats_.transfer_faults;
      telemetry::emit_instant("transfer_fault", "fault", with_ticket({}));
    } catch (const gpusim::LaunchError&) {
      ++stats_.launch_faults;
      telemetry::emit_instant("launch_fault", "fault", with_ticket({}));
    }
  }
  return false;
}

template <typename T>
bool ResilientPipeline<T>::run_gpu_with_retry(const FrameU8& frame, FrameU8& fg,
                                              bool& delivered) {
  const bool done = with_retries([&] {
    // A failed download leaves the pipeline in_flight(); resume() fetches
    // only what is still owed — the model update never runs twice.
    if (gpu_->in_flight() ? gpu_->resume(fg) : gpu_->process(frame, fg)) {
      last_mask_ = fg;
      ++stats_.masks_delivered;
      delivered = true;
    }
  });
  if (done) return true;

  // Retries exhausted: abandon the operation, salvage a mask, and step down
  // the ladder if this keeps happening.
  const int discarded = gpu_->abort_in_flight();
  stats_.frames_lost += static_cast<std::uint64_t>(discarded > 0 ? discarded
                                                                 : 1);
  std::uint64_t unused = 0;
  salvage(fg, unused);
  delivered = true;
  ++consecutive_lost_;
  if (consecutive_lost_ >= res_.degrade_after_failures) degrade();
  return false;
}

template <typename T>
void ResilientPipeline<T>::degrade() {
  if (tier_ == ExecutionTier::kCpuSerial) return;  // floor of the ladder

  // Carry the model across. The un-hooked model download always works
  // functionally; if the state itself is unhealthy, fall back to the last
  // checkpoint (or a fresh model as the last resort).
  MogModel<T> carry = current_model();
  if (!validate_model(carry, res_.health_check_stride)
           .healthy(res_.weight_drift_tolerance)) {
    carry = has_checkpoint_
                ? checkpoint_
                : MogModel<T>(gpu_config_.width, gpu_config_.height,
                              gpu_config_.params);
  }

  const ExecutionTier from = tier_;
  tier_ = tier_ == ExecutionTier::kTiledGpu ? ExecutionTier::kGpuDirect
                                            : ExecutionTier::kCpuSerial;
  build_engine(tier_);
  restore_model(carry);
  ++stats_.degradations;
  consecutive_lost_ = 0;
  telemetry::emit_instant(
      "degrade", "recovery",
      with_ticket({{"from_tier", static_cast<double>(from)},
                   {"to_tier", static_cast<double>(tier_)}}));
  klog.warn("degraded down the execution ladder",
            {{"from", to_string(from)}, {"to", to_string(tier_)}});
}

template <typename T>
void ResilientPipeline<T>::scrub_model_fault_point() {
  if (!injector_) return;
  if (cpu_) {
    auto& means = cpu_->model().means();
    injector_->corrupt_model_maybe(means.data(), means.size());
    return;
  }
  auto& state = gpu_->state();
  if (state.layout() == kernels::ParamLayout::kSoA) {
    const auto& means = state.means();
    injector_->corrupt_model_maybe(means.data, means.count);
  } else {
    const auto& aos = state.aos();
    injector_->corrupt_model_maybe(aos.data, aos.count);
  }
}

template <typename T>
void ResilientPipeline<T>::after_absorbed_frame() {
  scrub_model_fault_point();

  if (res_.health_check_interval > 0 &&
      ++frames_since_health_ >= res_.health_check_interval) {
    frames_since_health_ = 0;
    const ModelHealth health =
        validate_model(current_model(), res_.health_check_stride);
    if (!health.healthy(res_.weight_drift_tolerance)) rollback();
  }

  if (res_.checkpoint_interval > 0 &&
      ++frames_since_checkpoint_ >= res_.checkpoint_interval) {
    frames_since_checkpoint_ = 0;
    take_checkpoint();
  }
}

template <typename T>
void ResilientPipeline<T>::rollback() {
  ++stats_.rollbacks;
  telemetry::emit_instant(
      "rollback", "recovery",
      with_ticket({{"has_checkpoint", has_checkpoint_ ? 1.0 : 0.0}}));
  klog.warn("model unhealthy, rolling back",
            {{"has_checkpoint", has_checkpoint_}});
  if (has_checkpoint_) {
    restore_model(checkpoint_);
  } else {
    restore_model(MogModel<T>(gpu_config_.width, gpu_config_.height,
                              gpu_config_.params));
  }
}

template <typename T>
void ResilientPipeline<T>::take_checkpoint() {
  MogModel<T> snapshot = current_model();
  // Never checkpoint a sick model — that would turn rollback into replay of
  // the corruption.
  if (!validate_model(snapshot, res_.health_check_stride)
           .healthy(res_.weight_drift_tolerance))
    return;
  checkpoint_ = std::move(snapshot);
  has_checkpoint_ = true;
  ++stats_.checkpoints;
  telemetry::emit_instant(
      "checkpoint", "recovery",
      with_ticket({{"frame", static_cast<double>(stats_.frames_absorbed)}}));
  if (!res_.checkpoint_path.empty())
    save_model(res_.checkpoint_path, checkpoint_);
}

template <typename T>
int ResilientPipeline<T>::flush(std::vector<FrameU8>& out) {
  if (!gpu_) return 0;
  int n = 0;
  const bool done = with_retries([&] {
    if (gpu_->in_flight()) {
      FrameU8 scratch;
      gpu_->resume(scratch);
      const auto& masks = gpu_->last_group_masks();
      out.insert(out.end(), masks.begin(), masks.end());
      n = static_cast<int>(masks.size());
    } else {
      n = gpu_->flush(out);
    }
  });
  if (!done) {
    const int discarded = gpu_->abort_in_flight();
    stats_.frames_lost += static_cast<std::uint64_t>(discarded);
    return 0;
  }
  if (n > 0) {
    // The flushed frames were already counted as absorbed when buffered.
    last_mask_ = out.back();
    stats_.masks_delivered += static_cast<std::uint64_t>(n);
  }
  return n;
}

template class ResilientPipeline<float>;
template class ResilientPipeline<double>;

}  // namespace mog::fault
