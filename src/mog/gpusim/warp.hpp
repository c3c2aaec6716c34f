// Warp-level SIMT execution engine.
//
// Device kernels are written against this API: values are 32-lane Vec<T>s,
// control flow goes through WarpCtx (if_then / if_then_else / while_any /
// for_range) which maintains the active-mask stack exactly like Fermi's SSY
// + predicated commit scheme — a divergent branch executes both paths under
// complementary masks, so serialization cost, branch-efficiency counters and
// the extra instructions all emerge from simply running the kernel.
//
// Bookkeeping (issue-cycle charging and live-register tracking) happens
// through a thread-local ExecEnv installed while a warp is running; Vec<T>
// objects constructed outside a kernel are inert.
//
// Charging is the interpreter's hottest path (every arithmetic operator and
// memory op pays it), so it is a branch-free add into a constinit
// thread-local accumulator that the launcher flushes into KernelStats at
// warp end — see detail::charge for why this is bit-identical to charging
// each op under the active-mask check.
//
// Everything here is inline and lives in the inline namespace MOG_ISA_NS:
// the device kernels compile this layer once per x86-64 level, and each
// level's copy must be its own set of symbols (see isa_ns.hpp).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "mog/common/error.hpp"
#include "mog/gpusim/coalescer.hpp"
#include "mog/gpusim/device_memory.hpp"
#include "mog/gpusim/isa_ns.hpp"
#include "mog/gpusim/stats.hpp"
#include "mog/gpusim/timing_constants.hpp"

namespace mog::gpusim {
inline namespace MOG_ISA_NS {

using Addr = std::int64_t;  ///< lane-level index/address arithmetic type

inline constexpr std::uint32_t kFullMask = 0xffffffffu;

/// Register footprint of one lane value, in 32-bit words. Addresses (Addr)
/// occupy a 64-bit register pair, as on real hardware.
template <typename T>
inline constexpr int kRegWords = sizeof(T) <= 4 ? 1 : 2;

// ---------------------------------------------------------------------------
// Execution environment (thread-local, installed per running warp)
// ---------------------------------------------------------------------------

struct RegTracker {
  int live_words = 0;
  int peak_words = 0;
};

struct ExecEnv {
  KernelStats* stats = nullptr;
  Coalescer* coalescer = nullptr;
  std::uint32_t active_mask = kFullMask;
};

namespace detail {

/// Per-warp issue accounting, accumulated branch-free (see charge below) and
/// folded into KernelStats by flush_charges at warp end.
struct ChargeAcc {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
};

/// constinit: accesses compile to a direct TLS load with no dynamic-init
/// guard and no function call — the whole point of the accumulators. The
/// register tracker lives here too (not behind an ExecEnv pointer): Vec
/// construction/destruction is the most frequent interpreter event, and a
/// direct TLS read-modify-write beats the two dependent pointer loads of
/// env->regs->.
inline thread_local constinit ChargeAcc tl_charge{};
inline thread_local constinit RegTracker tl_regs{};
inline thread_local constinit ExecEnv* tl_env = nullptr;

}  // namespace detail

/// Currently-running warp environment (nullptr outside kernel execution).
/// Thread-local: every host executor worker installs its own environment
/// while simulating a warp, so warp bookkeeping never needs locking.
inline ExecEnv*& exec_env() { return detail::tl_env; }

/// RAII installation of the thread-local ExecEnv. Kernel callables can throw
/// (MOG_CHECK, fault injection), and a dangling exec_env() pointer left by a
/// failed launch would silently poison the next launch's divergence and
/// register accounting on this thread — the guard makes the reset
/// exception-safe. Installation also rearms the charge accumulator, so
/// cycles charged outside any kernel (inert host-side Vec arithmetic) are
/// dropped rather than billed to the next warp.
class ExecEnvScope {
 public:
  explicit ExecEnvScope(ExecEnv& env) {
    exec_env() = &env;
    detail::tl_charge = {};
    detail::tl_regs = {};
  }
  ~ExecEnvScope() { exec_env() = nullptr; }

  ExecEnvScope(const ExecEnvScope&) = delete;
  ExecEnvScope& operator=(const ExecEnvScope&) = delete;
};

namespace detail {

/// Unconditional accumulate — no environment load, no branch. Bit-identical
/// to the historical per-op `env != nullptr && active_mask != 0` check:
///  * inside a kernel the active mask is never zero at a charge site — the
///    WarpCtx control-flow scopes only execute a branch body under a
///    non-empty mask (if_then skips an untaken branch, while_any exits
///    before the body once every lane has dropped out), and a warp starts
///    with at least one live lane;
///  * outside any kernel the accumulator is never flushed — ExecEnvScope
///    zeroes it on installation, so idle charges vanish exactly as the old
///    null-environment check dropped them.
inline void charge(int cycles) {
  tl_charge.cycles += static_cast<std::uint64_t>(cycles);
  ++tl_charge.instructions;
}

/// Fold the accumulated per-warp charges into `stats` and rearm. The
/// launcher calls this once per warp; integer sums make the deferred flush
/// bit-identical to charging `stats` op by op.
inline void flush_charges(KernelStats& stats) {
  stats.issue_cycles += tl_charge.cycles;
  stats.warp_instructions += tl_charge.instructions;
  tl_charge = {};
}

template <typename T>
inline void charge_arith() {
  if constexpr (sizeof(T) == 8 && std::is_floating_point_v<T>)
    charge(kCyclesDpArith);
  else if constexpr (std::is_floating_point_v<T>)
    charge(kCyclesSpArith);
  else
    charge(kCyclesIntArith);
}

template <typename T>
inline void charge_div() {
  if constexpr (std::is_floating_point_v<T> && sizeof(T) == 8)
    charge(kCyclesDpDiv);
  else if constexpr (std::is_floating_point_v<T>)
    charge(kCyclesSpDiv);
  else
    charge(kCyclesIntArith * 4);  // integer div: multi-instruction sequence
}

template <typename T>
inline void charge_sqrt() {
  charge(sizeof(T) == 8 ? kCyclesDpSqrt : kCyclesSpSqrt);
}

/// Register-allocates `words` if a kernel is running on this thread and
/// returns whether it did — the Vec remembers the answer so its destructor
/// never releases words it did not allocate (a Vec constructed outside a
/// kernel but destroyed while one runs would otherwise drive live_words
/// negative and corrupt peak_words / regs_per_thread).
inline bool track_alloc(int words) {
  if (tl_env == nullptr) return false;
  RegTracker& r = tl_regs;
  r.live_words += words;
  if (r.live_words > r.peak_words) r.peak_words = r.live_words;
  return true;
}
inline void track_release(int words) {
  if (tl_env != nullptr) tl_regs.live_words -= words;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Vec<T>: one register's worth of per-lane values
// ---------------------------------------------------------------------------

template <typename T>
class Vec {
 public:
  Vec() : lane_{}, tracked_(detail::track_alloc(kRegWords<T>)) {}
  explicit Vec(T broadcast) {
    lane_.fill(broadcast);
    tracked_ = detail::track_alloc(kRegWords<T>);
  }
  Vec(const Vec& other)
      : lane_(other.lane_), tracked_(detail::track_alloc(kRegWords<T>)) {}
  Vec(Vec&& other) noexcept
      : lane_(other.lane_), tracked_(detail::track_alloc(kRegWords<T>)) {}
  // Assignment transfers lane values only: this Vec's own allocation (and
  // whether it was tracked at construction) is unchanged.
  Vec& operator=(const Vec& other) {
    lane_ = other.lane_;
    return *this;
  }
  Vec& operator=(Vec&& other) noexcept {
    lane_ = other.lane_;
    return *this;
  }
  ~Vec() {
    if (tracked_) detail::track_release(kRegWords<T>);
  }

  /// Result-register factory for ops that assign every lane: registers are
  /// tracked exactly like the default constructor's, but the lanes start
  /// unspecified, skipping a dead 32-lane zero fill per temporary.
  static Vec uninit() { return Vec{UninitTag{}}; }

  T& operator[](int lane) { return lane_[static_cast<std::size_t>(lane)]; }
  const T& operator[](int lane) const {
    return lane_[static_cast<std::size_t>(lane)];
  }

  /// Raw lane storage, for the tight per-lane loops of the operators below
  /// (contiguous pointer iteration keeps them trivially vectorizable).
  std::array<T, kWarpSize>& lanes() { return lane_; }
  const std::array<T, kWarpSize>& lanes() const { return lane_; }

  /// Lane-indexed iota helper: lane i gets base + i * step.
  static Vec iota(T base, T step = T{1}) {
    Vec v = uninit();
    for (int i = 0; i < kWarpSize; ++i)
      v.lane_[static_cast<std::size_t>(i)] =
          static_cast<T>(base + step * static_cast<T>(i));
    return v;
  }

 private:
  struct UninitTag {};
  explicit Vec(UninitTag) : tracked_(detail::track_alloc(kRegWords<T>)) {}

  std::array<T, kWarpSize> lane_;
  bool tracked_;  ///< allocation was counted at construction (see track_alloc)
};

/// Per-lane boolean predicate (Fermi predicate registers are not part of the
/// general register file, so Pred is untracked).
struct Pred {
  std::uint32_t bits = 0;
  bool lane(int i) const { return (bits >> i) & 1u; }
  void set(int i, bool v) {
    if (v)
      bits |= (1u << i);
    else
      bits &= ~(1u << i);
  }
  friend Pred operator&(Pred a, Pred b) { return Pred{a.bits & b.bits}; }
  friend Pred operator|(Pred a, Pred b) { return Pred{a.bits | b.bits}; }
  friend Pred operator~(Pred a) { return Pred{~a.bits}; }
};

// --- elementwise arithmetic (charged as one warp instruction each) ---------

#define MOG_GPUSIM_BINOP(op)                                            \
  template <typename T>                                                 \
  inline Vec<T> operator op(const Vec<T>& a, const Vec<T>& b) {         \
    detail::charge_arith<T>();                                          \
    Vec<T> r = Vec<T>::uninit();                                        \
    T* rp = r.lanes().data();                                           \
    const T* ap = a.lanes().data();                                     \
    const T* bp = b.lanes().data();                                     \
    for (int i = 0; i < kWarpSize; ++i) rp[i] = ap[i] op bp[i];         \
    return r;                                                           \
  }                                                                     \
  template <typename T>                                                 \
  inline Vec<T> operator op(const Vec<T>& a, T b) {                     \
    detail::charge_arith<T>();                                          \
    Vec<T> r = Vec<T>::uninit();                                        \
    T* rp = r.lanes().data();                                           \
    const T* ap = a.lanes().data();                                     \
    for (int i = 0; i < kWarpSize; ++i) rp[i] = ap[i] op b;             \
    return r;                                                           \
  }                                                                     \
  template <typename T>                                                 \
  inline Vec<T> operator op(T a, const Vec<T>& b) {                     \
    detail::charge_arith<T>();                                          \
    Vec<T> r = Vec<T>::uninit();                                        \
    T* rp = r.lanes().data();                                           \
    const T* bp = b.lanes().data();                                     \
    for (int i = 0; i < kWarpSize; ++i) rp[i] = a op bp[i];             \
    return r;                                                           \
  }

MOG_GPUSIM_BINOP(+)
MOG_GPUSIM_BINOP(-)
MOG_GPUSIM_BINOP(*)
#undef MOG_GPUSIM_BINOP

template <typename T>
inline Vec<T> operator/(const Vec<T>& a, const Vec<T>& b) {
  detail::charge_div<T>();
  Vec<T> r = Vec<T>::uninit();
  T* rp = r.lanes().data();
  const T* ap = a.lanes().data();
  const T* bp = b.lanes().data();
  for (int i = 0; i < kWarpSize; ++i)
    rp[i] = bp[i] != T{0} ? ap[i] / bp[i] : T{0};
  return r;
}
template <typename T>
inline Vec<T> operator/(const Vec<T>& a, T b) {
  detail::charge_div<T>();
  Vec<T> r = Vec<T>::uninit();
  T* rp = r.lanes().data();
  const T* ap = a.lanes().data();
  for (int i = 0; i < kWarpSize; ++i) rp[i] = b != T{0} ? ap[i] / b : T{0};
  return r;
}
template <typename T>
inline Vec<T> operator/(T a, const Vec<T>& b) {
  detail::charge_div<T>();
  Vec<T> r = Vec<T>::uninit();
  T* rp = r.lanes().data();
  const T* bp = b.lanes().data();
  for (int i = 0; i < kWarpSize; ++i)
    rp[i] = bp[i] != T{0} ? a / bp[i] : T{0};
  return r;
}

template <typename T>
inline Vec<T> vabs(const Vec<T>& a) {
  detail::charge_arith<T>();
  Vec<T> r = Vec<T>::uninit();
  T* rp = r.lanes().data();
  const T* ap = a.lanes().data();
  for (int i = 0; i < kWarpSize; ++i) rp[i] = std::abs(ap[i]);
  return r;
}

template <typename T>
inline Vec<T> vsqrt(const Vec<T>& a) {
  detail::charge_sqrt<T>();
  Vec<T> r = Vec<T>::uninit();
  T* rp = r.lanes().data();
  const T* ap = a.lanes().data();
  for (int i = 0; i < kWarpSize; ++i)
    rp[i] = ap[i] > T{0} ? std::sqrt(ap[i]) : T{0};
  return r;
}

namespace detail {

/// Correctly-rounded per-lane fused multiply-add r[i] = fma(a[i],b[i],c[i]).
/// Each x86-64 level compiles its own copy: with an FMA unit (x86-64-v3 and
/// up) std::fma inlines into vector vfmadd instructions, bit-identical to
/// the libm call since IEEE 754 defines exactly one correctly-rounded fma
/// result; the baseline level calls libm's fma once per lane.
template <typename T>
inline void fma_lanes(const T* a, const T* b, const T* c, T* r) {
  for (int i = 0; i < kWarpSize; ++i) r[i] = std::fma(a[i], b[i], c[i]);
}

}  // namespace detail

/// Fused multiply-add a*b + c — contracted, matching GPU codegen. CPU
/// reference code compiles with -ffp-contract=off, so this is the mechanism
/// behind the paper's small MS-SSIM deltas (§V-A).
template <typename T>
inline Vec<T> vfma(const Vec<T>& a, const Vec<T>& b, const Vec<T>& c) {
  detail::charge_arith<T>();
  Vec<T> r = Vec<T>::uninit();
  detail::fma_lanes(a.lanes().data(), b.lanes().data(), c.lanes().data(),
                    r.lanes().data());
  return r;
}

template <typename T>
inline Vec<T> vmax(const Vec<T>& a, const Vec<T>& b) {
  detail::charge_arith<T>();
  Vec<T> r = Vec<T>::uninit();
  T* rp = r.lanes().data();
  const T* ap = a.lanes().data();
  const T* bp = b.lanes().data();
  for (int i = 0; i < kWarpSize; ++i) rp[i] = ap[i] > bp[i] ? ap[i] : bp[i];
  return r;
}

template <typename T>
inline Vec<T> vmin(const Vec<T>& a, const Vec<T>& b) {
  detail::charge_arith<T>();
  Vec<T> r = Vec<T>::uninit();
  T* rp = r.lanes().data();
  const T* ap = a.lanes().data();
  const T* bp = b.lanes().data();
  for (int i = 0; i < kWarpSize; ++i) rp[i] = ap[i] < bp[i] ? ap[i] : bp[i];
  return r;
}

template <typename To, typename From>
inline Vec<To> vcast(const Vec<From>& a) {
  // Conversion cost follows the destination width: a cast producing doubles
  // runs at the half-rate DP pipe, int targets at the int pipe.
  detail::charge_arith<To>();
  Vec<To> r = Vec<To>::uninit();
  To* rp = r.lanes().data();
  const From* ap = a.lanes().data();
  for (int i = 0; i < kWarpSize; ++i) rp[i] = static_cast<To>(ap[i]);
  return r;
}

/// Predicated blend: lane-wise p ? a : b. One select instruction.
template <typename T>
inline Vec<T> select(const Pred& p, const Vec<T>& a, const Vec<T>& b) {
  detail::charge_arith<T>();
  Vec<T> r = Vec<T>::uninit();
  T* rp = r.lanes().data();
  const T* ap = a.lanes().data();
  const T* bp = b.lanes().data();
  for (int i = 0; i < kWarpSize; ++i)
    rp[i] = (p.bits >> i) & 1u ? ap[i] : bp[i];
  return r;
}

#define MOG_GPUSIM_CMP(name, op)                                        \
  template <typename T>                                                 \
  inline Pred name(const Vec<T>& a, const Vec<T>& b) {                  \
    detail::charge_arith<T>();                                          \
    const T* ap = a.lanes().data();                                     \
    const T* bp = b.lanes().data();                                     \
    std::uint32_t bits = 0;                                             \
    for (int i = 0; i < kWarpSize; ++i)                                 \
      bits |= static_cast<std::uint32_t>(ap[i] op bp[i]) << i;          \
    return Pred{bits};                                                  \
  }                                                                     \
  template <typename T>                                                 \
  inline Pred name(const Vec<T>& a, T b) {                              \
    detail::charge_arith<T>();                                          \
    const T* ap = a.lanes().data();                                     \
    std::uint32_t bits = 0;                                             \
    for (int i = 0; i < kWarpSize; ++i)                                 \
      bits |= static_cast<std::uint32_t>(ap[i] op b) << i;              \
    return Pred{bits};                                                  \
  }

MOG_GPUSIM_CMP(vlt, <)
MOG_GPUSIM_CMP(vle, <=)
MOG_GPUSIM_CMP(vgt, >)
MOG_GPUSIM_CMP(vge, >=)
MOG_GPUSIM_CMP(veq, ==)
#undef MOG_GPUSIM_CMP

// ---------------------------------------------------------------------------
// Shared memory
// ---------------------------------------------------------------------------

/// Block-scope shared array handle (storage owned by BlockCtx).
template <typename T>
struct SharedSpan {
  T* data = nullptr;
  std::uint32_t byte_offset = 0;  ///< within the block's shared segment
  std::size_t count = 0;
};

// ---------------------------------------------------------------------------
// WarpCtx: mask-stack control flow + memory access
// ---------------------------------------------------------------------------

class WarpCtx {
 public:
  /// `active_lanes` < 32 models the ragged last warp of a grid.
  WarpCtx(ExecEnv& env, std::int64_t global_thread_base, int active_lanes)
      : env_(env), global_base_(global_thread_base) {
    MOG_CHECK(active_lanes >= 1 && active_lanes <= kWarpSize,
              "warp must have 1..32 active lanes");
    env_.active_mask = active_lanes == kWarpSize
                           ? kFullMask
                           : ((1u << active_lanes) - 1u);
  }

  WarpCtx(const WarpCtx&) = delete;
  WarpCtx& operator=(const WarpCtx&) = delete;

  /// Global thread ids of this warp's lanes (blockIdx*blockDim+threadIdx).
  Vec<Addr> global_ids() const {
    return Vec<Addr>::iota(global_base_, 1);
  }
  std::int64_t global_base() const { return global_base_; }
  std::uint32_t active_mask() const { return env_.active_mask; }
  int active_count() const { return std::popcount(env_.active_mask); }
  bool any_active() const { return env_.active_mask != 0; }

  // --- control flow -------------------------------------------------------
  template <typename ThenFn>
  void if_then(const Pred& p, ThenFn&& then_fn) {
    record_branch(p);
    const std::uint32_t taken = env_.active_mask & p.bits;
    if (taken != 0) {
      MaskScope scope{env_, taken};
      then_fn();
    }
  }

  template <typename ThenFn, typename ElseFn>
  void if_then_else(const Pred& p, ThenFn&& then_fn, ElseFn&& else_fn) {
    record_branch(p);
    const std::uint32_t taken = env_.active_mask & p.bits;
    const std::uint32_t not_taken = env_.active_mask & ~p.bits;
    if (taken != 0) {
      MaskScope scope{env_, taken};
      then_fn();
    }
    if (not_taken != 0) {
      MaskScope scope{env_, not_taken};
      else_fn();
    }
  }

  /// Uniform counted loop (all lanes iterate together; back-edge branches
  /// are never divergent).
  template <typename BodyFn>
  void for_range(int n, BodyFn&& body) {
    for (int i = 0; i < n; ++i) {
      ++env_.stats->branches_executed;
      detail::charge(kCyclesBranch);
      body(i);
    }
    ++env_.stats->branches_executed;  // loop-exit branch
    detail::charge(kCyclesBranch);
  }

  /// Data-dependent loop: iterate while any active lane's condition holds;
  /// lanes whose condition fails drop out (this is where early-exit scans
  /// diverge). `cond` is evaluated under the loop's current mask.
  template <typename CondFn, typename BodyFn>
  void while_any(CondFn&& cond, BodyFn&& body) {
    const std::uint32_t saved = env_.active_mask;
    while (env_.active_mask != 0) {
      const Pred p = cond();
      record_branch(p);
      env_.active_mask &= p.bits;
      if (env_.active_mask == 0) break;
      body();
    }
    env_.active_mask = saved;
  }

  /// Masked commit: dst = src on active lanes only.
  template <typename T>
  void set(Vec<T>& dst, const Vec<T>& src) {
    detail::charge_arith<T>();
    if (env_.active_mask == kFullMask) {
      dst.lanes() = src.lanes();
      return;
    }
    T* dp = dst.lanes().data();
    const T* sp = src.lanes().data();
    for (int i = 0; i < kWarpSize; ++i)
      if ((env_.active_mask >> i) & 1u) dp[i] = sp[i];
  }

  /// Warp-wide OR-reduction of a predicate over active lanes (models the
  /// __any() / vote intrinsic family: one instruction).
  bool any(const Pred& p) const {
    detail::charge(kCyclesIntArith);
    return (env_.active_mask & p.bits) != 0;
  }

  /// Warp-wide max over active lanes (butterfly shuffle reduction: 5 steps
  /// of shfl+max on real hardware). Returns `fallback` when no lane is
  /// active.
  std::int32_t lane_max(const Vec<std::int32_t>& v,
                        std::int32_t fallback = 0) const {
    detail::charge(10 * kCyclesIntArith);  // 5x (shfl + max)
    std::int32_t best = fallback;
    bool found = false;
    for (int i = 0; i < kWarpSize; ++i) {
      if (((env_.active_mask >> i) & 1u) == 0) continue;
      best = found ? std::max(best, v[i]) : v[i];
      found = true;
    }
    return best;
  }

  // --- global memory --------------------------------------------------------
  /// Gather: out lane i = static_cast<T>(span[idx[i]]) for active lanes;
  /// inactive lanes read as zero. Records one warp load instruction.
  template <typename T, typename S>
  Vec<T> load(const DevSpan<S>& span, const Vec<Addr>& idx) {
    Vec<T> out;  // zero-initialized: inactive lanes read as zero
    std::array<std::uint64_t, kWarpSize> addrs;
    T* op = out.lanes().data();
    const Addr* ip = idx.lanes().data();
    int n = 0;
    if (env_.active_mask == kFullMask) {
      for (int i = 0; i < kWarpSize; ++i) {
        const Addr j = ip[i];
        MOG_ASSERT(j >= 0 && static_cast<std::size_t>(j) < span.count,
                   "device load out of bounds");
        op[i] = static_cast<T>(span.data[j]);
        addrs[static_cast<std::size_t>(i)] =
            span.addr_of(static_cast<std::size_t>(j));
      }
      n = kWarpSize;
    } else {
      for (int i = 0; i < kWarpSize; ++i) {
        if (((env_.active_mask >> i) & 1u) == 0) continue;
        const Addr j = ip[i];
        MOG_ASSERT(j >= 0 && static_cast<std::size_t>(j) < span.count,
                   "device load out of bounds");
        op[i] = static_cast<T>(span.data[j]);
        addrs[static_cast<std::size_t>(n++)] =
            span.addr_of(static_cast<std::size_t>(j));
      }
    }
    env_.coalescer->access(Coalescer::Kind::kLoad,
                           std::span<const std::uint64_t>{addrs.data(),
                                                          std::size_t(n)},
                           sizeof(S), *env_.stats);
    detail::charge(kCyclesMemIssue);
    return out;
  }

  /// Scatter: span[idx[i]] = static_cast<S>(v[i]) for active lanes.
  template <typename S, typename T>
  void store(const DevSpan<S>& span, const Vec<Addr>& idx, const Vec<T>& v) {
    std::array<std::uint64_t, kWarpSize> addrs;
    const Addr* ip = idx.lanes().data();
    const T* vp = v.lanes().data();
    int n = 0;
    if (env_.active_mask == kFullMask) {
      for (int i = 0; i < kWarpSize; ++i) {
        const Addr j = ip[i];
        MOG_ASSERT(j >= 0 && static_cast<std::size_t>(j) < span.count,
                   "device store out of bounds");
        span.data[j] = static_cast<S>(vp[i]);
        addrs[static_cast<std::size_t>(i)] =
            span.addr_of(static_cast<std::size_t>(j));
      }
      n = kWarpSize;
    } else {
      for (int i = 0; i < kWarpSize; ++i) {
        if (((env_.active_mask >> i) & 1u) == 0) continue;
        const Addr j = ip[i];
        MOG_ASSERT(j >= 0 && static_cast<std::size_t>(j) < span.count,
                   "device store out of bounds");
        span.data[j] = static_cast<S>(vp[i]);
        addrs[static_cast<std::size_t>(n++)] =
            span.addr_of(static_cast<std::size_t>(j));
      }
    }
    env_.coalescer->access(Coalescer::Kind::kStore,
                           std::span<const std::uint64_t>{addrs.data(),
                                                          std::size_t(n)},
                           sizeof(S), *env_.stats);
    detail::charge(kCyclesMemIssue);
  }

  // --- shared memory ---------------------------------------------------------
  template <typename T>
  Vec<T> shared_load(const SharedSpan<T>& sh, const Vec<Addr>& idx) {
    Vec<T> out;  // zero-initialized: inactive lanes read as zero
    T* op = out.lanes().data();
    const Addr* ip = idx.lanes().data();
    for (int i = 0; i < kWarpSize; ++i) {
      if (((env_.active_mask >> i) & 1u) == 0) continue;
      const Addr j = ip[i];
      MOG_ASSERT(j >= 0 && static_cast<std::size_t>(j) < sh.count,
                 "shared load out of bounds");
      op[i] = sh.data[j];
    }
    charge_shared<T>(sh, idx);
    return out;
  }

  template <typename T>
  void shared_store(const SharedSpan<T>& sh, const Vec<Addr>& idx,
                    const Vec<T>& v) {
    const Addr* ip = idx.lanes().data();
    const T* vp = v.lanes().data();
    for (int i = 0; i < kWarpSize; ++i) {
      if (((env_.active_mask >> i) & 1u) == 0) continue;
      const Addr j = ip[i];
      MOG_ASSERT(j >= 0 && static_cast<std::size_t>(j) < sh.count,
                 "shared store out of bounds");
      sh.data[j] = vp[i];
    }
    charge_shared<T>(sh, idx);
  }

 private:
  struct MaskScope {
    MaskScope(ExecEnv& env, std::uint32_t new_mask)
        : env_(env), saved_(env.active_mask) {
      env_.active_mask = new_mask;
    }
    ~MaskScope() { env_.active_mask = saved_; }
    ExecEnv& env_;
    std::uint32_t saved_;
  };

  void record_branch(const Pred& p) {
    ++env_.stats->branches_executed;
    detail::charge(kCyclesBranch);
    const std::uint32_t taken = env_.active_mask & p.bits;
    if (taken != 0 && taken != env_.active_mask) {
      ++env_.stats->branches_divergent;
      detail::charge(kCyclesDivergence);
    }
  }

  /// Bank-conflict model: 32 banks x 4-byte words; replay count = max number
  /// of *distinct* words needed from one bank. 64-bit types run as two
  /// 32-bit phases (Fermi handles them without inherent conflict).
  template <typename T>
  void charge_shared(const SharedSpan<T>& sh, const Vec<Addr>& idx);

  ExecEnv& env_;
  std::int64_t global_base_;
};

template <typename T>
void WarpCtx::charge_shared(const SharedSpan<T>& sh, const Vec<Addr>& idx) {
  // Distinct 32-bit word addresses per bank, computed on the first word of
  // each element.
  std::uint32_t words[kWarpSize];
  const Addr* ip = idx.lanes().data();
  int n = 0;
  if (env_.active_mask == kFullMask) {
    for (int i = 0; i < kWarpSize; ++i)
      words[i] = static_cast<std::uint32_t>(
          (sh.byte_offset + static_cast<std::uint64_t>(ip[i]) * sizeof(T)) /
          4);
    n = kWarpSize;
  } else {
    for (int i = 0; i < kWarpSize; ++i) {
      if (((env_.active_mask >> i) & 1u) == 0) continue;
      words[n++] = static_cast<std::uint32_t>(
          (sh.byte_offset + static_cast<std::uint64_t>(ip[i]) * sizeof(T)) /
          4);
    }
  }
  // Count each *distinct* word once per bank (same word from several lanes
  // is a broadcast). Dedupe through a small open-addressed set instead of
  // the O(n²) pairwise scan; set membership is order-independent, so the
  // conflict degree is unchanged.
  std::uint32_t seen[64];
  bool used[64] = {};
  int bank_count[kWarpSize] = {};
  int degree = 1;
  for (int a = 0; a < n; ++a) {
    std::uint32_t h = words[a] & 63u;
    for (;;) {
      if (!used[h]) {
        used[h] = true;
        seen[h] = words[a];
        const int bank = static_cast<int>(words[a] % 32u);
        if (++bank_count[bank] > degree) degree = bank_count[bank];
        break;
      }
      if (seen[h] == words[a]) break;  // broadcast: same word, no conflict
      h = (h + 1) & 63u;
    }
  }
  ++env_.stats->shared_accesses;
  env_.stats->shared_cycles += static_cast<std::uint64_t>(
      degree * (sizeof(T) == 8 ? kCyclesSharedF64 : kCyclesSharedF32));
  detail::charge(kCyclesMemIssue);
}

}  // namespace MOG_ISA_NS
}  // namespace mog::gpusim
