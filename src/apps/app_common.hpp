#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cache/kernel_traffic.hpp"
#include "runtime/runtime.hpp"
#include "sim/fnv.hpp"
#include "sim/rng.hpp"

/// \file app_common.hpp
/// Shared scaffolding for the six applications of paper Table 2. Every app
/// is implemented in three memory versions produced by exactly the code
/// transformation of paper Figure 2:
///  - kExplicit: host staging buffer + cudaMalloc device buffer + cudaMemcpy
///  - kManaged:  one cudaMallocManaged buffer
///  - kSystem:   one malloc() buffer
/// and reports per-phase timings with the paper's phase breakdown
/// (Section 3: context init & argument parsing, allocation, CPU-side
/// initialization, computation, de-allocation; CPU-side initialization is
/// excluded from reported totals).

namespace ghum::apps {

enum class MemMode : std::uint8_t { kExplicit = 0, kManaged = 1, kSystem = 2 };

[[nodiscard]] std::string_view to_string(MemMode m) noexcept;

struct PhaseTimes {
  double context_s = 0;   ///< GPU context initialization — its own phase in
                          ///< the paper's breakdown (Section 3.1), excluded
                          ///< from the reported total like CPU-side init
  double alloc_s = 0;
  double cpu_init_s = 0;  ///< excluded from reported total (paper Section 3.1)
  double gpu_init_s = 0;  ///< GPU-side initialization (srad, qvsim)
  double compute_s = 0;
  double dealloc_s = 0;

  [[nodiscard]] double reported_total_s() const noexcept {
    return alloc_s + gpu_init_s + compute_s + dealloc_s;
  }
};

struct AppReport {
  std::string app;
  MemMode mode = MemMode::kExplicit;
  PhaseTimes times;
  /// Deterministic digest of the computed output; equal across the three
  /// memory versions of the same app/problem (asserted by tests).
  std::uint64_t checksum = 0;
  /// Aggregate traffic of the compute phase.
  cache::KernelTraffic compute_traffic;
  /// Per-iteration durations/traffic for iterative apps (srad: Figure 10).
  std::vector<double> iteration_s;
  std::vector<cache::KernelTraffic> iteration_traffic;

  /// App-specific scalar result (qvsim: heavy-output probability when
  /// QvConfig::measure_hop is set). -1 when unused.
  double aux_metric = -1.0;
};

/// A resumable application run: each app's `*_steps` coroutine yields at
/// its natural work-unit boundaries (phase transitions, kernel-loop
/// iterations) and co_returns the finished AppReport. This is the quantum
/// substrate of multi-tenant co-scheduling (tenant::Scheduler resumes one
/// suspended app at a time); driven to completion in one loop it behaves
/// bit-for-bit like the original monolithic run functions, which the
/// `run_*` wrappers still expose.
class AppCoro {
 public:
  struct promise_type {
    AppReport report;
    std::exception_ptr error;

    AppCoro get_return_object() {
      return AppCoro{std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    std::suspend_always final_suspend() noexcept { return {}; }
    std::suspend_always yield_value(int) noexcept { return {}; }
    void return_value(AppReport r) noexcept { report = std::move(r); }
    void unhandled_exception() noexcept { error = std::current_exception(); }
  };

  AppCoro() = default;
  AppCoro(AppCoro&& o) noexcept : h_(std::exchange(o.h_, {})) {}
  AppCoro& operator=(AppCoro&& o) noexcept {
    if (this != &o) {
      destroy();
      h_ = std::exchange(o.h_, {});
    }
    return *this;
  }
  ~AppCoro() { destroy(); }

  [[nodiscard]] bool valid() const noexcept { return static_cast<bool>(h_); }
  [[nodiscard]] bool done() const noexcept { return !h_ || h_.done(); }

  /// Runs one work unit (up to the next co_yield). Returns true while more
  /// remain. On completion, rethrows whatever the app body threw (OOM
  /// StatusError and friends surface to the resumer, exactly as they
  /// escaped the monolithic run functions).
  bool step() {
    if (done()) return false;
    h_.resume();
    if (h_.done()) {
      if (h_.promise().error) std::rethrow_exception(h_.promise().error);
      return false;
    }
    return true;
  }

  /// The finished report (valid once step() has returned false).
  [[nodiscard]] AppReport& report() { return h_.promise().report; }

 private:
  explicit AppCoro(std::coroutine_handle<promise_type> h) noexcept : h_(h) {}
  void destroy() noexcept {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }

  std::coroutine_handle<promise_type> h_;
};

/// Drives a step-yielding app to completion inline — the single-app path
/// every `run_*` wrapper uses.
[[nodiscard]] AppReport drive(AppCoro coro);

/// Phase stopwatch over the simulated clock. GPU-context-initialization
/// time charged during a lap is subtracted from that lap and accumulated
/// separately (PhaseTimes.context_s), mirroring the paper's phase model
/// where context init is its own phase regardless of where it fires.
///
/// Holds the Runtime, not the System: app coroutines keep a PhaseTimer
/// alive across co_yields, and checkpoint restore swaps the Runtime onto a
/// fresh System (runtime::Runtime::rebind) — resolving the clock through
/// the Runtime at every lap keeps the stopwatch valid across that swap.
class PhaseTimer {
 public:
  explicit PhaseTimer(runtime::Runtime& rt)
      : rt_(&rt),
        t0_(rt.system().now()),
        ctx_seen_(rt.system().context_init_charged()) {}

  /// Seconds since construction or the last lap() call, context-init
  /// charges excluded.
  double lap() {
    core::System& sys = rt_->system();
    const sim::Picos now = sys.now();
    const sim::Picos ctx = sys.context_init_charged();
    const sim::Picos ctx_delta = ctx - ctx_seen_;
    ctx_seen_ = ctx;
    ctx_total_ += ctx_delta;
    const double s = sim::to_seconds(now - t0_ - ctx_delta);
    t0_ = now;
    return s;
  }

  /// Context-initialization time observed so far, in seconds.
  [[nodiscard]] double context_s() const { return sim::to_seconds(ctx_total_); }

 private:
  runtime::Runtime* rt_;
  sim::Picos t0_;
  sim::Picos ctx_seen_;
  sim::Picos ctx_total_ = 0;
};

/// One logical application buffer under the Figure 2 transformation.
/// In explicit mode it is a (host staging, device) pair bridged by
/// cudaMemcpy; in the unified modes it is a single buffer.
class UnifiedBuffer {
 public:
  UnifiedBuffer() = default;

  static UnifiedBuffer create(runtime::Runtime& rt, MemMode mode,
                              std::uint64_t bytes, std::string label);

  /// Explicit mode: copy host -> device. Unified modes: no-op (the paper's
  /// ports delete the copies and rely on unified access).
  void h2d(runtime::Runtime& rt);
  void d2h(runtime::Runtime& rt);
  void h2d(runtime::Runtime& rt, std::uint64_t bytes);
  void d2h(runtime::Runtime& rt, std::uint64_t bytes);

  /// Buffer kernels should access.
  [[nodiscard]] const core::Buffer& device() const noexcept {
    return unified_ ? buf_ : dev_;
  }
  /// Buffer host code should access.
  [[nodiscard]] const core::Buffer& host() const noexcept {
    return unified_ ? buf_ : host_;
  }

  [[nodiscard]] bool unified() const noexcept { return unified_; }

  void free(runtime::Runtime& rt);

 private:
  bool unified_ = true;
  core::Buffer buf_;   // unified modes
  core::Buffer host_;  // explicit mode
  core::Buffer dev_;   // explicit mode
};

/// FNV-1a over a little-endian byte view; used for cross-mode checksums.
class Digest {
 public:
  void add_bytes(const void* p, std::size_t n) noexcept {
    h_ = sim::fnv1a(p, n, h_);
  }
  void add_u64(std::uint64_t v) noexcept { add_bytes(&v, sizeof(v)); }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = sim::kFnvOffset;
};

/// Quantize a float so checksums tolerate benign non-associativity
/// (we keep kernel loops identical across modes, so exact equality holds;
/// quantization guards reference comparisons). A NaN or a value outside
/// the int64 range, which a degenerate input can produce (srad on a single
/// pixel has zero variance), maps to INT64_MIN, the value x86-64's
/// truncating conversion gives it, instead of an undefined conversion.
[[nodiscard]] inline std::int64_t quantize(double v, double scale = 1e6) {
  const double q = v * scale;
  if (!(q >= -0x1p63 && q < 0x1p63)) return INT64_MIN;
  return static_cast<std::int64_t>(q);
}

}  // namespace ghum::apps
