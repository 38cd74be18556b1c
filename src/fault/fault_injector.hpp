#pragma once

#include <cstdint>
#include <vector>

#include "core/machine.hpp"
#include "fault/fault_config.hpp"
#include "sim/rng.hpp"

/// \file fault_injector.hpp
/// Deterministic fault injection for the memory system. One injector per
/// core::System, seeded from FaultConfig::seed; probability draws consume
/// its private Rng in the (single-threaded, deterministic) order the call
/// sites execute, and time-scheduled faults fire when the simulated clock
/// passes them — so an injected run is exactly as reproducible as a clean
/// one. Injection points:
///  - core::Machine::map_* / move_*: transient frame-allocation denials;
///  - driver::MigrationEngine::batch_with_retry: migration-batch failures
///    with bounded, backoff-charged retries;
///  - a clock observer: NVLink-C2C degradation windows;
///  - core::System::service_faults: ECC frame retirement with remap.
/// Resilience responses (eviction writeback, fallback placement) run under
/// ScopedSuppress so the cure is never re-injected with the disease.

namespace ghum::chk {
class Snapshotter;
}  // namespace ghum::chk

namespace ghum::fault {

class FaultInjector {
 public:
  explicit FaultInjector(core::Machine& m);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  [[nodiscard]] bool enabled() const noexcept { return cfg_.enabled; }

  // --- call-site probability draws -----------------------------------------
  /// Transient frame-allocation denial for \p node. Records the event and
  /// counts the stat when it fires. Never fires while suppressed.
  [[nodiscard]] bool deny_frame_alloc(mem::Node node);

  /// One migration-batch failure draw (retry policy lives in the
  /// MigrationEngine, which charges the simulated backoff).
  [[nodiscard]] bool fail_migration_batch();

  // --- suppression (resilience paths are exempt from injection) ------------
  [[nodiscard]] bool suppressed() const noexcept { return suppress_ > 0; }

  /// RAII exemption; tolerates a null injector so callers need no checks.
  class ScopedSuppress {
   public:
    explicit ScopedSuppress(FaultInjector* fi) noexcept : fi_(fi) {
      if (fi_ != nullptr) ++fi_->suppress_;
    }
    ~ScopedSuppress() {
      if (fi_ != nullptr) --fi_->suppress_;
    }
    ScopedSuppress(const ScopedSuppress&) = delete;
    ScopedSuppress& operator=(const ScopedSuppress&) = delete;

   private:
    FaultInjector* fi_;
  };

  // --- NVLink-C2C degradation windows (clock-driven) ------------------------
  [[nodiscard]] bool has_link_windows() const noexcept { return !windows_.empty(); }

  /// Clock-observer hook: enters/leaves degradation windows as simulated
  /// time passes their boundaries. Only flips link state and records
  /// events — never advances the clock (safe inside an observer).
  void on_time_advance(sim::Picos now);

  // --- ECC schedule ----------------------------------------------------------
  /// True when an ECC event is due at or before \p now (cheap pre-check).
  [[nodiscard]] bool ecc_due(sim::Picos now) const noexcept {
    return next_ecc_ < ecc_.size() && ecc_[next_ecc_].time <= now;
  }
  /// Consumes and returns the next due ECC event, or nullptr.
  [[nodiscard]] const EccEvent* take_due_ecc(sim::Picos now) {
    if (!ecc_due(now)) return nullptr;
    return &ecc_[next_ecc_++];
  }

  // --- GPU channel-reset schedule (crash fault class) ------------------------
  /// True when a GPU reset is due at or before \p now.
  [[nodiscard]] bool reset_due(sim::Picos now) const noexcept {
    return next_reset_ < resets_.size() && resets_[next_reset_].time <= now;
  }
  /// Consumes and returns the next due GPU reset, or nullptr. The cursor
  /// only ever advances — a restore never rewinds it, so a restarted job
  /// does not deterministically re-crash on the same scheduled reset.
  [[nodiscard]] const GpuResetEvent* take_due_reset(sim::Picos now) {
    if (!reset_due(now)) return nullptr;
    return &resets_[next_reset_++];
  }

  // --- lifetime counters -----------------------------------------------------
  /// Frame allocations denied (a read of ghum_alloc_denials_total).
  [[nodiscard]] std::uint64_t denials() const noexcept {
    return m_->metrics().alloc_denials->value();
  }

 private:
  /// Gives the link the open window's factors (each at least 1).
  void degrade_link();

  core::Machine* m_;
  FaultConfig cfg_;
  sim::Rng rng_;
  std::int64_t suppress_ = 0;

  std::vector<LinkDegradeWindow> windows_;  ///< sorted by start
  std::size_t next_window_ = 0;
  std::ptrdiff_t active_window_ = -1;

  std::vector<EccEvent> ecc_;  ///< sorted by time
  std::size_t next_ecc_ = 0;

  std::vector<GpuResetEvent> resets_;  ///< sorted by time
  std::size_t next_reset_ = 0;

  friend class ghum::chk::Snapshotter;
};

}  // namespace ghum::fault
