#pragma once

#include <cstdint>
#include <unordered_map>

#include "core/machine.hpp"
#include "driver/migration_engine.hpp"

/// \file access_counter.hpp
/// The automatic delayed access-counter-based migration of system-allocated
/// memory (paper Section 2.2.1). Hardware counters track GPU accesses to
/// virtual memory regions; when a counter crosses a user-configurable
/// threshold (driver default 256) the GPU raises a *notification* interrupt,
/// and the driver decides whether to migrate the region's pages toward GPU
/// memory. Because coherent direct access already works, this machinery is
/// purely a performance optimization — disabling it (SystemConfig) leaves
/// applications fully functional, exactly as on real hardware.
///
/// Each serviced notification migrates the CPU-resident pages of the whole
/// associated region; the driver's work queue services at most one
/// notification per `counter_min_interval` of simulated time, which is
/// what spreads working-set migration over several iterations in
/// iterative workloads (the iteration 1-4 ramp of paper Figure 10).

namespace ghum::chk {
class Snapshotter;
}  // namespace ghum::chk

namespace ghum::driver {

class AccessCounterEngine {
 public:
  AccessCounterEngine(core::Machine& m, MigrationEngine& mig)
      : m_(&m), mig_(&mig) {}

  /// Reports \p events GPU accesses to the CPU-resident system page
  /// containing \p va during kernel \p kernel_id. May fire a notification
  /// and perform a migration (at most counter_migrations_per_kernel per
  /// kernel launch).
  void note_gpu_access(os::Vma& vma, std::uint64_t va, std::uint64_t events,
                       std::uint64_t kernel_id);

  /// Reports CPU accesses to GPU-resident system pages. The symmetric
  /// direction exists in hardware but the paper observes it never fires in
  /// practice (Section 6): CPU access volumes stay far below the threshold
  /// relative to GPU traffic. We model it with the same threshold.
  void note_cpu_access(os::Vma& vma, std::uint64_t va, std::uint64_t events);

  /// Notifications fired (a read of ghum_counter_notifications_total).
  [[nodiscard]] std::uint64_t notifications() const noexcept {
    return m_->metrics().counter_notifications->value();
  }
  [[nodiscard]] std::uint64_t migrated_h2d_bytes() const noexcept { return h2d_; }
  [[nodiscard]] std::uint64_t migrated_d2h_bytes() const noexcept { return d2h_; }

  /// Forgets all counters (e.g. when an allocation is freed).
  void reset();

 private:
  void note(os::Vma& vma, std::uint64_t va, std::uint64_t events, mem::Node to,
            std::uint64_t kernel_id);

  core::Machine* m_;
  MigrationEngine* mig_;
  /// Counters keyed by (region index); regions are counter_region_bytes
  /// aligned slices of the VA space. Separate maps per direction.
  std::unordered_map<std::uint64_t, std::uint64_t> gpu_counts_;
  std::unordered_map<std::uint64_t, std::uint64_t> cpu_counts_;
  sim::Picos next_notification_allowed_ = 0;  ///< global work-queue limit
  std::uint64_t current_kernel_ = ~0ull;      ///< per-kernel batch limiter
  std::uint32_t fired_this_kernel_ = 0;
  std::uint64_t h2d_ = 0;
  std::uint64_t d2h_ = 0;

  friend class ghum::chk::Snapshotter;
};

}  // namespace ghum::driver
