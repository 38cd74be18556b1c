#include "driver/access_counter.hpp"

namespace ghum::driver {

void AccessCounterEngine::note_gpu_access(os::Vma& vma, std::uint64_t va,
                                          std::uint64_t events,
                                          std::uint64_t kernel_id) {
  note(vma, va, events, mem::Node::kGpu, kernel_id);
}

void AccessCounterEngine::note_cpu_access(os::Vma& vma, std::uint64_t va,
                                          std::uint64_t events) {
  note(vma, va, events, mem::Node::kCpu, ~0ull);
}

void AccessCounterEngine::note(os::Vma& vma, std::uint64_t va,
                               std::uint64_t events, mem::Node to,
                               std::uint64_t kernel_id) {
  const auto& cfg = m_->config();
  if (!cfg.access_counter_migration) return;
  // An explicit preferred location pins the range: the driver does not
  // counter-migrate advised memory away from it.
  if (vma.preferred_location.has_value() && *vma.preferred_location != to) return;

  auto& counts = to == mem::Node::kGpu ? gpu_counts_ : cpu_counts_;
  const std::uint64_t region = va / cfg.counter_region_bytes;
  std::uint64_t& count = counts[region];
  count += events;
  if (count < cfg.access_counter_threshold) return;
  if (m_->clock().now() < next_notification_allowed_) return;
  // The driver drains its notification queue at a bounded batch rate: at
  // most counter_migrations_per_kernel migrations are serviced while one
  // kernel is in flight.
  if (kernel_id != ~0ull) {
    if (kernel_id != current_kernel_) {
      current_kernel_ = kernel_id;
      fired_this_kernel_ = 0;
    }
    if (fired_this_kernel_ >= cfg.counter_migrations_per_kernel) return;
    ++fired_this_kernel_;
  }

  // Notification interrupt: handled by the driver on a CPU core. Accesses
  // to the region stall while its pages are unmapped and moved — the
  // "temporary latency increase when the computation accesses pages that
  // are being migrated" of paper Section 5.2. The notification is a causal
  // root: the region migration below inherits its span.
  sim::SpanScope span{m_->events()};
  m_->metrics().counter_notifications->inc();
  count = 0;
  next_notification_allowed_ = m_->clock().now() + cfg.counter_min_interval;
  m_->clock().advance(cfg.costs.counter_notification +
                      cfg.costs.inflight_migration_stall);
  m_->events().record(sim::EventType::kCounterNotification,
                      region * cfg.counter_region_bytes, cfg.counter_region_bytes);

  // The driver migrates the whole region's resident pages (Section 2.2.1).
  const std::uint64_t region_base = region * cfg.counter_region_bytes;
  std::uint64_t moved;
  if (to == mem::Node::kGpu) {
    moved = mig_->migrate_system_range_to_gpu(vma, region_base,
                                              cfg.counter_region_bytes, ~0ull);
    h2d_ += moved;
  } else {
    moved = mig_->migrate_system_range_to_cpu(vma, region_base,
                                              cfg.counter_region_bytes, ~0ull);
    d2h_ += moved;
  }
}

void AccessCounterEngine::reset() {
  gpu_counts_.clear();
  cpu_counts_.clear();
}

}  // namespace ghum::driver
