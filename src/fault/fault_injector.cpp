#include "fault/fault_injector.hpp"

#include <algorithm>

namespace ghum::fault {

FaultInjector::FaultInjector(core::Machine& m)
    : m_(&m), cfg_(m.config().faults), rng_(cfg_.seed) {
  windows_ = cfg_.link_degrade;
  std::sort(windows_.begin(), windows_.end(),
            [](const LinkDegradeWindow& a, const LinkDegradeWindow& b) {
              return a.start < b.start;
            });
  ecc_ = cfg_.ecc_events;
  std::sort(ecc_.begin(), ecc_.end(),
            [](const EccEvent& a, const EccEvent& b) { return a.time < b.time; });
  resets_ = cfg_.gpu_resets;
  std::sort(resets_.begin(), resets_.end(),
            [](const GpuResetEvent& a, const GpuResetEvent& b) {
              return a.time < b.time;
            });
}

bool FaultInjector::deny_frame_alloc(mem::Node node) {
  if (!cfg_.enabled || suppressed() || cfg_.frame_alloc_denial_prob <= 0.0) {
    return false;
  }
  if (rng_.next_double() >= cfg_.frame_alloc_denial_prob) return false;
  m_->metrics().alloc_denials->inc();
  m_->events().record(sim::EventType::kFaultAllocDenial, 0, 0,
                      static_cast<std::uint32_t>(node));
  return true;
}

bool FaultInjector::fail_migration_batch() {
  if (!cfg_.enabled || suppressed() || cfg_.migration_batch_fail_prob <= 0.0) {
    return false;
  }
  return rng_.next_double() < cfg_.migration_batch_fail_prob;
}

void FaultInjector::degrade_link() {
  const LinkDegradeWindow& w = windows_[static_cast<std::size_t>(active_window_)];
  m_->c2c().set_degrade(std::max(1.0, w.bandwidth_factor),
                        std::max(1.0, w.latency_factor));
}

void FaultInjector::on_time_advance(sim::Picos now) {
  if (windows_.empty()) return;
  auto& c2c = m_->c2c();
  if (active_window_ >= 0) {
    const LinkDegradeWindow& w = windows_[static_cast<std::size_t>(active_window_)];
    if (now < w.start + w.duration) return;  // still inside
    c2c.clear_degrade();
    active_window_ = -1;
    m_->metrics().link_degrade_ends->inc();
    m_->events().record(sim::EventType::kLinkDegradeEnd);
  }
  // Skip windows the clock jumped clean over (they never took effect).
  while (next_window_ < windows_.size() &&
         now >= windows_[next_window_].start + windows_[next_window_].duration) {
    ++next_window_;
    m_->metrics().link_windows_skipped->inc();
  }
  if (next_window_ < windows_.size() && now >= windows_[next_window_].start) {
    active_window_ = static_cast<std::ptrdiff_t>(next_window_++);
    degrade_link();
    m_->metrics().link_degrade_begins->inc();
    m_->events().record(sim::EventType::kLinkDegradeBegin);
  }
}

}  // namespace ghum::fault
