#include "obs/link_monitor.hpp"

#include <algorithm>

namespace ghum::obs {

namespace {

/// Byte capacity of one full window at \p bw_Bps. The double->integer
/// conversion happens once at construction, so every window shares one
/// exact cap and the per-window math stays pure integer.
std::uint64_t window_cap(double bw_Bps, sim::Picos window) {
  const double bytes = bw_Bps * sim::to_seconds(window);
  return std::max<std::uint64_t>(1, static_cast<std::uint64_t>(bytes));
}

}  // namespace

LinkMonitor::LinkMonitor(core::Machine& m, sim::Picos window)
    : m_(&m), window_(std::max<sim::Picos>(window, 1)) {
  const auto& spec = m.c2c().spec();
  cap_h2d_ = window_cap(spec.bandwidth_h2d_Bps, window_);
  cap_d2h_ = window_cap(spec.bandwidth_d2h_Bps, window_);
}

void LinkMonitor::start() {
  if (running_) return;
  running_ = true;
  win_start_ = m_->clock().now();
  next_boundary_ = win_start_ + window_;
  last_h2d_ = m_->c2c().bytes_moved(interconnect::Direction::kCpuToGpu);
  last_d2h_ = m_->c2c().bytes_moved(interconnect::Direction::kGpuToCpu);
  observer_id_ = m_->clock().add_observer(
      [this](sim::Picos before, sim::Picos after) { on_advance(before, after); });
}

void LinkMonitor::stop() {
  if (!running_) return;
  if (m_->clock().now() > win_start_) close_window(m_->clock().now());
  m_->clock().remove_observer(observer_id_);
  running_ = false;
}

void LinkMonitor::rebase() {
  if (!running_) return;
  win_start_ = m_->clock().now();
  next_boundary_ = win_start_ + window_;
  last_h2d_ = m_->c2c().bytes_moved(interconnect::Direction::kCpuToGpu);
  last_d2h_ = m_->c2c().bytes_moved(interconnect::Direction::kGpuToCpu);
}

void LinkMonitor::on_advance(sim::Picos /*before*/, sim::Picos after) {
  while (next_boundary_ <= after) {
    close_window(next_boundary_);
  }
}

std::uint32_t LinkMonitor::permille(std::uint64_t bytes, std::uint64_t cap,
                                    sim::Picos t0, sim::Picos t1) const {
  // Partial (final) windows get a proportionally smaller cap. 128-bit
  // intermediates: cap * dt would overflow u64 for second-scale windows.
  const auto dt = static_cast<unsigned __int128>(t1 - t0);
  unsigned __int128 eff =
      static_cast<unsigned __int128>(cap) * dt / static_cast<unsigned __int128>(window_);
  if (eff == 0) eff = 1;
  const unsigned __int128 pm = static_cast<unsigned __int128>(bytes) * 1000u / eff;
  return pm > 1000 ? 1000u : static_cast<std::uint32_t>(pm);
}

void LinkMonitor::close_window(sim::Picos t1) {
  const std::uint64_t h2d = m_->c2c().bytes_moved(interconnect::Direction::kCpuToGpu);
  const std::uint64_t d2h = m_->c2c().bytes_moved(interconnect::Direction::kGpuToCpu);
  LinkSample s{.t0 = win_start_,
               .t1 = t1,
               .h2d_bytes = h2d - last_h2d_,
               .d2h_bytes = d2h - last_d2h_,
               .h2d_util_permille = permille(h2d - last_h2d_, cap_h2d_, win_start_, t1),
               .d2h_util_permille = permille(d2h - last_d2h_, cap_d2h_, win_start_, t1)};
  samples_.push_back(s);
  m_->obs().gauge("ghum_c2c_util_permille", {{"dir", "h2d"}})
      .set(s.h2d_util_permille);
  m_->obs().gauge("ghum_c2c_util_permille", {{"dir", "d2h"}})
      .set(s.d2h_util_permille);
  last_h2d_ = h2d;
  last_d2h_ = d2h;
  win_start_ = t1;
  next_boundary_ = t1 >= next_boundary_ ? next_boundary_ + window_ : next_boundary_;
}

}  // namespace ghum::obs
