#pragma once

#include <cstdint>
#include <vector>

#include "core/machine.hpp"
#include "sim/time.hpp"

/// \file link_monitor.hpp
/// Windowed NVLink-C2C utilization sampling (DESIGN.md Section 9). The
/// monitor attaches to the machine clock and, each fixed window of
/// *simulated* time, records the byte volume that crossed the link in each
/// direction plus its utilization against the Comm|Scope-measured sustained
/// bandwidth (C2CSpec). Utilization is an integer permille so samples are
/// exactly reproducible — no floating-point accumulation anywhere.
///
/// Attribution rule: when one clock advance crosses several window
/// boundaries, all bytes moved during that advance land in the first window
/// that closes; later windows covered by the same advance read zero. This
/// is a deterministic approximation (the simulator charges transfer time in
/// one lump, so finer attribution would be invented data).

namespace ghum::obs {

/// One closed utilization window [t0, t1).
struct LinkSample {
  sim::Picos t0 = 0;
  sim::Picos t1 = 0;
  std::uint64_t h2d_bytes = 0;
  std::uint64_t d2h_bytes = 0;
  std::uint32_t h2d_util_permille = 0;  ///< vs sustained H2D peak, capped at 1000
  std::uint32_t d2h_util_permille = 0;  ///< vs sustained D2H peak, capped at 1000
};

class LinkMonitor {
 public:
  LinkMonitor(core::Machine& m, sim::Picos window);

  /// Attaches to the machine clock; windows open at the current sim time.
  void start();
  /// Detaches; a final partial window [win_start, now) is emitted when any
  /// time passed since the last boundary.
  void stop();
  /// Re-anchors a running monitor at the machine's *current* clock and
  /// byte totals without emitting a sample. Checkpoint restore jumps both
  /// without an observer-visible advance (chk::Snapshotter sets the clock
  /// directly), so without this the first post-restore window would open
  /// at t=0 and be charged the whole pre-checkpoint transfer history.
  void rebase();
  [[nodiscard]] bool running() const noexcept { return running_; }

  /// Closed windows, oldest first; none is ever replaced, so a peak is the
  /// maximum over them.
  [[nodiscard]] const std::vector<LinkSample>& samples() const noexcept {
    return samples_;
  }

 private:
  void on_advance(sim::Picos before, sim::Picos after);
  /// Closes the window [win_start_, t1), attributing all bytes moved since
  /// the previous close.
  void close_window(sim::Picos t1);
  [[nodiscard]] std::uint32_t permille(std::uint64_t bytes, std::uint64_t cap,
                                       sim::Picos t0, sim::Picos t1) const;

  core::Machine* m_;
  sim::Picos window_;
  bool running_ = false;
  std::size_t observer_id_ = 0;
  sim::Picos win_start_ = 0;
  sim::Picos next_boundary_ = 0;
  std::uint64_t last_h2d_ = 0;
  std::uint64_t last_d2h_ = 0;
  std::uint64_t cap_h2d_ = 1;  ///< byte capacity of one full window, H2D
  std::uint64_t cap_d2h_ = 1;
  std::vector<LinkSample> samples_;
};

}  // namespace ghum::obs
