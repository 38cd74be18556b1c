#pragma once

#include <functional>
#include <vector>

#include "sim/time.hpp"

/// \file clock.hpp
/// The simulated clock. Every modeled cost in ghum (bandwidth, latency,
/// fault handling, migration, kernel compute) advances this clock; wall
/// clock time is never measured. Observers (e.g. the memory profiler) are
/// notified on every advance so they can take periodic samples against
/// simulated time, mirroring the paper's 100 ms sampling profiler.

namespace ghum::chk {
class Snapshotter;
}  // namespace ghum::chk

namespace ghum::sim {

class Clock {
 public:
  /// Called as (time_before, time_after) on every advance.
  using Observer = std::function<void(Picos, Picos)>;

  [[nodiscard]] Picos now() const noexcept { return now_; }

  /// Advances simulated time by \p delta (must be >= 0).
  void advance(Picos delta) {
    if (delta > 0 && observers_.empty()) {
      now_ += delta;
      return;
    }
    advance_observed(delta);
  }

  /// Registers an observer; returns an id usable with remove_observer().
  std::size_t add_observer(Observer fn);
  void remove_observer(std::size_t id);

  /// Resets time to zero. Observers are kept.
  void reset() noexcept { now_ = 0; }

 private:
  /// advance() for a zero or negative delta, or with observers to notify.
  void advance_observed(Picos delta);

  Picos now_ = 0;
  std::vector<Observer> observers_;  // empty slots are disabled observers

  // Checkpoint restore sets now_ directly (no observer firing: the restored
  // subsystem state already reflects everything observers would have done).
  friend class ghum::chk::Snapshotter;
};

}  // namespace ghum::sim
