#include "sim/clock.hpp"

#include <stdexcept>

namespace ghum::sim {

void Clock::advance_observed(Picos delta) {
  if (delta < 0) throw std::invalid_argument{"Clock::advance: negative delta"};
  if (delta == 0) return;
  const Picos before = now_;
  now_ += delta;
  for (const auto& obs : observers_) {
    if (obs) obs(before, now_);
  }
}

std::size_t Clock::add_observer(Observer fn) {
  observers_.push_back(std::move(fn));
  return observers_.size() - 1;
}

void Clock::remove_observer(std::size_t id) {
  if (id < observers_.size()) observers_[id] = nullptr;
}

}  // namespace ghum::sim
