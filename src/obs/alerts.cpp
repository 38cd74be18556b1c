#include "obs/alerts.hpp"

namespace ghum::obs {

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

void mix(std::uint64_t& h, std::uint64_t x) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

}  // namespace

AlertEngine::AlertEngine(const TimeSeries& ts, std::vector<AlertRule> rules)
    : ts_(&ts), rules_(std::move(rules)) {
  state_.resize(rules_.size());
  for (std::uint32_t i = 0; i < rules_.size(); ++i) {
    state_[i].series = ts_->find(rules_[i].instrument);
    if (state_[i].series == TimeSeries::kNoSeries) unresolved_.push_back(i);
  }
}

std::int64_t AlertEngine::evaluated_value(const AlertRule& r,
                                          const RuleState& s, sim::Picos edge,
                                          std::int64_t sample) const {
  if (r.burn_window <= 0) return sample;
  // Trailing (edge - burn_window, edge] average over whatever the recorder
  // still retains; the edge itself is always included, so a burn window
  // shorter than the cadence degenerates to the instantaneous sample.
  const SeriesWindow w =
      ts_->window(s.series, edge - r.burn_window + 1, edge);
  return w.count == 0 ? sample : w.avg();
}

std::size_t AlertEngine::evaluate() {
  const std::size_t before = events_.size();
  // Walk the retained recorder edges newer than the last one consumed, in
  // order. Edges are consecutive cadence multiples, so the first of them
  // is found by arithmetic rather than a scan over everything retained.
  // Edges the recorder already dropped are gone — callers evaluate at
  // every obs tick, far more often than the recorder wraps.
  std::size_t first = 0;
  if (ts_->size() != 0 && consumed_edge_ >= ts_->time_at(0)) {
    first = static_cast<std::size_t>((consumed_edge_ - ts_->time_at(0)) /
                                     ts_->cadence()) +
            1;
  }
  for (std::size_t i = first; i < ts_->size(); ++i) {
    const sim::Picos edge = ts_->time_at(i);
    for (std::uint32_t ri = 0; ri < rules_.size(); ++ri) {
      RuleState& s = state_[ri];
      if (s.series == TimeSeries::kNoSeries) continue;
      const AlertRule& r = rules_[ri];
      const std::int64_t v =
          evaluated_value(r, s, edge, ts_->value_at(s.series, i));
      const bool breach = r.predicate == AlertPredicate::kAbove
                              ? v > r.threshold
                              : v < r.threshold;
      if (breach) {
        if (s.breach_since < 0) s.breach_since = edge;
        if (!s.open && edge - s.breach_since >= r.for_duration) {
          s.open = true;
          events_.push_back({edge, ri, true, v});
        }
      } else {
        s.breach_since = -1;
        if (s.open) {
          s.open = false;
          events_.push_back({edge, ri, false, v});
        }
      }
    }
    consumed_edge_ = edge;
  }
  return events_.size() - before;
}

std::uint64_t AlertEngine::digest() const noexcept {
  std::uint64_t h = kFnvOffset;
  for (const AlertEvent& e : events_) {
    mix(h, static_cast<std::uint64_t>(e.time));
    mix(h, e.rule);
    mix(h, e.open ? 1 : 0);
    mix(h, static_cast<std::uint64_t>(e.value));
  }
  return h;
}

}  // namespace ghum::obs
