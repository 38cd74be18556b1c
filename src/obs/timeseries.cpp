#include "obs/timeseries.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>

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

TimeSeries::TimeSeries(sim::Picos cadence, std::size_t capacity)
    : cadence_(cadence > 0 ? cadence : 1),
      capacity_(capacity > 0 ? capacity : 1) {}

std::size_t TimeSeries::add(std::string name,
                            std::function<std::int64_t()> sampler) {
  series_.push_back({std::move(name), std::move(sampler)});
  return series_.size() - 1;
}

std::size_t TimeSeries::find(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (series_[i].name == name) return i;
  }
  return kNoSeries;
}

void TimeSeries::advance(sim::Picos now) {
  // Edges first..last (edge k is at k * cadence) all read the simulated
  // state as it is now.
  if (now < 0) return;
  const std::uint64_t first =
      last_edge_ < 0 ? 0
                     : static_cast<std::uint64_t>(last_edge_ / cadence_) + 1;
  const auto last = static_cast<std::uint64_t>(now / cadence_);
  if (last < first) return;
  Segment seg{first, last - first + 1, {}};
  seg.values.reserve(series_.size());
  for (Series& s : series_) seg.values.push_back(s.sampler());
  used_ += seg.count;
  last_edge_ = static_cast<sim::Picos>(last) * cadence_;
  segments_.push_back(std::move(seg));
  while (used_ > capacity_) {
    Segment& oldest = segments_.front();
    const std::uint64_t drop =
        std::min<std::uint64_t>(oldest.count, used_ - capacity_);
    oldest.first += drop;
    oldest.count -= drop;
    used_ -= drop;
    dropped_ += drop;
    if (oldest.count == 0) segments_.pop_front();
  }
}

std::deque<TimeSeries::Segment>::const_iterator TimeSeries::segment_of(
    std::uint64_t edge) const noexcept {
  const auto after = std::upper_bound(
      segments_.begin(), segments_.end(), edge,
      [](std::uint64_t e, const Segment& seg) { return e < seg.first; });
  return std::prev(after);
}

sim::Picos TimeSeries::time_at(std::size_t i) const noexcept {
  return static_cast<sim::Picos>(dropped_ + i) * cadence_;
}

std::int64_t TimeSeries::value_at(std::size_t series,
                                  std::size_t i) const noexcept {
  return segment_of(dropped_ + i)->value(series);
}

SeriesWindow TimeSeries::window(std::size_t series, sim::Picos t0,
                                sim::Picos t1) const noexcept {
  SeriesWindow w;
  if (series >= series_.size() || used_ == 0 || t1 < 0) return w;
  // Retained edge indexes k with t0 <= k * cadence <= t1.
  std::uint64_t lo = dropped_;
  if (t0 > 0) lo = std::max<std::uint64_t>(lo, (t0 - 1) / cadence_ + 1);
  const std::uint64_t hi =
      std::min<std::uint64_t>(t1 / cadence_, dropped_ + used_ - 1);
  if (lo > hi) return w;
  for (auto it = segment_of(lo); it != segments_.end() && it->first <= hi;
       ++it) {
    const std::uint64_t n =
        std::min(hi, it->first + it->count - 1) - std::max(lo, it->first) + 1;
    const std::int64_t v = it->value(series);
    if (w.count == 0 || v < w.min) w.min = v;
    if (w.count == 0 || v > w.max) w.max = v;
    // n edges of v, added with the same wraparound as adding them one by one.
    w.sum = static_cast<std::int64_t>(static_cast<std::uint64_t>(w.sum) +
                                      static_cast<std::uint64_t>(v) * n);
    w.count += n;
  }
  return w;
}

std::string TimeSeries::to_tsv() const {
  std::ostringstream out;
  out << "time_ps";
  for (const Series& s : series_) out << '\t' << s.name;
  out << '\n';
  for_each_edge([&](sim::Picos t, const Segment& seg) {
    out << t;
    for (std::size_t s = 0; s < series_.size(); ++s) {
      out << '\t' << seg.value(s);
    }
    out << '\n';
  });
  return out.str();
}

std::string TimeSeries::to_json() const {
  std::ostringstream out;
  out << "{\"cadence_ps\":" << cadence_ << ",\"dropped\":" << dropped_
      << ",\"series\":[";
  for (std::size_t s = 0; s < series_.size(); ++s) {
    if (s != 0) out << ',';
    // Series names are code-chosen identifiers ([a-z0-9._-]), not
    // user-supplied strings — no escaping needed.
    out << '"' << series_[s].name << '"';
  }
  out << "],\"samples\":[";
  bool first = true;
  for_each_edge([&](sim::Picos t, const Segment& seg) {
    if (!first) out << ',';
    first = false;
    out << "\n[" << t;
    for (std::size_t s = 0; s < series_.size(); ++s) {
      out << ',' << seg.value(s);
    }
    out << ']';
  });
  out << "\n]}\n";
  return out.str();
}

std::uint64_t TimeSeries::digest() const noexcept {
  std::uint64_t h = kFnvOffset;
  mix(h, dropped_);
  for_each_edge([&](sim::Picos t, const Segment& seg) {
    mix(h, static_cast<std::uint64_t>(t));
    for (std::size_t s = 0; s < series_.size(); ++s) {
      mix(h, static_cast<std::uint64_t>(seg.value(s)));
    }
  });
  return h;
}

}  // namespace ghum::obs
