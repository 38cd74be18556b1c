#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

/// \file timeseries.hpp
/// obs::TimeSeries — a deterministic time-series flight recorder
/// (DESIGN.md Section 13). Samples a set of named integer-valued series
/// (each backed by a caller-supplied sampler callback) at a fixed cadence
/// of *simulated* time: the cadence edges are the exact multiples of the
/// cadence, and advance(t) records every edge in (last_edge, t]. There is
/// no wall clock anywhere — two runs that reach the same fleet time have
/// sampled at exactly the same instants with exactly the same values, so
/// the recorder's digest is part of the fleet's bit-for-bit story.
///
/// Samplers are pure reads of simulated state, which cannot change inside
/// one advance() call, so every edge a call covers reads the same values:
/// advance() calls each sampler once, in registration order, and stores
/// one run-length segment {first edge, edge count, values}. The oldest
/// segments are dropped or trimmed so exactly the newest `capacity` edges
/// stay retained (dropped() counts the rest). Memory is O(retained
/// segments x series) — the same as a per-edge ring of `capacity` rows
/// only when every call advances a single edge. Windowed min/max/avg
/// queries read the segments directly; TSV/JSON export and the digest
/// expand them to one row per retained edge.

namespace ghum::obs {

/// Aggregate over the retained samples of one series in [t0, t1].
struct SeriesWindow {
  std::uint64_t count = 0;
  std::int64_t min = 0;
  std::int64_t max = 0;
  std::int64_t sum = 0;

  [[nodiscard]] std::int64_t avg() const noexcept {
    return count == 0 ? 0 : sum / static_cast<std::int64_t>(count);
  }
};

class TimeSeries {
 public:
  static constexpr std::size_t kNoSeries = ~std::size_t{0};

  /// \p cadence must be > 0 and \p capacity (samples retained per series)
  /// must be > 0; both are clamped to 1 otherwise.
  explicit TimeSeries(sim::Picos cadence, std::size_t capacity = 4096);

  /// Registers a series. Samplers are invoked once per advance() call that
  /// covers at least one edge, in registration order; they must be pure
  /// reads of simulated state (no wall clock, no RNG, no side effects) or
  /// determinism is lost. Returns the series index.
  /// Registering after the first advance() keeps history aligned: the new
  /// series reads 0 for edges it missed.
  std::size_t add(std::string name, std::function<std::int64_t()> sampler);

  /// Index of a named series, or kNoSeries.
  [[nodiscard]] std::size_t find(std::string_view name) const noexcept;

  /// Records every cadence edge in (last_edge, now] with one sampler read
  /// per series: edge times are exact multiples of the cadence, so they
  /// are independent of how callers chop the timeline into advance()
  /// calls as long as every edge is reached with the same simulated state.
  void advance(sim::Picos now);

  [[nodiscard]] sim::Picos cadence() const noexcept { return cadence_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t series_count() const noexcept {
    return series_.size();
  }
  [[nodiscard]] const std::string& name(std::size_t series) const {
    return series_[series].name;
  }
  /// Samples currently retained (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept { return used_; }
  /// Edges no longer retained because newer ones filled the capacity.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return dropped_; }
  /// Time of the most recent edge sampled (-1 before the first).
  [[nodiscard]] sim::Picos last_edge() const noexcept { return last_edge_; }

  /// The i-th retained sample, oldest first (i < size()). A series reads 0
  /// at edges recorded before it was registered.
  [[nodiscard]] sim::Picos time_at(std::size_t i) const noexcept;
  [[nodiscard]] std::int64_t value_at(std::size_t series,
                                      std::size_t i) const noexcept;

  /// Aggregate of one series over retained samples with t0 <= t <= t1.
  [[nodiscard]] SeriesWindow window(std::size_t series, sim::Picos t0,
                                    sim::Picos t1) const noexcept;

  /// One header row (time_ps then series names) and one row per retained
  /// sample, oldest first, tab-separated.
  [[nodiscard]] std::string to_tsv() const;
  /// {"cadence_ps":..,"dropped":..,"series":[names],"samples":[[t,v0,v1,..]]}
  /// — valid JSON (obs::json_valid) and bit-identical across equal runs.
  [[nodiscard]] std::string to_json() const;

  /// FNV-1a over every retained (time, values...) tuple plus the drop
  /// count — the recorder's contribution to the fleet digest.
  [[nodiscard]] std::uint64_t digest() const noexcept;

 private:
  struct Series {
    std::string name;
    std::function<std::int64_t()> sampler;
  };

  /// `count` consecutive edges, from edge index `first` (edge k is at
  /// k * cadence), that all read `values` — one per series registered
  /// when the segment was recorded.
  struct Segment {
    std::uint64_t first = 0;
    std::uint64_t count = 0;
    std::vector<std::int64_t> values;

    [[nodiscard]] std::int64_t value(std::size_t series) const noexcept {
      return series < values.size() ? values[series] : 0;
    }
  };

  /// The retained segment holding edge index \p edge.
  [[nodiscard]] std::deque<Segment>::const_iterator segment_of(
      std::uint64_t edge) const noexcept;

  /// Calls f(time, segment) once per retained edge, oldest first.
  template <class F>
  void for_each_edge(F&& f) const {
    for (const Segment& seg : segments_) {
      for (std::uint64_t k = seg.first; k < seg.first + seg.count; ++k) {
        f(static_cast<sim::Picos>(k) * cadence_, seg);
      }
    }
  }

  sim::Picos cadence_;
  std::size_t capacity_;
  std::vector<Series> series_;
  std::deque<Segment> segments_;  ///< oldest first, covering used_ edges
  std::size_t used_ = 0;
  std::uint64_t dropped_ = 0;
  sim::Picos last_edge_ = -1;
};

}  // namespace ghum::obs
