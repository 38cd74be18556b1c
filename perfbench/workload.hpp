#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "spans.hpp"

/// \file workload.hpp
/// The interface every benchmark workload implements, and helpers they
/// share. main.cpp owns the run loop: it times set-ups and batches, and
/// keeps the correctness checks and counter reads outside the timed phase.

namespace perfbench {

/// Metric name -> value, as reported on the last line of the run.
using Metrics = std::map<std::string, double>;

struct Params {
  std::uint64_t seed = 1;
  /// Small problem sizes (the self-test); the benchmark proper runs false.
  bool small = false;
  /// Flips one bit of the reference checksum the workload checks results
  /// against, so the self-test can prove the check catches a wrong result.
  bool corrupt_reference = false;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// One set-up; each is a setup_s sample. The run loop sets up once
  /// before the first batch and again, spread over the timed phase,
  /// between batches (twice in a row before the first batch of a phase of
  /// no length), so a set-up must leave the workload ready for the next
  /// batch. Spans go to \p log when traced.
  virtual void setup(SpanLog* log) = 0;
  /// True when the next batch needs a fresh set-up first.
  [[nodiscard]] virtual bool needs_setup() const { return false; }
  /// Input sets the workload cycles through, one per batch; a timed phase
  /// runs each of them at least once, so that a run's peak memory is the
  /// peak of all of them.
  [[nodiscard]] virtual int input_sets() const { return 1; }
  /// One timed batch of work; returns the units of work finished.
  /// Only the host time spent in here is the timed phase.
  virtual std::uint64_t run_batch(SpanLog* log) = 0;
  /// Host nanoseconds run_batch or setup spent on checks or on tearing
  /// down earlier state rather than on the work timed, since the last
  /// call; main subtracts them from the batch or set-up.
  virtual std::int64_t untimed_ns() { return 0; }
  /// Checks the batch just run (untimed); adds its operations to
  /// attempted/failed. Reads per-layer counters when \p log is set.
  virtual void check_batch(SpanLog* log) = 0;

  /// Digest of the simulated results; equal across batches and runs of
  /// one seed.
  [[nodiscard]] virtual std::uint64_t digest() const = 0;
  /// Per-layer metrics of the traced batches.
  virtual void layer_metrics(const SpanLog& log, Metrics& m) const = 0;

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_grid(const Params& p);
[[nodiscard]] std::unique_ptr<Workload> make_sweep(const Params& p);
[[nodiscard]] std::unique_ptr<Workload> make_chaos(const Params& p);

/// Independent 64-bit stream per (seed, tag): every input seed the
/// program sees is derived from the workload seed this way.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t tag) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

[[nodiscard]] inline std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

/// Nearest-rank percentile (0..100) of \p v; 0 when empty.
[[nodiscard]] inline double percentile(std::vector<double> v, double pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(pct / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}
[[nodiscard]] inline double median(std::vector<double> v) { return percentile(std::move(v), 50); }
[[nodiscard]] inline double mean(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return v.empty() ? 0 : s / static_cast<double>(v.size());
}

/// Sum of every counter of family \p name, across its labels.
[[nodiscard]] inline std::uint64_t counter_family(const ghum::obs::MetricsRegistry& reg,
                                                  std::string_view name) {
  std::uint64_t sum = 0;
  reg.for_each([&](const ghum::obs::MetricsRegistry::InstrumentView& v) {
    if (v.counter != nullptr && v.name == name) sum += v.counter->value();
  });
  return sum;
}

/// Merge of every histogram of family \p name, across its labels.
[[nodiscard]] inline ghum::obs::Histogram histogram_family(
    const ghum::obs::MetricsRegistry& reg, std::string_view name) {
  ghum::obs::Histogram h;
  reg.for_each([&](const ghum::obs::MetricsRegistry::InstrumentView& v) {
    if (v.histogram != nullptr && v.name == name) h.merge(*v.histogram);
  });
  return h;
}

/// Largest integer a double holds exactly: digests are reported as their
/// low 52 bits (the full value is printed in hex).
inline constexpr std::uint64_t kDigestMask = (1ull << 52) - 1;

}  // namespace perfbench
