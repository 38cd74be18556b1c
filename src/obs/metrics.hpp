#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

/// \file metrics.hpp
/// Deterministic, zero-wall-clock metrics registry (DESIGN.md Section 9).
/// Three typed instruments — Counter, Gauge, Histogram — with static label
/// sets, owned by core::Machine and threaded through the layers that
/// previously counted ad hoc (TLB hit/miss, fault-service latencies,
/// migration batches, link utilization, eviction pressure, retry depth).
///
/// Everything is exact integer arithmetic: histograms use fixed
/// power-of-two buckets and a u64 running sum, so there is no
/// floating-point accumulation drift and two identical runs produce
/// bit-identical expositions (bench_observability asserts this).
///
/// Instruments are stable-addressed (deque storage): hot paths cache the
/// returned pointers once and do plain increments, never map lookups.

namespace ghum::chk {
class Snapshotter;
}  // namespace ghum::chk

namespace ghum::obs {

struct Label {
  std::string key;
  std::string value;
};

class Counter {
 public:
  void inc(std::uint64_t delta = 1) noexcept { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;

  friend class ghum::chk::Snapshotter;
};

class Gauge {
 public:
  void set(std::int64_t v) noexcept { value_ = v; }
  void add(std::int64_t delta) noexcept { value_ += delta; }
  [[nodiscard]] std::int64_t value() const noexcept { return value_; }

 private:
  std::int64_t value_ = 0;

  friend class ghum::chk::Snapshotter;
};

/// Fixed power-of-two-bucket histogram over u64 observations. Bucket i
/// holds values whose bit width is i, i.e. bucket 0 holds exactly 0 and
/// bucket i>=1 holds [2^(i-1), 2^i); the inclusive upper bound of bucket i
/// is 2^i - 1, which is what the exposition prints as "le".
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit widths 0..64

  void observe(std::uint64_t v) noexcept {
    ++buckets_[std::bit_width(v)];
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (v > max_) max_ = v;
  }

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] std::uint64_t sum() const noexcept { return sum_; }
  [[nodiscard]] std::uint64_t min() const noexcept { return min_; }
  [[nodiscard]] std::uint64_t max() const noexcept { return max_; }
  [[nodiscard]] std::uint64_t bucket(std::size_t i) const noexcept {
    return buckets_[i];
  }
  /// Inclusive upper bound of bucket \p i (0, 1, 3, 7, ..., 2^64-1).
  [[nodiscard]] static std::uint64_t bucket_bound(std::size_t i) noexcept {
    return i >= 64 ? ~0ull : (1ull << i) - 1;
  }

  /// Adds \p o's observations to this histogram. Exact: bucket counts,
  /// count and sum add; min/max widen. The federation primitive — a
  /// merged histogram equals one that saw both observation streams.
  void merge(const Histogram& o) noexcept {
    if (o.count_ == 0) return;
    for (std::size_t i = 0; i < kBuckets; ++i) buckets_[i] += o.buckets_[i];
    if (count_ == 0 || o.min_ < min_) min_ = o.min_;
    if (o.max_ > max_) max_ = o.max_;
    count_ += o.count_;
    sum_ += o.sum_;
  }

  /// Upper bound of the bucket holding the \p percentile-th observation
  /// (0..100) — the SLO-latency readout of the fleet layer. Integer-exact
  /// and deterministic; with power-of-two buckets this is a bound, not an
  /// interpolation: the true percentile lies at or below the returned
  /// value. 0 when nothing has been observed.
  [[nodiscard]] std::uint64_t quantile_upper_bound(
      std::uint32_t percentile) const noexcept {
    if (count_ == 0) return 0;
    if (percentile > 100) percentile = 100;
    std::uint64_t rank = (count_ * percentile + 99) / 100;  // 1-based
    if (rank == 0) rank = 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      seen += buckets_[i];
      if (seen >= rank) return bucket_bound(i);
    }
    return bucket_bound(kBuckets - 1);
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;

  friend class ghum::chk::Snapshotter;
};

/// Name+labels-keyed registry with deterministic (lexicographic) exposition
/// order. Re-registering an existing name+labels returns the same
/// instrument; re-registering it as a different type throws.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name, const std::vector<Label>& labels = {});
  Gauge& gauge(std::string_view name, const std::vector<Label>& labels = {});
  Histogram& histogram(std::string_view name,
                       const std::vector<Label>& labels = {});

  /// Prometheus text exposition (one # TYPE line per family, metrics in
  /// lexicographic key order; histogram buckets are cumulative with
  /// integer le bounds).
  [[nodiscard]] std::string to_prometheus() const;

  /// JSON snapshot of every instrument. Bit-identical across identical
  /// runs; bench_observability compares two runs' snapshots verbatim.
  [[nodiscard]] std::string to_json() const;

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

  /// Sum of the counters of family \p name that carry \p label (every
  /// counter of the family when \p label is null); 0 when none is
  /// registered. Read-only: unlike counter(), it never registers.
  [[nodiscard]] std::uint64_t counter_sum(std::string_view name,
                                          const Label* label = nullptr) const;

  /// Read-only view of one registered instrument: exactly one of the
  /// three instrument pointers is non-null.
  struct InstrumentView {
    std::string_view name;
    const std::vector<Label>* labels = nullptr;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
  };

  /// Visits every instrument in deterministic (lexicographic key) order —
  /// the naming-convention audit and the federation equality gates walk
  /// registries through this instead of parsing expositions.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const auto& [key, s] : slots_) {
      InstrumentView v;
      v.name = s.name;
      v.labels = &s.labels;
      switch (s.kind) {
        case Kind::kCounter: v.counter = &counters_[s.index]; break;
        case Kind::kGauge: v.gauge = &gauges_[s.index]; break;
        case Kind::kHistogram: v.histogram = &histograms_[s.index]; break;
      }
      fn(v);
    }
  }

  /// Folds every instrument of \p src into this registry under src's
  /// labels plus \p extra (the federation `node` label): counters and
  /// gauges add, histograms merge. Same name+labels from two sources
  /// accumulate — which is exactly what a label-less fleet sum wants.
  void merge_from(const MetricsRegistry& src, const std::vector<Label>& extra);

 private:
  enum class Kind : std::uint8_t { kCounter, kGauge, kHistogram };
  struct Slot {
    Kind kind;
    std::size_t index;
    std::string name;
    std::vector<Label> labels;  // sorted by key
  };

  Slot& slot(std::string_view name, const std::vector<Label>& labels, Kind kind);

  std::map<std::string, Slot> slots_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;

  friend class ghum::chk::Snapshotter;
};

/// Cached instrument handles for the memory-system hot paths. Bound once by
/// core::Machine's constructor; the policy layers (os/, driver/, fault/,
/// core/) reach them through Machine::metrics() and do pointer increments
/// only. Each event is counted here exactly once: the engines keep no
/// private tallies of their own.
///
/// Counters whose name mirrors an EventLog event type are incremented at
/// the exact code site that records the event, so bench_observability can
/// cross-validate them against independently derived Tracer summaries.
struct MemSysMetrics {
  // Faults (mirror the fault events).
  Counter* faults_cpu_first_touch = nullptr;
  Counter* faults_gpu_first_touch = nullptr;
  Counter* faults_gpu_managed = nullptr;  ///< kGpuManagedFault block migrations
  Counter* gpu_fault_requests = nullptr;  ///< every ManagedEngine::gpu_fault
  Counter* cpu_fault_requests = nullptr;  ///< every ManagedEngine::cpu_fault
  Counter* fallback_placements = nullptr;
  Counter* oom_events = nullptr;          ///< every kOutOfMemory, both causes
  Counter* oom_page_fault = nullptr;      ///< fault path: both nodes full
  Counter* oom_gpu_malloc = nullptr;      ///< cudaMalloc out of HBM
  Counter* numa_hint_faults = nullptr;    ///< kNumaHintFault
  // Fault-service latency in simulated picoseconds, per fault type.
  Histogram* fault_latency_cpu_first_touch = nullptr;
  Histogram* fault_latency_gpu_first_touch = nullptr;
  Histogram* fault_latency_gpu_managed = nullptr;

  // Migrations (mirror kMigrationH2D/kMigrationD2H).
  Counter* migrations_h2d = nullptr;
  Counter* migrations_d2h = nullptr;
  Counter* migrated_bytes_h2d = nullptr;
  Counter* migrated_bytes_d2h = nullptr;
  Counter* system_migrated_bytes_h2d = nullptr;  ///< system-page range moves
  Counter* system_migrated_bytes_d2h = nullptr;
  Counter* managed_h2d_bytes = nullptr;  ///< managed block moves to the GPU
  Histogram* migration_batch_bytes_h2d = nullptr;
  Histogram* migration_batch_bytes_d2h = nullptr;
  Histogram* migration_latency_h2d = nullptr;
  Histogram* migration_latency_d2h = nullptr;

  // Eviction pressure (mirror kEviction) and the managed driver's policies.
  Counter* evictions = nullptr;
  Counter* evicted_bytes = nullptr;
  Counter* evictions_blocked = nullptr;
  Counter* cross_tenant_evictions = nullptr;
  Counter* remote_mode_entries = nullptr;  ///< thrash guard engaged
  Counter* replicas_created = nullptr;     ///< read-duplication copies
  Counter* replicas_collapsed = nullptr;
  Histogram* eviction_batch_bytes = nullptr;

  // Prefetch & access-counter engine.
  Counter* prefetches = nullptr;        ///< kExplicitPrefetch
  Counter* prefetched_bytes = nullptr;
  Counter* counter_notifications = nullptr;  ///< kCounterNotification
  Counter* host_registers = nullptr;         ///< kHostRegister
  Counter* host_registered_pages = nullptr;
  Counter* host_register_partials = nullptr;  ///< CPU ran out part-way
  Counter* deallocated_pages = nullptr;       ///< pages torn down by free

  // Runtime API.
  Counter* context_inits = nullptr;  ///< kContextInit
  Counter* mem_advise_calls = nullptr;
  Counter* memcpy_async_calls = nullptr;
  Counter* memcpy_bytes = nullptr;        ///< sync and async copies
  Counter* dependent_accesses = nullptr;  ///< Span::load_chased
  Counter* scrubbed_bytes = nullptr;      ///< System::scrub_tenant

  // Fault injection & resilience (mirror the kFault*/kEcc* events).
  Counter* migration_retries = nullptr;
  Counter* migration_aborts = nullptr;
  Histogram* migration_retry_depth = nullptr;  ///< attempts until success/abort
  Counter* alloc_denials = nullptr;
  Counter* ecc_retirements = nullptr;
  Counter* ecc_retired_bytes = nullptr;
  Counter* ecc_unretired_bytes = nullptr;  ///< retirement deferred (pinned)
  Counter* ecc_storms = nullptr;           ///< retirement budget exceeded
  Counter* link_degrade_begins = nullptr;
  Counter* link_degrade_ends = nullptr;
  Counter* link_windows_skipped = nullptr;  ///< jumped over, never applied
  Counter* gpu_resets = nullptr;  ///< kGpuReset channel resets
};

/// Creates every MemSysMetrics family in \p reg and returns the handles.
[[nodiscard]] MemSysMetrics bind_memsys_metrics(MetricsRegistry& reg);

/// Read-only view of a machine's counters under their dotted names
/// ("os.fault.cpu_first_touch", "runtime.memcpy_bytes", "recovery.restarts",
/// ...). Each name is an alias of one counter in the registry — or, for a
/// name without labels over a labelled family, of the family's sum — and
/// the alias sits in the same table row (metrics.cpp) that binds the
/// counter, so there is one place that decides what a name reads.
class StatsView {
 public:
  explicit StatsView(const MetricsRegistry& reg) noexcept : reg_(&reg) {}

  /// Value behind \p name: 0 while its family is unregistered (the
  /// recovery.* counters exist only once a RecoveryManager is bound).
  /// Throws std::out_of_range for a name no table row declares.
  [[nodiscard]] std::uint64_t get(std::string_view name) const;

  /// Every dotted name with its value, in name order.
  [[nodiscard]] std::vector<std::pair<std::string_view, std::uint64_t>> snapshot() const;

 private:
  const MetricsRegistry* reg_;
};

}  // namespace ghum::obs
