#include "obs/metrics.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "obs/trace_json.hpp"

namespace ghum::obs {

namespace {

/// Prometheus label-value escaping. The exposition format defines exactly
/// three escapes — backslash, double quote, newline — and anything else
/// escaped (e.g. "\t") is a literal backslash-t to a spec-compliant
/// parser, breaking round-trips for user-supplied tenant/job names.
std::string prom_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out += c; break;
    }
  }
  return out;
}

std::string canonical_key(std::string_view name, const std::vector<Label>& labels) {
  std::string key{name};
  key += '{';
  bool first = true;
  for (const Label& l : labels) {
    if (!first) key += ',';
    first = false;
    key += l.key;
    key += "=\"";
    key += prom_escape(l.value);  // injective (backslash is escaped)
    key += '"';
  }
  key += '}';
  return key;
}

}  // namespace

MetricsRegistry::Slot& MetricsRegistry::slot(std::string_view name,
                                             const std::vector<Label>& labels,
                                             Kind kind) {
  std::vector<Label> sorted = labels;
  std::sort(sorted.begin(), sorted.end(),
            [](const Label& a, const Label& b) { return a.key < b.key; });
  const std::string key = canonical_key(name, sorted);
  auto it = slots_.find(key);
  if (it != slots_.end()) {
    if (it->second.kind != kind) {
      throw std::logic_error{"MetricsRegistry: " + key +
                             " re-registered as a different type"};
    }
    return it->second;
  }
  Slot s;
  s.kind = kind;
  s.name = std::string{name};
  s.labels = std::move(sorted);
  switch (kind) {
    case Kind::kCounter:
      s.index = counters_.size();
      counters_.emplace_back();
      break;
    case Kind::kGauge:
      s.index = gauges_.size();
      gauges_.emplace_back();
      break;
    case Kind::kHistogram:
      s.index = histograms_.size();
      histograms_.emplace_back();
      break;
  }
  return slots_.emplace(key, std::move(s)).first->second;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  const std::vector<Label>& labels) {
  return counters_[slot(name, labels, Kind::kCounter).index];
}

Gauge& MetricsRegistry::gauge(std::string_view name,
                              const std::vector<Label>& labels) {
  return gauges_[slot(name, labels, Kind::kGauge).index];
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      const std::vector<Label>& labels) {
  return histograms_[slot(name, labels, Kind::kHistogram).index];
}

std::uint64_t MetricsRegistry::counter_sum(std::string_view name,
                                           const Label* label) const {
  const std::string prefix = std::string{name} + '{';
  std::uint64_t sum = 0;
  for (auto it = slots_.lower_bound(prefix);
       it != slots_.end() && it->first.starts_with(prefix); ++it) {
    const Slot& s = it->second;
    if (s.kind != Kind::kCounter) continue;
    if (label != nullptr &&
        std::none_of(s.labels.begin(), s.labels.end(), [&](const Label& l) {
          return l.key == label->key && l.value == label->value;
        })) {
      continue;
    }
    sum += counters_[s.index].value();
  }
  return sum;
}

void MetricsRegistry::merge_from(const MetricsRegistry& src,
                                 const std::vector<Label>& extra) {
  for (const auto& [key, s] : src.slots_) {
    std::vector<Label> labels = s.labels;
    labels.insert(labels.end(), extra.begin(), extra.end());
    switch (s.kind) {
      case Kind::kCounter:
        counter(s.name, labels).inc(src.counters_[s.index].value());
        break;
      case Kind::kGauge:
        gauge(s.name, labels).add(src.gauges_[s.index].value());
        break;
      case Kind::kHistogram:
        histogram(s.name, labels).merge(src.histograms_[s.index]);
        break;
    }
  }
}

std::string MetricsRegistry::to_prometheus() const {
  std::ostringstream out;
  std::string last_family;
  for (const auto& [key, s] : slots_) {
    if (s.name != last_family) {
      last_family = s.name;
      const char* type = s.kind == Kind::kCounter ? "counter"
                         : s.kind == Kind::kGauge ? "gauge"
                                                  : "histogram";
      out << "# TYPE " << s.name << ' ' << type << '\n';
    }
    auto labels_with = [&](std::string_view extra_key,
                           std::string_view extra_value) {
      std::string l = "{";
      bool first = true;
      for (const Label& lab : s.labels) {
        if (!first) l += ',';
        first = false;
        l += lab.key;
        l += "=\"";
        l += prom_escape(lab.value);
        l += '"';
      }
      if (!extra_key.empty()) {
        if (!first) l += ',';
        l += std::string{extra_key} + "=\"" + std::string{extra_value} + '"';
      }
      l += '}';
      return l == "{}" ? std::string{} : l;
    };
    switch (s.kind) {
      case Kind::kCounter:
        out << s.name << labels_with("", "") << ' '
            << counters_[s.index].value() << '\n';
        break;
      case Kind::kGauge:
        out << s.name << labels_with("", "") << ' ' << gauges_[s.index].value()
            << '\n';
        break;
      case Kind::kHistogram: {
        const Histogram& h = histograms_[s.index];
        // Cumulative buckets up to the highest non-empty one, then +Inf.
        std::size_t top = 0;
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
          if (h.bucket(i) != 0) top = i;
        }
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i <= top; ++i) {
          cum += h.bucket(i);
          out << s.name << "_bucket"
              << labels_with("le", std::to_string(Histogram::bucket_bound(i)))
              << ' ' << cum << '\n';
        }
        out << s.name << "_bucket" << labels_with("le", "+Inf") << ' '
            << h.count() << '\n';
        out << s.name << "_sum" << labels_with("", "") << ' ' << h.sum() << '\n';
        out << s.name << "_count" << labels_with("", "") << ' ' << h.count()
            << '\n';
        break;
      }
    }
  }
  return out.str();
}

std::string MetricsRegistry::to_json() const {
  std::ostringstream out;
  out << "{\"metrics\":[";
  bool first = true;
  for (const auto& [key, s] : slots_) {
    if (!first) out << ",";
    first = false;
    out << "\n{\"name\":\"" << json_escape(s.name) << "\",\"labels\":{";
    bool fl = true;
    for (const Label& l : s.labels) {
      if (!fl) out << ',';
      fl = false;
      out << '"' << json_escape(l.key) << "\":\"" << json_escape(l.value)
          << '"';
    }
    out << "},";
    switch (s.kind) {
      case Kind::kCounter:
        out << "\"type\":\"counter\",\"value\":" << counters_[s.index].value();
        break;
      case Kind::kGauge:
        out << "\"type\":\"gauge\",\"value\":" << gauges_[s.index].value();
        break;
      case Kind::kHistogram: {
        const Histogram& h = histograms_[s.index];
        out << "\"type\":\"histogram\",\"count\":" << h.count()
            << ",\"sum\":" << h.sum() << ",\"min\":" << h.min()
            << ",\"max\":" << h.max() << ",\"buckets\":[";
        bool fb = true;
        for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
          if (h.bucket(i) == 0) continue;
          if (!fb) out << ',';
          fb = false;
          out << "[" << Histogram::bucket_bound(i) << ',' << h.bucket(i) << ']';
        }
        out << ']';
        break;
      }
    }
    out << '}';
  }
  out << "\n]}\n";
  return out.str();
}

namespace {

/// One counter of a machine registry. A row with a handle is bound by
/// bind_memsys_metrics; a row without one names a counter its owning
/// module registers (tenant::RecoveryManager) and is listed for its alias
/// only. An empty label key over a labelled family aliases the family sum.
struct CounterRow {
  Counter* MemSysMetrics::*handle;
  std::string_view name;
  std::string_view label_key;
  std::string_view label_value;
  std::string_view alias;  ///< StatsView name; empty: none
};

// clang-format off
constexpr CounterRow kCounterRows[] = {
    // Faults.
    {&MemSysMetrics::faults_cpu_first_touch, "ghum_faults_total", "type", "cpu_first_touch", "os.fault.cpu_first_touch"},
    {&MemSysMetrics::faults_gpu_first_touch, "ghum_faults_total", "type", "gpu_first_touch", "os.fault.gpu_first_touch"},
    {&MemSysMetrics::faults_gpu_managed, "ghum_faults_total", "type", "gpu_managed", ""},
    {&MemSysMetrics::gpu_fault_requests, "ghum_managed_fault_requests_total", "origin", "gpu", "driver.managed.gpu_faults"},
    {&MemSysMetrics::cpu_fault_requests, "ghum_managed_fault_requests_total", "origin", "cpu", ""},
    {&MemSysMetrics::fallback_placements, "ghum_fallback_placements_total", "", "", "os.fault.fallback"},
    {&MemSysMetrics::oom_events, "ghum_oom_events_total", "", "", ""},
    {&MemSysMetrics::oom_page_fault, "ghum_oom_causes_total", "cause", "page_fault", "os.fault.oom"},
    {&MemSysMetrics::oom_gpu_malloc, "ghum_oom_causes_total", "cause", "gpu_malloc", "runtime.oom.gpu_malloc"},
    {&MemSysMetrics::numa_hint_faults, "ghum_numa_hint_faults_total", "", "", "os.numa_hint_faults"},
    // Migrations.
    {&MemSysMetrics::migrations_h2d, "ghum_migrations_total", "dir", "h2d", ""},
    {&MemSysMetrics::migrations_d2h, "ghum_migrations_total", "dir", "d2h", ""},
    {&MemSysMetrics::migrated_bytes_h2d, "ghum_migrated_bytes_total", "dir", "h2d", ""},
    {&MemSysMetrics::migrated_bytes_d2h, "ghum_migrated_bytes_total", "dir", "d2h", ""},
    {&MemSysMetrics::system_migrated_bytes_h2d, "ghum_system_migrated_bytes_total", "dir", "h2d", "driver.migrate.h2d_bytes"},
    {&MemSysMetrics::system_migrated_bytes_d2h, "ghum_system_migrated_bytes_total", "dir", "d2h", "driver.migrate.d2h_bytes"},
    {&MemSysMetrics::managed_h2d_bytes, "ghum_managed_h2d_bytes_total", "", "", "driver.managed.h2d_bytes"},
    // Eviction pressure and managed-driver policies.
    {&MemSysMetrics::evictions, "ghum_evictions_total", "", "", "driver.managed.evictions"},
    {&MemSysMetrics::evicted_bytes, "ghum_evicted_bytes_total", "", "", ""},
    {&MemSysMetrics::evictions_blocked, "ghum_evictions_blocked_total", "", "", "driver.managed.eviction_blocked"},
    {&MemSysMetrics::cross_tenant_evictions, "ghum_cross_tenant_evictions_total", "", "", ""},
    {&MemSysMetrics::remote_mode_entries, "ghum_remote_mode_entries_total", "", "", "driver.managed.remote_mode_entered"},
    {&MemSysMetrics::replicas_created, "ghum_read_replicas_total", "event", "created", "driver.managed.replicas_created"},
    {&MemSysMetrics::replicas_collapsed, "ghum_read_replicas_total", "event", "collapsed", "driver.managed.replicas_collapsed"},
    // Prefetch, access counters, registration and teardown.
    {&MemSysMetrics::prefetches, "ghum_prefetches_total", "", "", ""},
    {&MemSysMetrics::prefetched_bytes, "ghum_prefetched_bytes_total", "", "", "driver.managed.prefetch_bytes"},
    {&MemSysMetrics::counter_notifications, "ghum_counter_notifications_total", "", "", "driver.counter.notifications"},
    {&MemSysMetrics::host_registers, "ghum_host_registers_total", "", "", ""},
    {&MemSysMetrics::host_registered_pages, "ghum_host_registered_pages_total", "", "", "os.host_register.pages"},
    {&MemSysMetrics::host_register_partials, "ghum_host_register_partials_total", "", "", "os.host_register.partial"},
    {&MemSysMetrics::deallocated_pages, "ghum_deallocated_pages_total", "", "", "os.dealloc.pages"},
    // Runtime API.
    {&MemSysMetrics::context_inits, "ghum_context_inits_total", "", "", "runtime.context_init"},
    {&MemSysMetrics::mem_advise_calls, "ghum_mem_advise_calls_total", "", "", "runtime.mem_advise"},
    {&MemSysMetrics::memcpy_async_calls, "ghum_memcpy_async_calls_total", "", "", "runtime.memcpy_async"},
    {&MemSysMetrics::memcpy_bytes, "ghum_memcpy_bytes_total", "", "", "runtime.memcpy_bytes"},
    {&MemSysMetrics::dependent_accesses, "ghum_dependent_accesses_total", "", "", "mem.dependent_accesses"},
    {&MemSysMetrics::scrubbed_bytes, "ghum_tenant_scrubbed_bytes_total", "", "", "recovery.scrubbed_bytes"},
    // Fault injection & resilience.
    {&MemSysMetrics::migration_retries, "ghum_migration_retries_total", "", "", "fault.migration_retries"},
    {&MemSysMetrics::migration_aborts, "ghum_migration_aborts_total", "", "", "fault.migration_aborts"},
    {&MemSysMetrics::alloc_denials, "ghum_alloc_denials_total", "", "", "fault.alloc_denials"},
    {&MemSysMetrics::ecc_retirements, "ghum_ecc_retirements_total", "", "", "fault.ecc_events"},
    {&MemSysMetrics::ecc_retired_bytes, "ghum_ecc_retired_bytes_total", "", "", "fault.ecc_retired_bytes"},
    {&MemSysMetrics::ecc_unretired_bytes, "ghum_ecc_unretired_bytes_total", "", "", "fault.ecc_unretired_bytes"},
    {&MemSysMetrics::ecc_storms, "ghum_ecc_storms_total", "", "", "fault.ecc_storms"},
    {&MemSysMetrics::link_degrade_begins, "ghum_link_degrade_windows_total", "edge", "begin", "fault.link_degrade_windows"},
    {&MemSysMetrics::link_degrade_ends, "ghum_link_degrade_windows_total", "edge", "end", ""},
    {&MemSysMetrics::link_windows_skipped, "ghum_link_windows_skipped_total", "", "", "fault.link_windows_skipped"},
    {&MemSysMetrics::gpu_resets, "ghum_gpu_resets_total", "", "", "fault.gpu_resets"},
    // Registered by tenant::RecoveryManager.
    {nullptr, "ghum_recovery_restarts_total", "", "", "recovery.restarts"},
    {nullptr, "ghum_recovery_failed_jobs_total", "", "", "recovery.failed_jobs"},
    {nullptr, "ghum_recovery_watchdog_trips_total", "", "", "recovery.watchdog_trips"},
    {nullptr, "ghum_chk_checkpoints_total", "", "", "recovery.checkpoints"},
};
// clang-format on

std::vector<Label> row_labels(const CounterRow& r) {
  if (r.label_key.empty()) return {};
  return {{std::string{r.label_key}, std::string{r.label_value}}};
}

}  // namespace

MemSysMetrics bind_memsys_metrics(MetricsRegistry& reg) {
  MemSysMetrics m;
  for (const CounterRow& r : kCounterRows) {
    if (r.handle != nullptr) m.*r.handle = &reg.counter(r.name, row_labels(r));
  }
  m.fault_latency_cpu_first_touch =
      &reg.histogram("ghum_fault_latency_picos", {{"type", "cpu_first_touch"}});
  m.fault_latency_gpu_first_touch =
      &reg.histogram("ghum_fault_latency_picos", {{"type", "gpu_first_touch"}});
  m.fault_latency_gpu_managed =
      &reg.histogram("ghum_fault_latency_picos", {{"type", "gpu_managed"}});
  m.migration_batch_bytes_h2d =
      &reg.histogram("ghum_migration_batch_bytes", {{"dir", "h2d"}});
  m.migration_batch_bytes_d2h =
      &reg.histogram("ghum_migration_batch_bytes", {{"dir", "d2h"}});
  m.migration_latency_h2d =
      &reg.histogram("ghum_migration_latency_picos", {{"dir", "h2d"}});
  m.migration_latency_d2h =
      &reg.histogram("ghum_migration_latency_picos", {{"dir", "d2h"}});
  m.eviction_batch_bytes = &reg.histogram("ghum_eviction_batch_bytes");
  m.migration_retry_depth = &reg.histogram("ghum_migration_retry_attempts");
  return m;
}

std::uint64_t StatsView::get(std::string_view name) const {
  for (const CounterRow& r : kCounterRows) {
    if (r.alias.empty() || r.alias != name) continue;
    const std::vector<Label> labels = row_labels(r);
    return reg_->counter_sum(r.name, labels.empty() ? nullptr : &labels[0]);
  }
  throw std::out_of_range{"StatsView: no counter is named " + std::string{name}};
}

std::vector<std::pair<std::string_view, std::uint64_t>> StatsView::snapshot() const {
  std::vector<std::pair<std::string_view, std::uint64_t>> out;
  for (const CounterRow& r : kCounterRows) {
    if (!r.alias.empty()) out.emplace_back(r.alias, get(r.alias));
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace ghum::obs
