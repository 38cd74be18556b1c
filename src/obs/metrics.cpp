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

MemSysMetrics bind_memsys_metrics(MetricsRegistry& reg) {
  MemSysMetrics m;
  m.faults_cpu_first_touch =
      &reg.counter("ghum_faults_total", {{"type", "cpu_first_touch"}});
  m.faults_gpu_first_touch =
      &reg.counter("ghum_faults_total", {{"type", "gpu_first_touch"}});
  m.faults_gpu_managed =
      &reg.counter("ghum_faults_total", {{"type", "gpu_managed"}});
  m.gpu_fault_requests = &reg.counter("ghum_managed_fault_requests_total",
                                      {{"origin", "gpu"}});
  m.cpu_fault_requests = &reg.counter("ghum_managed_fault_requests_total",
                                      {{"origin", "cpu"}});
  m.fallback_placements = &reg.counter("ghum_fallback_placements_total");
  m.oom_events = &reg.counter("ghum_oom_events_total");
  m.fault_latency_cpu_first_touch =
      &reg.histogram("ghum_fault_latency_picos", {{"type", "cpu_first_touch"}});
  m.fault_latency_gpu_first_touch =
      &reg.histogram("ghum_fault_latency_picos", {{"type", "gpu_first_touch"}});
  m.fault_latency_gpu_managed =
      &reg.histogram("ghum_fault_latency_picos", {{"type", "gpu_managed"}});

  m.migrations_h2d = &reg.counter("ghum_migrations_total", {{"dir", "h2d"}});
  m.migrations_d2h = &reg.counter("ghum_migrations_total", {{"dir", "d2h"}});
  m.migrated_bytes_h2d =
      &reg.counter("ghum_migrated_bytes_total", {{"dir", "h2d"}});
  m.migrated_bytes_d2h =
      &reg.counter("ghum_migrated_bytes_total", {{"dir", "d2h"}});
  m.migration_batch_bytes_h2d =
      &reg.histogram("ghum_migration_batch_bytes", {{"dir", "h2d"}});
  m.migration_batch_bytes_d2h =
      &reg.histogram("ghum_migration_batch_bytes", {{"dir", "d2h"}});
  m.migration_latency_h2d =
      &reg.histogram("ghum_migration_latency_picos", {{"dir", "h2d"}});
  m.migration_latency_d2h =
      &reg.histogram("ghum_migration_latency_picos", {{"dir", "d2h"}});

  m.evictions = &reg.counter("ghum_evictions_total");
  m.evicted_bytes = &reg.counter("ghum_evicted_bytes_total");
  m.evictions_blocked = &reg.counter("ghum_evictions_blocked_total");
  m.cross_tenant_evictions = &reg.counter("ghum_cross_tenant_evictions_total");
  m.eviction_batch_bytes = &reg.histogram("ghum_eviction_batch_bytes");

  m.prefetches = &reg.counter("ghum_prefetches_total");
  m.prefetched_bytes = &reg.counter("ghum_prefetched_bytes_total");
  m.counter_notifications = &reg.counter("ghum_counter_notifications_total");
  m.host_registers = &reg.counter("ghum_host_registers_total");

  m.migration_retries = &reg.counter("ghum_migration_retries_total");
  m.migration_aborts = &reg.counter("ghum_migration_aborts_total");
  m.migration_retry_depth = &reg.histogram("ghum_migration_retry_attempts");
  m.alloc_denials = &reg.counter("ghum_alloc_denials_total");
  m.ecc_retirements = &reg.counter("ghum_ecc_retirements_total");
  m.ecc_retired_bytes = &reg.counter("ghum_ecc_retired_bytes_total");
  m.link_degrade_begins =
      &reg.counter("ghum_link_degrade_windows_total", {{"edge", "begin"}});
  m.link_degrade_ends =
      &reg.counter("ghum_link_degrade_windows_total", {{"edge", "end"}});
  m.gpu_resets = &reg.counter("ghum_gpu_resets_total");
  return m;
}

}  // namespace ghum::obs
