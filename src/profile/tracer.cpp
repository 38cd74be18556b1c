#include "profile/tracer.hpp"

#include <limits>
#include <sstream>

namespace ghum::profile {

namespace {

void accumulate(TraceSummary& s, const sim::Event& e) {
  switch (e.type) {
    case sim::EventType::kCpuFirstTouchFault: ++s.cpu_first_touch_faults; break;
    case sim::EventType::kGpuFirstTouchFault: ++s.gpu_first_touch_faults; break;
    case sim::EventType::kGpuManagedFault: ++s.managed_gpu_faults; break;
    case sim::EventType::kMigrationH2D:
      ++s.migrations_h2d;
      s.migrated_h2d_bytes += e.bytes;
      break;
    case sim::EventType::kMigrationD2H:
      ++s.migrations_d2h;
      s.migrated_d2h_bytes += e.bytes;
      break;
    case sim::EventType::kEviction:
      ++s.evictions;
      s.evicted_bytes += e.bytes;
      // On kEviction, aux carries the victim block's tenant and the stamp
      // carries the perpetrator; a mismatch is cross-tenant pressure.
      if (e.aux != e.tenant) {
        ++s.cross_tenant_evictions;
        s.cross_tenant_evicted_bytes += e.bytes;
      }
      break;
    case sim::EventType::kCounterNotification: ++s.counter_notifications; break;
    case sim::EventType::kExplicitPrefetch: ++s.explicit_prefetches; break;
    case sim::EventType::kFaultAllocDenial: ++s.alloc_denials; break;
    case sim::EventType::kFaultMigrationRetry: ++s.migration_retries; break;
    case sim::EventType::kFaultMigrationAbort: ++s.migration_aborts; break;
    case sim::EventType::kEccRetirement:
      ++s.ecc_retirements;
      s.ecc_retired_bytes += e.bytes;
      break;
    case sim::EventType::kFallbackPlacement: ++s.fallback_placements; break;
    case sim::EventType::kOutOfMemory: ++s.oom_events; break;
    case sim::EventType::kGpuReset:
      ++s.gpu_resets;
      s.poisoned_bytes += e.bytes;
      break;
    case sim::EventType::kJobRestart:
      ++s.job_restarts;
      s.scrubbed_bytes += e.bytes;
      break;
    default: break;
  }
}

}  // namespace

std::vector<LinkWindow> link_degrade_windows(const sim::EventLog& log) {
  std::vector<LinkWindow> windows;
  LinkWindow current;
  for (const auto& e : log.events()) {
    if (e.type == sim::EventType::kLinkDegradeBegin) {
      current = {.begin = e.time, .open = true};
    } else if (e.type == sim::EventType::kLinkDegradeEnd && current.open) {
      windows.push_back({.begin = current.begin, .end = e.time});
      current.open = false;
    }
  }
  if (current.open) {
    current.end = log.events().back().time;
    windows.push_back(current);
  }
  return windows;
}

TraceSummary Tracer::summarize() const {
  return summarize(0, std::numeric_limits<sim::Picos>::max());
}

TraceSummary Tracer::summarize(sim::Picos t0, sim::Picos t1) const {
  TraceSummary s;
  for (const auto& e : log_->events()) {
    if (e.time < t0 || e.time >= t1) continue;
    accumulate(s, e);
  }
  // Link-degradation windows are intervals, not instants: a window counts
  // when [begin, end) overlaps [t0, t1), so one whose Begin fell before t0
  // but that was still degrading inside the summary window is visible. A
  // window still open at the end of the log counts when it started before
  // t1.
  for (const LinkWindow& w : link_degrade_windows(*log_)) {
    if (w.begin < t1 && (w.open || w.end > t0)) ++s.link_degrade_windows;
  }
  return s;
}

std::string Tracer::to_text(std::size_t max_events) const {
  std::ostringstream out;
  std::size_t n = 0;
  for (const auto& e : log_->events()) {
    if (n++ >= max_events) {
      out << "... (" << log_->events().size() - max_events << " more)\n";
      break;
    }
    out << sim::to_microseconds(e.time) << " us  " << sim::to_string(e.type)
        << "  va=0x" << std::hex << e.va << std::dec << "  bytes=" << e.bytes
        << '\n';
  }
  return out.str();
}

}  // namespace ghum::profile
