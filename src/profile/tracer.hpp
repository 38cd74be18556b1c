#pragma once

#include <string>
#include <vector>

#include "sim/event_log.hpp"

/// \file tracer.hpp
/// Nsight-Systems-style view over the event log (paper Section 3.2). The
/// paper notes that Nsight only reliably reports page faults and
/// migrations for *managed* memory — system-memory faults are invisible to
/// it on real hardware. The simulator has no such blind spot, which the
/// tests exploit; the summary below still groups events the way the
/// paper's methodology discusses them.

namespace ghum::profile {

struct TraceSummary {
  std::size_t cpu_first_touch_faults = 0;
  std::size_t gpu_first_touch_faults = 0;
  std::size_t managed_gpu_faults = 0;
  std::size_t migrations_h2d = 0;
  std::size_t migrations_d2h = 0;
  std::size_t evictions = 0;
  std::size_t counter_notifications = 0;
  std::size_t explicit_prefetches = 0;
  std::uint64_t migrated_h2d_bytes = 0;
  std::uint64_t migrated_d2h_bytes = 0;
  std::uint64_t evicted_bytes = 0;

  // Fault-injection & resilience events (DESIGN.md "Fault model & resilience").
  std::size_t alloc_denials = 0;
  std::size_t migration_retries = 0;
  std::size_t migration_aborts = 0;
  std::size_t link_degrade_windows = 0;
  std::size_t ecc_retirements = 0;
  std::uint64_t ecc_retired_bytes = 0;
  std::size_t fallback_placements = 0;
  std::size_t oom_events = 0;

  // Crash ladder (DESIGN.md Section 10): channel resets with the bytes
  // they poisoned, and recovery restarts with the bytes they scrubbed.
  std::size_t gpu_resets = 0;
  std::uint64_t poisoned_bytes = 0;
  std::size_t job_restarts = 0;
  std::uint64_t scrubbed_bytes = 0;

  /// Evictions whose perpetrator (Event::tenant) differs from the victim
  /// block's owner (Event::aux on kEviction) — the multi-tenant
  /// interference signal (DESIGN.md Section 8).
  std::size_t cross_tenant_evictions = 0;
  std::uint64_t cross_tenant_evicted_bytes = 0;
};

/// One NVLink-C2C degradation window of the log, [begin, end).
struct LinkWindow {
  sim::Picos begin = 0;
  sim::Picos end = 0;  ///< the last event's time when the window is open
  bool open = false;   ///< still degrading when the log ends
};

/// Pairs the log's kLinkDegradeBegin/End events into windows, in order: a
/// Begin restarts any window already open and an End with none open is
/// ignored. A window still open when the log ends comes last.
[[nodiscard]] std::vector<LinkWindow> link_degrade_windows(const sim::EventLog& log);

class Tracer {
 public:
  explicit Tracer(const sim::EventLog& log) : log_(&log) {}

  [[nodiscard]] TraceSummary summarize() const;

  /// Summary over events in the half-open simulated-time window [t0, t1).
  [[nodiscard]] TraceSummary summarize(sim::Picos t0, sim::Picos t1) const;

  /// Human-readable event listing (one line per event).
  [[nodiscard]] std::string to_text(std::size_t max_events = 200) const;

 private:
  const sim::EventLog* log_;
};

}  // namespace ghum::profile
