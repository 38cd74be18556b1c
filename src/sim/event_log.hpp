#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "sim/clock.hpp"
#include "sim/fnv.hpp"
#include "sim/time.hpp"

/// \file event_log.hpp
/// A structured log of memory-system events (faults, migrations, evictions,
/// access-counter notifications). This is the substrate of the Nsight-like
/// tracer in src/profile/tracer.hpp: the paper uses Nsight Systems to
/// identify GPU page faults and migrations for managed memory (Section 3.2);
/// our tests additionally rely on it for system-memory events, which real
/// Nsight cannot report.

namespace ghum::chk {
class Snapshotter;
}  // namespace ghum::chk

namespace ghum::sim {

enum class EventType : std::uint8_t {
  kCpuFirstTouchFault,    ///< CPU-origin minor fault populating a system PTE
  kGpuFirstTouchFault,    ///< GPU-origin replayable fault via SMMU/ATS
  kGpuManagedFault,       ///< GMMU fault on managed memory (pre-GH style)
  kMigrationH2D,          ///< pages moved CPU -> GPU
  kMigrationD2H,          ///< pages moved GPU -> CPU
  kEviction,              ///< managed pages evicted GPU -> CPU under pressure
  kCounterNotification,   ///< access-counter threshold crossed (interrupt)
  kExplicitPrefetch,      ///< cudaMemPrefetchAsync-style bulk migration
  kHostRegister,          ///< cudaHostRegister-style PTE pre-population
  kAllocation,            ///< virtual allocation created
  kDeallocation,          ///< virtual allocation destroyed
  kKernelBegin,
  kKernelEnd,
  kContextInit,           ///< GPU context initialization
  kNumaHintFault,         ///< AutoNUMA scanner hint fault (when enabled)
  // --- fault-injection & resilience events (src/fault) ---------------------
  kFaultAllocDenial,      ///< injected transient frame-allocation denial
  kFaultMigrationRetry,   ///< migration batch failed; retry after backoff
  kFaultMigrationAbort,   ///< migration batch abandoned after max retries
  kLinkDegradeBegin,      ///< NVLink-C2C degradation window entered
  kLinkDegradeEnd,        ///< NVLink-C2C degradation window left
  kEccRetirement,         ///< uncorrectable ECC retired physical frames
  kFallbackPlacement,     ///< fault placed the page on the non-preferred node
  kOutOfMemory,           ///< both nodes exhausted (OOM-killer analogue)
  kGpuReset,              ///< GPU channel reset: context lost, device-resident
                          ///< managed state of the victim tenant poisoned
  kJobRestart,            ///< RecoveryManager rolled a job back to its
                          ///< checkpoint and replays it (aux = cause Status);
                          ///< the last type (chk::Reader refuses any above)
};

[[nodiscard]] std::string_view to_string(EventType t) noexcept;

/// One logged event. Callers pass type, va, bytes and aux to
/// EventLog::record, which stamps time, tenant and span.
struct Event {
  Picos time = 0;           ///< simulated time the event was recorded
  EventType type{};
  std::uint64_t va = 0;     ///< virtual address (or 0 when not applicable)
  std::uint64_t bytes = 0;  ///< size touched/moved by the event
  std::uint32_t aux = 0;    ///< event-specific payload (e.g. kernel id; for
                            ///< kEviction: the victim block's tenant)
  std::uint32_t tenant = 0; ///< tenant active when the event fired (0 = none)
  std::uint32_t span = 0;   ///< causal span id (0 = outside any span), from
                            ///< the open SpanScope
};

class EventLog {
 public:
  /// Events are stamped with \p clock's current time; the clock must
  /// outlive the log (the machine declares its clock first).
  explicit EventLog(const Clock& clock) noexcept : clock_(clock) {}

  /// Logging is disabled by default: large app runs would otherwise
  /// accumulate millions of fault events. Benches/tests enable it.
  void set_enabled(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Tenant stamped on every subsequent event (multi-tenant co-scheduling;
  /// 0 outside any tenant quantum): the machine's only copy, set through it.
  void set_current_tenant(std::uint32_t t) noexcept { tenant_ = t; }
  [[nodiscard]] std::uint32_t current_tenant() const noexcept { return tenant_; }

  // --- causal span tracing (DESIGN.md Section 9) ---------------------------
  /// Allocates a fresh span id (ids start at 1; 0 means "no span"). The
  /// sequence advances even while logging is disabled so enabling the log
  /// never changes simulator decisions.
  [[nodiscard]] std::uint32_t open_span() noexcept { return ++span_seq_; }
  /// Span stamped on every subsequent event. Use SpanScope instead of
  /// calling this directly: a root cause (GPU fault, prefetch, ECC event)
  /// opens a span and everything it transitively triggers inherits it.
  void set_current_span(std::uint32_t s) noexcept { span_ = s; }
  [[nodiscard]] std::uint32_t current_span() const noexcept { return span_; }

  /// Logs one event at the clock's current time under the current tenant
  /// and span; a no-op while logging is disabled.
  void record(EventType type, std::uint64_t va = 0, std::uint64_t bytes = 0,
              std::uint32_t aux = 0) {
    if (!enabled_) return;
    events_.push_back(Event{.time = clock_.now(),
                            .type = type,
                            .va = va,
                            .bytes = bytes,
                            .aux = aux,
                            .tenant = tenant_,
                            .span = span_});
  }

  [[nodiscard]] const std::vector<Event>& events() const noexcept { return events_; }

  /// FNV-1a over the full event stream plus \p end_time (normally the final
  /// simulated time): two runs digest equal iff the simulator took the same
  /// decisions at the same simulated times. This is the canonical
  /// bit-for-bit reproducibility check used by the differential and chaos
  /// benches and by the tenancy repro column.
  [[nodiscard]] std::uint64_t digest(Picos end_time) const noexcept {
    std::uint64_t h = kFnvOffset;
    for (const Event& e : events_) {
      fnv_mix(h, static_cast<std::uint64_t>(e.time));
      fnv_mix(h, static_cast<std::uint64_t>(e.type));
      fnv_mix(h, e.va);
      fnv_mix(h, e.bytes);
      fnv_mix(h, e.aux);
      fnv_mix(h, e.tenant);
      fnv_mix(h, e.span);
    }
    fnv_mix(h, static_cast<std::uint64_t>(end_time));
    return h;
  }

 private:
  const Clock& clock_;
  bool enabled_ = false;
  std::uint32_t tenant_ = 0;
  std::uint32_t span_ = 0;
  std::uint32_t span_seq_ = 0;
  std::vector<Event> events_;

  friend class ghum::chk::Snapshotter;
};

/// RAII causal span: opens a fresh span when none is active and restores
/// the previous one on exit. Nested scopes (an eviction inside a managed
/// fault, a retry inside a migration) therefore inherit the *root* cause's
/// span — the property the fault -> migration -> eviction chain tests walk.
class SpanScope {
 public:
  explicit SpanScope(EventLog& log) noexcept
      : log_(&log), prev_(log.current_span()) {
    if (prev_ == 0) log.set_current_span(log.open_span());
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  ~SpanScope() { log_->set_current_span(prev_); }

 private:
  EventLog* log_;
  std::uint32_t prev_;
};

}  // namespace ghum::sim
