#pragma once

#include <functional>
#include <memory>
#include <string>

#include "apps/app_common.hpp"
#include "fault/status.hpp"
#include "runtime/runtime.hpp"
#include "tenant/tenant_id.hpp"

/// \file job.hpp
/// A tenant job: one application instance (app x memory mode) packaged as
/// a resumable sequence of work units. The factory produces the app's
/// step-yielding coroutine (apps::*_steps) over the runtime the scheduler
/// hands it; every co_yield inside the app is a preemption point where the
/// tenant::Scheduler may switch to another tenant.

namespace ghum::tenant {

/// What a tenant wants to run. The \p make factory is invoked once, at
/// admission, with a Runtime bound to the shared simulated superchip; it
/// must return the app's step coroutine (e.g. hotspot_steps). The factory
/// itself must not issue simulated work — the coroutine body starts
/// executing only when the scheduler grants the first quantum.
struct JobSpec {
  std::string name;                       ///< display name ("qvsim/managed")
  apps::MemMode mode = apps::MemMode::kManaged;  ///< informational
  std::function<apps::AppCoro(runtime::Runtime&)> make;
  /// Peak memory footprint the job declares at submission; the admission
  /// controller checks the aggregate of admitted footprints against the
  /// scheduler budget (like a batch system's memory request).
  std::uint64_t footprint_bytes = 0;
  int priority = 0;                       ///< larger = more urgent (kPriority)
};

enum class JobState : std::uint8_t {
  kRunning,   ///< admitted; coroutine exists and is resumable
  kFinished,  ///< ran to completion; report is valid
  kFailed,    ///< quantum threw (StatusError / bad_alloc); status records why
  kRejected,  ///< admission denied (footprint over budget)
};

/// One submitted job and its full lifecycle. Owned by the Scheduler;
/// addresses are stable (deque) so the coroutine's Runtime reference —
/// captured at admission — stays valid across scheduling.
struct Job {
  TenantId id = kNoTenant;  ///< tenant id; also the attribution key
  JobSpec spec;
  JobState state = JobState::kRunning;

  sim::Picos submitted_at = 0;
  sim::Picos started_at = 0;   ///< first quantum's start
  sim::Picos finished_at = 0;  ///< completion / failure time
  /// The tenant's local simulated clock: the global clock value observed
  /// at the end of its last quantum. The kMinLocalTime policy resumes the
  /// job whose local clock lags furthest behind.
  sim::Picos local_now = 0;
  std::uint64_t quanta = 0;  ///< quanta consumed so far

  Status status = Status::kSuccess;  ///< failure/rejection cause
  apps::AppReport report;            ///< valid when kFinished

  // Recovery bookkeeping (tenant::RecoveryManager).
  std::uint32_t restarts = 0;  ///< times rolled back and replayed
  std::uint64_t stall_run = 0;  ///< consecutive zero-progress quanta
  std::uint64_t retries_at_qstart = 0;  ///< migration-retry count at quantum start
  sim::Picos replayed = 0;  ///< simulated time discarded by rollbacks

  std::unique_ptr<runtime::Runtime> rt;  ///< per-tenant CUDA-like context
  apps::AppCoro coro;                    ///< resumable app instance

  [[nodiscard]] bool runnable() const noexcept {
    return state == JobState::kRunning;
  }
  [[nodiscard]] bool terminal() const noexcept {
    return state == JobState::kFinished || state == JobState::kFailed ||
           state == JobState::kRejected;
  }
};

}  // namespace ghum::tenant
