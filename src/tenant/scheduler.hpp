#pragma once

#include <deque>
#include <string_view>

#include <memory>

#include "core/system.hpp"
#include "tenant/job.hpp"
#include "tenant/recovery.hpp"

/// \file scheduler.hpp
/// Deterministic multi-tenant co-scheduler over one simulated superchip.
///
/// Real Grace Hopper nodes are shared: MIG slices, MPS, or plain batch
/// co-location put several applications on one GPU + CPU memory system,
/// and the paper's single-app measurements leave open how its memory-mode
/// tradeoffs behave under co-located pressure. The Scheduler closes that
/// gap in simulation: each tenant is an app instance restructured as a
/// resumable coroutine (apps::*_steps); the scheduler interleaves their
/// quanta on the shared core::System, so tenants contend for the same
/// HBM frames, C2C link, and eviction machinery, and every simulated
/// event is attributed to the tenant that caused it.
///
/// Determinism: scheduling decisions depend only on simulated state
/// (local clocks, submission order, priorities) — never on host time or
/// iteration order of unordered containers — so two identical runs are
/// bit-for-bit identical (same end times, same EventLog::digest()). A
/// single tenant driven through the scheduler executes exactly the same
/// simulated work as the direct app harness: the scheduler itself never
/// advances the clock.
namespace ghum::tenant {

/// Which runnable job gets the next quantum.
enum class Policy : std::uint8_t {
  /// Resume the job with the earliest local simulated clock (the tenant
  /// that is furthest behind) — the fair-share default. Generalizes the
  /// min-timeline rule runtime::Stream uses for copy/compute overlap.
  kMinLocalTime,
  /// Run jobs to completion in submission order.
  kFifo,
  /// Highest JobSpec::priority runs to completion first.
  kPriority,
};

[[nodiscard]] constexpr std::string_view to_string(Policy p) noexcept {
  switch (p) {
    case Policy::kMinLocalTime: return "min-local-time";
    case Policy::kFifo: return "fifo";
    case Policy::kPriority: return "priority";
  }
  return "?";
}

struct SchedulerConfig {
  Policy policy = Policy::kMinLocalTime;
  /// Aggregate footprint budget for admitted jobs, bytes. 0 means the
  /// machine's physical capacity (HBM + DDR): the node can technically
  /// oversubscribe HBM but not total memory.
  std::uint64_t footprint_budget = 0;
  /// Crash recovery, watchdog, and periodic checkpoints. Disabled by
  /// default: a failing quantum then fails the job exactly as before.
  RecoveryConfig recovery;
};

class Scheduler {
 public:
  explicit Scheduler(core::System& sys, SchedulerConfig cfg = {});

  /// Submits a job. Returns kSuccess when admitted;
  /// Status::kErrorOutOfMemory when the declared footprint does not fit
  /// the remaining budget. The returned id is the job's TenantId (also
  /// written to *out_id when non-null); rejected jobs keep their id so the
  /// caller can inspect Job::status.
  Status submit(JobSpec spec, TenantId* out_id = nullptr);

  /// Runs one quantum — one coroutine step — of the next runnable job per
  /// policy. Returns false when no job is runnable (all terminal).
  bool step();

  /// Drives every admitted job to a terminal state.
  void run_all();

  /// Cancels a running job — the fleet controller's drain,
  /// deadline-enforcement and load-shedding entry point. The job's
  /// coroutine is destroyed and everything its incarnation allocated is
  /// scrubbed (real simulated unmap/free work, attributed to the victim,
  /// under fault-injection suppression so cleanup cannot itself crash).
  /// The job ends kFailed with \p reason as its status. Returns
  /// kErrorInvalidValue for an unknown or already-terminal job, kSuccess
  /// otherwise.
  Status cancel(TenantId id, Status reason);

  /// Re-points the scheduler — and every job's per-tenant Runtime — at a
  /// different System: the node-evacuation hand-off. After
  /// chk::Snapshotter::restore() rebuilds the machine (donor adoption keeps
  /// app-held host pointers alive), this swap lets every suspended job
  /// coroutine continue mid-flight on the restored system.
  void rebind(core::System& sys);

  [[nodiscard]] const Job& job(TenantId id) const;
  [[nodiscard]] const std::deque<Job>& jobs() const noexcept { return jobs_; }
  [[nodiscard]] std::uint64_t budget() const noexcept { return budget_; }
  [[nodiscard]] std::uint64_t admitted_bytes() const noexcept {
    return admitted_bytes_;
  }
  /// Node-local backlog: admitted-but-unfinished jobs. What the fleet
  /// flight recorder samples as queue depth.
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    std::size_t n = 0;
    for (const Job& j : jobs_) {
      if (j.state == JobState::kRunning) ++n;
    }
    return n;
  }
  /// Non-null when SchedulerConfig::recovery.enabled was set.
  [[nodiscard]] const RecoveryManager* recovery() const noexcept {
    return rm_.get();
  }

 private:
  void admit(Job& j);
  Job* pick_next();
  void retire(Job& j);

  core::System* sys_;
  SchedulerConfig cfg_;
  std::uint64_t budget_ = 0;
  std::uint64_t admitted_bytes_ = 0;
  TenantId next_id_ = 1;  ///< 0 is kNoTenant
  std::uint64_t total_quanta_ = 0;  ///< checkpoint-period clock
  std::deque<Job> jobs_;  ///< all jobs, indexed by id - 1
  std::unique_ptr<RecoveryManager> rm_;  ///< present when recovery.enabled
};

}  // namespace ghum::tenant
