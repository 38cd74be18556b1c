#include "tenant/scheduler.hpp"

#include <new>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "fault/fault_injector.hpp"

namespace ghum::tenant {

Scheduler::Scheduler(core::System& sys, SchedulerConfig cfg)
    : sys_(&sys), cfg_(cfg) {
  const core::SystemConfig& mc = sys.machine().config();
  budget_ = cfg_.footprint_budget != 0 ? cfg_.footprint_budget
                                       : mc.hbm_capacity + mc.ddr_capacity;
  if (cfg_.recovery.enabled) {
    rm_ = std::make_unique<RecoveryManager>(sys, cfg_.recovery);
  }
}

Status Scheduler::submit(JobSpec spec, TenantId* out_id) {
  Job j;
  j.id = next_id_++;
  j.spec = std::move(spec);
  j.submitted_at = sys_->now();
  if (out_id != nullptr) *out_id = j.id;

  if (admitted_bytes_ + j.spec.footprint_bytes > budget_) {
    j.state = JobState::kRejected;
    j.status = Status::kErrorOutOfMemory;
    j.finished_at = j.submitted_at;
    jobs_.push_back(std::move(j));
    return Status::kErrorOutOfMemory;
  }
  jobs_.push_back(std::move(j));
  admit(jobs_.back());
  return Status::kSuccess;
}

void Scheduler::admit(Job& j) {
  admitted_bytes_ += j.spec.footprint_bytes;
  j.rt = std::make_unique<runtime::Runtime>(*sys_);
  // Stamp the tenant before invoking the factory: a coroutine's frame is
  // allocated here, but its body (and thus any VMA creation) only runs
  // inside granted quanta, which re-stamp anyway. Belt and braces.
  sys_->set_current_tenant(j.id);
  j.coro = j.spec.make(*j.rt);
  sys_->set_current_tenant(kNoTenant);
  j.state = JobState::kRunning;
}

Job* Scheduler::pick_next() {
  // Scan-and-min over runnable jobs: tenant counts are small and a linear
  // scan with a total-order key is trivially deterministic.
  Job* best = nullptr;
  std::tuple<std::int64_t, std::uint64_t, std::uint64_t> best_key{};
  for (Job& j : jobs_) {
    if (!j.runnable()) continue;
    std::tuple<std::int64_t, std::uint64_t, std::uint64_t> key{};
    switch (cfg_.policy) {
      case Policy::kMinLocalTime:
        key = {0, static_cast<std::uint64_t>(j.local_now), j.id};
        break;
      case Policy::kFifo:
        key = {0, j.id, 0};
        break;
      case Policy::kPriority:
        // Larger priority first; submission order breaks ties.
        key = {-static_cast<std::int64_t>(j.spec.priority), j.id, 0};
        break;
    }
    if (best == nullptr || key < best_key) {
      best = &j;
      best_key = key;
    }
  }
  return best;
}

void Scheduler::retire(Job& j) {
  j.finished_at = sys_->now();
  j.coro = apps::AppCoro{};  // release the frame (buffers already freed)
  admitted_bytes_ -= j.spec.footprint_bytes;
}

bool Scheduler::step() {
  Job* j = pick_next();
  if (j == nullptr) return false;

  if (j->quanta == 0) j->started_at = sys_->now();

  interconnect::NvlinkC2C& c2c = sys_->machine().c2c();
  const std::uint64_t h2d0 = c2c.bytes_moved(interconnect::Direction::kCpuToGpu);
  const std::uint64_t d2h0 = c2c.bytes_moved(interconnect::Direction::kGpuToCpu);

  const sim::Picos now_before = sys_->now();
  sys_->set_current_tenant(j->id);
  if (rm_ != nullptr) rm_->quantum_begin(*j);
  bool alive = true;
  Status failure = Status::kSuccess;
  try {
    alive = j->coro.step();
  } catch (const StatusError& e) {
    failure = e.status();
  } catch (const std::bad_alloc&) {
    failure = Status::kErrorOutOfMemory;
  }
  sys_->set_current_tenant(kNoTenant);

  // Everything the quantum moved over the C2C link belongs to this tenant
  // (the simulator is single-threaded per quantum, so the delta is exact).
  tenant::AttributionTable& at = sys_->attribution();
  at.note_c2c(j->id, /*h2d=*/true,
              c2c.bytes_moved(interconnect::Direction::kCpuToGpu) - h2d0);
  at.note_c2c(j->id, /*h2d=*/false,
              c2c.bytes_moved(interconnect::Direction::kGpuToCpu) - d2h0);

  j->local_now = sys_->now();
  ++j->quanta;
  ++total_quanta_;

  if (failure == Status::kSuccess && alive && rm_ != nullptr) {
    failure = rm_->quantum_end(*j, now_before);
  }

  if (failure != Status::kSuccess) {
    // A throw mid-kernel leaves the machine's phase bookkeeping open;
    // clear it before anything else runs (no simulated cost — the
    // crashed kernel's charges already landed).
    sys_->abort_phase();
    j->status = failure;
    if (rm_ != nullptr && rm_->on_failure(*j, failure)) {
      // Rolled back; the job stays kRunning and replays from the top.
    } else {
      j->state = JobState::kFailed;
      retire(*j);
    }
  } else if (!alive) {
    j->report = std::move(j->coro.report());
    j->state = JobState::kFinished;
    retire(*j);
  }
  if (rm_ != nullptr) rm_->maybe_checkpoint(total_quanta_);
  return true;
}

void Scheduler::run_all() {
  while (step()) {
  }
}

Status Scheduler::cancel(TenantId id, Status reason) {
  if (id == kNoTenant || id >= next_id_) return Status::kErrorInvalidValue;
  Job& j = jobs_[id - 1];
  if (j.terminal()) return Status::kErrorInvalidValue;

  // Drop the suspended coroutine frame first (its destructors do no
  // simulated work), then scrub what the incarnation allocated — the
  // teardown its exit path would have performed, charged to the victim and
  // immune to injected faults, exactly like the crash-recovery rollback.
  j.coro = apps::AppCoro{};
  {
    fault::FaultInjector::ScopedSuppress guard{&sys_->fault_injector()};
    sys_->set_current_tenant(j.id);
    (void)sys_->scrub_tenant(j.id);
    sys_->set_current_tenant(kNoTenant);
  }
  j.state = JobState::kFailed;
  j.status = reason;
  retire(j);
  return Status::kSuccess;
}

void Scheduler::rebind(core::System& sys) {
  sys_ = &sys;
  for (Job& j : jobs_) {
    if (j.rt != nullptr) j.rt->rebind(sys);
  }
  if (rm_ != nullptr) rm_->rebind(sys);
}

const Job& Scheduler::job(TenantId id) const {
  if (id == kNoTenant || id >= next_id_) {
    throw std::out_of_range{"tenant::Scheduler::job: unknown tenant id"};
  }
  return jobs_[id - 1];
}

}  // namespace ghum::tenant
