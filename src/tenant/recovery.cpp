#include "tenant/recovery.hpp"

#include <memory>
#include <utility>

#include "fault/fault_injector.hpp"
#include "sim/event_log.hpp"

namespace ghum::tenant {

namespace {

/// Short cause slug for the restart counter's label (stable metric keys;
/// ghum::to_string(Status) is prose for humans).
[[nodiscard]] const char* cause_slug(Status s) noexcept {
  switch (s) {
    case Status::kErrorGpuReset: return "gpu_reset";
    case Status::kErrorEccUncorrectable: return "ecc_uncorrectable";
    case Status::kErrorTimeout: return "timeout";
    default: return "other";
  }
}

}  // namespace

RecoveryManager::RecoveryManager(core::System& sys, RecoveryConfig cfg)
    : sys_(&sys), cfg_(cfg) {
  rebind(sys);
}

void RecoveryManager::rebind(core::System& sys) {
  sys_ = &sys;
  obs::MetricsRegistry& reg = sys.machine().obs();
  watchdog_trips_ = &reg.counter("ghum_recovery_watchdog_trips_total");
  replayed_picos_ = &reg.counter("ghum_recovery_replayed_picos_total");
  failed_jobs_ = &reg.counter("ghum_recovery_failed_jobs_total");
  scrubbed_bytes_ = &reg.counter("ghum_recovery_scrubbed_bytes_total");
  checkpoints_ = &reg.counter("ghum_chk_checkpoints_total");
  snapshot_bytes_ = &reg.histogram("ghum_chk_snapshot_bytes");
  // Pre-register the per-cause restart counters so the exposition carries
  // all three families (at zero) from the first scrape.
  (void)restarts_for(Status::kErrorGpuReset);
  (void)restarts_for(Status::kErrorEccUncorrectable);
  (void)restarts_for(Status::kErrorTimeout);
}

obs::Counter* RecoveryManager::restarts_for(Status cause) {
  return &sys_->machine().obs().counter("ghum_recovery_restarts_total",
                                        {{"cause", cause_slug(cause)}});
}

void RecoveryManager::quantum_begin(Job& j) {
  j.retries_at_qstart = sys_->machine().metrics().migration_retries->value();
}

Status RecoveryManager::quantum_end(Job& j, sim::Picos now_before) {
  if (cfg_.stall_quanta != 0) {
    if (j.local_now == now_before) {
      if (++j.stall_run >= cfg_.stall_quanta) {
        watchdog_trips_->inc();
        return Status::kErrorTimeout;
      }
    } else {
      j.stall_run = 0;
    }
  }
  if (cfg_.retry_storm_threshold != 0) {
    const std::uint64_t retries =
        sys_->machine().metrics().migration_retries->value() - j.retries_at_qstart;
    if (retries >= cfg_.retry_storm_threshold) {
      watchdog_trips_->inc();
      return Status::kErrorTimeout;
    }
  }
  return Status::kSuccess;
}

bool RecoveryManager::on_failure(Job& j, Status cause) {
  if (!restartable(cause) || j.restarts >= cfg_.max_restarts) {
    // Budget exhausted on a cause that would otherwise restart: escalate,
    // so callers can tell "crashed too often" from "crashed once, fatal".
    if (restartable(cause) && j.restarts >= cfg_.max_restarts) {
      j.status = Status::kErrorUnrecoverable;
    }
    failed_jobs_->inc();
    return false;
  }

  // Roll back: scrub everything the dead incarnation leaked, then rebuild
  // the coroutine from the spec factory. The scrub runs as the victim
  // tenant (its unmap/free costs are attributed to it) and under fault
  // suppression (cleanup must not itself crash).
  fault::FaultInjector::ScopedSuppress guard{&sys_->fault_injector()};
  sys_->set_current_tenant(j.id);
  const std::uint64_t scrubbed = sys_->scrub_tenant(j.id);

  const sim::Picos lost = j.local_now - j.started_at;
  j.replayed += lost;
  replayed_picos_->inc(static_cast<std::uint64_t>(lost));
  scrubbed_bytes_->inc(scrubbed);
  restarts_for(cause)->inc();
  sys_->events().record(sim::EventType::kJobRestart, 0, scrubbed,
                        (j.restarts << 8) | static_cast<std::uint32_t>(cause));

  j.coro = j.spec.make(*j.rt);
  ++j.restarts;
  j.status = Status::kSuccess;
  j.stall_run = 0;
  sys_->set_current_tenant(kNoTenant);
  return true;
}

void RecoveryManager::maybe_checkpoint(std::uint64_t total_quanta) {
  if (cfg_.checkpoint_period_quanta == 0) return;
  if (total_quanta % cfg_.checkpoint_period_quanta != 0) return;

  last_checkpoint_ = chk::Snapshotter::snapshot(*sys_);
  checkpoints_->inc();
  snapshot_bytes_->observe(last_checkpoint_.size());

  if (cfg_.verify_checkpoints) {
    // Restore into a scratch System and re-snapshot: byte-for-byte payload
    // equality proves the serializer is lossless for the live state.
    std::unique_ptr<core::System> twin =
        chk::Snapshotter::restore(last_checkpoint_);
    const chk::Blob again = chk::Snapshotter::snapshot(*twin);
    if (chk::Snapshotter::blob_digest(again) !=
        chk::Snapshotter::blob_digest(last_checkpoint_)) {
      throw StatusError{Status::kErrorInvalidValue,
                        "checkpoint verification: restore round trip diverged"};
    }
  }
}

}  // namespace ghum::tenant
