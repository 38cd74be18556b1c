#include <gtest/gtest.h>

#include "apps/hotspot.hpp"
#include "event_counts.hpp"
#include "tenant/scheduler.hpp"

/// Recovery-ladder tests: GPU-reset crash faults under the co-scheduler,
/// bounded restart with replay, watchdog stall detection, budget-exhausted
/// graceful failure, and sibling integrity (a crashing tenant must not
/// corrupt its co-tenants' results).

namespace ghum {
namespace {

core::SystemConfig recovery_cfg() {
  core::SystemConfig cfg;
  cfg.system_page_size = pagetable::kSystemPage64K;
  cfg.hbm_capacity = 16ull << 20;
  cfg.ddr_capacity = 256ull << 20;
  cfg.gpu_driver_baseline = 1ull << 20;
  cfg.event_log = true;
  return cfg;
}

apps::HotspotConfig small_hotspot(std::uint64_t seed = 42) {
  apps::HotspotConfig h;
  h.rows = 128;
  h.cols = 128;
  h.iterations = 3;
  h.seed = seed;
  return h;
}

tenant::JobSpec hotspot_spec(std::uint64_t seed = 42) {
  tenant::JobSpec spec;
  spec.name = "hotspot";
  spec.mode = apps::MemMode::kManaged;
  spec.footprint_bytes = 1ull << 20;
  spec.make = [seed](runtime::Runtime& rt) {
    return apps::hotspot_steps(rt, apps::MemMode::kManaged,
                               small_hotspot(seed));
  };
  return spec;
}

/// A job that yields forever without ever touching the machine: zero
/// simulated progress per quantum — exactly what the stall watchdog hunts.
apps::AppCoro stuck_steps(runtime::Runtime&) {
  for (;;) co_yield 0;
}

tenant::JobSpec stuck_spec() {
  tenant::JobSpec spec;
  spec.name = "stuck";
  spec.footprint_bytes = 0;
  spec.make = [](runtime::Runtime& rt) { return stuck_steps(rt); };
  return spec;
}

/// Simulated end time of one hotspot job run solo (to aim crash faults at
/// the middle of the run).
sim::Picos solo_end_time() {
  core::System sys{recovery_cfg()};
  tenant::Scheduler sched{sys, {}};
  (void)sched.submit(hotspot_spec());
  sched.run_all();
  return sys.now();
}

TEST(RecoveryGpuReset, WithoutRecoveryTheJobFailsWithGpuReset) {
  auto cfg = recovery_cfg();
  cfg.faults.enabled = true;
  cfg.faults.gpu_resets = {{.time = solo_end_time() / 2}};
  core::System sys{cfg};
  tenant::Scheduler sched{sys, {}};
  tenant::TenantId id = tenant::kNoTenant;
  (void)sched.submit(hotspot_spec(), &id);
  sched.run_all();
  EXPECT_EQ(sched.job(id).state, tenant::JobState::kFailed);
  EXPECT_EQ(sched.job(id).status, Status::kErrorGpuReset);
  EXPECT_EQ(count_events(sys.events(), sim::EventType::kGpuReset), 1u);
}

TEST(RecoveryGpuReset, RestartReplaysTheJobToTheSameResult) {
  const std::uint64_t want = [] {
    core::System sys{recovery_cfg()};
    tenant::Scheduler sched{sys, {}};
    (void)sched.submit(hotspot_spec());
    sched.run_all();
    return sched.job(1).report.checksum;
  }();

  auto cfg = recovery_cfg();
  cfg.faults.enabled = true;
  cfg.faults.gpu_resets = {{.time = solo_end_time() / 2}};
  core::System sys{cfg};
  tenant::SchedulerConfig scfg;
  scfg.recovery.enabled = true;
  scfg.recovery.max_restarts = 2;
  tenant::Scheduler sched{sys, scfg};
  tenant::TenantId id = tenant::kNoTenant;
  (void)sched.submit(hotspot_spec(), &id);
  sched.run_all();

  const tenant::Job& j = sched.job(id);
  EXPECT_EQ(j.state, tenant::JobState::kFinished);
  EXPECT_EQ(j.report.checksum, want);
  EXPECT_EQ(j.restarts, 1u);
  EXPECT_GT(j.replayed, 0);
  EXPECT_EQ(count_events(sys.events(), sim::EventType::kJobRestart), 1u);
  EXPECT_EQ(sys.machine()
                .obs()
                .counter("ghum_recovery_restarts_total",
                         {{"cause", "gpu_reset"}})
                .value(),
            1u);
  EXPECT_EQ(sys.stats().get("recovery.restarts"), 1u);
}

TEST(RecoveryGpuReset, RepeatedResetsExhaustTheBudgetAndFailUnrecoverably) {
  const sim::Picos mid = solo_end_time() / 2;
  auto cfg = recovery_cfg();
  cfg.faults.enabled = true;
  // One reset per incarnation: each replay crashes shortly after its
  // restart (the global clock keeps moving forward, so the schedule is
  // spaced tighter than any incarnation's time to completion).
  cfg.faults.gpu_resets = {{.time = mid},
                           {.time = mid + mid / 4},
                           {.time = mid + mid / 2},
                           {.time = mid + (3 * mid) / 4}};
  core::System sys{cfg};
  tenant::SchedulerConfig scfg;
  scfg.recovery.enabled = true;
  scfg.recovery.max_restarts = 2;
  tenant::Scheduler sched{sys, scfg};
  tenant::TenantId id = tenant::kNoTenant;
  (void)sched.submit(hotspot_spec(), &id);
  sched.run_all();  // must terminate — never hang

  const tenant::Job& j = sched.job(id);
  EXPECT_EQ(j.state, tenant::JobState::kFailed);
  EXPECT_EQ(j.status, Status::kErrorUnrecoverable);
  EXPECT_EQ(j.restarts, 2u);
  EXPECT_EQ(sys.stats().get("recovery.failed_jobs"), 1u);
}

TEST(RecoveryIntegrity, CrashingTenantDoesNotCorruptItsSibling) {
  auto co_run = [](bool crash) {
    auto cfg = recovery_cfg();
    if (crash) {
      cfg.faults.enabled = true;
      cfg.faults.gpu_resets = {{.time = solo_end_time() / 2}};
    }
    core::System sys{cfg};
    tenant::SchedulerConfig scfg;
    scfg.recovery.enabled = true;
    tenant::Scheduler sched{sys, scfg};
    (void)sched.submit(hotspot_spec(42));
    (void)sched.submit(hotspot_spec(43));
    sched.run_all();
    return std::pair{sched.job(1).report.checksum,
                     sched.job(2).report.checksum};
  };
  const auto clean = co_run(false);
  const auto crashed = co_run(true);
  // Both jobs still produce their correct outputs; the reset victim
  // replayed to the same answer and its sibling never noticed.
  EXPECT_EQ(crashed.first, clean.first);
  EXPECT_EQ(crashed.second, clean.second);
}

TEST(RecoveryWatchdog, StallTripsTimeoutThenBudgetExhaustionFailsTheJob) {
  core::System sys{recovery_cfg()};
  tenant::SchedulerConfig scfg;
  scfg.recovery.enabled = true;
  scfg.recovery.max_restarts = 1;
  scfg.recovery.stall_quanta = 4;
  tenant::Scheduler sched{sys, scfg};
  tenant::TenantId id = tenant::kNoTenant;
  (void)sched.submit(stuck_spec(), &id);
  sched.run_all();  // terminates: watchdog + restart budget bound the loop

  const tenant::Job& j = sched.job(id);
  EXPECT_EQ(j.state, tenant::JobState::kFailed);
  EXPECT_EQ(j.status, Status::kErrorUnrecoverable);
  EXPECT_EQ(j.restarts, 1u);
  EXPECT_EQ(sys.stats().get("recovery.watchdog_trips"), 2u);
  // The stuck job never advanced the clock — and neither did recovery.
  EXPECT_EQ(sys.now(), 0);
}

TEST(RecoveryBudget, ZeroRestartBudgetFailsGracefullyOnTheFirstCrash) {
  auto cfg = recovery_cfg();
  cfg.faults.enabled = true;
  cfg.faults.gpu_resets = {{.time = solo_end_time() / 2}};
  core::System sys{cfg};
  tenant::SchedulerConfig scfg;
  scfg.recovery.enabled = true;
  scfg.recovery.max_restarts = 0;  // recovery on, but no replay allowance
  tenant::Scheduler sched{sys, scfg};
  tenant::TenantId id = tenant::kNoTenant;
  (void)sched.submit(hotspot_spec(), &id);
  sched.run_all();  // must terminate immediately at the crash — no replay

  const tenant::Job& j = sched.job(id);
  EXPECT_EQ(j.state, tenant::JobState::kFailed);
  // Exhausted budget on a restartable cause escalates, so callers can tell
  // "crashed with no budget" from "crashed once, fatal by nature".
  EXPECT_EQ(j.status, Status::kErrorUnrecoverable);
  EXPECT_EQ(j.restarts, 0u);
  EXPECT_EQ(count_events(sys.events(), sim::EventType::kJobRestart), 0u);
  EXPECT_EQ(sys.stats().get("recovery.restarts"), 0u);
  EXPECT_EQ(sys.stats().get("recovery.failed_jobs"), 1u);
}

/// Yields \p stalls zero-progress quanta, then finishes cleanly — a job
/// whose remaining runtime is shorter than the watchdog interval.
apps::AppCoro briefly_stalled_steps(runtime::Runtime&, int stalls) {
  for (int i = 0; i < stalls; ++i) co_yield 0;
  apps::AppReport rep;
  rep.app = "briefly-stalled";
  rep.checksum = 0x5717ull;
  co_return rep;
}

TEST(RecoveryWatchdog, IntervalLongerThanTheRemainingJobNeverTrips) {
  core::System sys{recovery_cfg()};
  tenant::SchedulerConfig scfg;
  scfg.recovery.enabled = true;
  // The job stalls for 3 quanta then completes; the watchdog needs 4
  // consecutive zero-progress quanta to fire. The run ends first — a
  // spurious timeout here would fail a perfectly healthy job.
  scfg.recovery.stall_quanta = 4;
  scfg.recovery.max_restarts = 0;  // any trip would be terminal
  tenant::Scheduler sched{sys, scfg};
  tenant::JobSpec spec;
  spec.name = "briefly-stalled";
  spec.footprint_bytes = 0;
  spec.make = [](runtime::Runtime& rt) { return briefly_stalled_steps(rt, 3); };
  tenant::TenantId id = tenant::kNoTenant;
  (void)sched.submit(std::move(spec), &id);
  sched.run_all();

  const tenant::Job& j = sched.job(id);
  EXPECT_EQ(j.state, tenant::JobState::kFinished);
  EXPECT_EQ(j.report.checksum, 0x5717ull);
  EXPECT_EQ(j.restarts, 0u);
  EXPECT_EQ(sys.stats().get("recovery.watchdog_trips"), 0u);
}

TEST(RecoveryWatchdog, HealthyJobsNeverTripTheWatchdog) {
  core::System sys{recovery_cfg()};
  tenant::SchedulerConfig scfg;
  scfg.recovery.enabled = true;
  scfg.recovery.stall_quanta = 2;
  tenant::Scheduler sched{sys, scfg};
  (void)sched.submit(hotspot_spec());
  sched.run_all();
  EXPECT_EQ(sched.job(1).state, tenant::JobState::kFinished);
  EXPECT_EQ(sys.stats().get("recovery.watchdog_trips"), 0u);
}

TEST(RecoveryCheckpoint, PeriodicVerifiedCheckpointsRoundTripUnderCoRun) {
  core::System sys{recovery_cfg()};
  tenant::SchedulerConfig scfg;
  scfg.recovery.enabled = true;
  scfg.recovery.checkpoint_period_quanta = 3;
  scfg.recovery.verify_checkpoints = true;
  tenant::Scheduler sched{sys, scfg};
  (void)sched.submit(hotspot_spec(42));
  (void)sched.submit(hotspot_spec(43));
  sched.run_all();  // verify_checkpoints throws on any round-trip divergence
  EXPECT_EQ(sched.job(1).state, tenant::JobState::kFinished);
  EXPECT_EQ(sched.job(2).state, tenant::JobState::kFinished);
  EXPECT_GE(sys.stats().get("recovery.checkpoints"), 1u);
  ASSERT_NE(sched.recovery(), nullptr);
  EXPECT_FALSE(sched.recovery()->last_checkpoint().empty());
}

TEST(RecoverySoloEquivalence, RecoveryEnabledChangesNothingWithoutCrashes) {
  auto run = [](bool recovery) {
    core::System sys{recovery_cfg()};
    tenant::SchedulerConfig scfg;
    scfg.recovery.enabled = recovery;
    scfg.recovery.stall_quanta = 8;
    tenant::Scheduler sched{sys, scfg};
    (void)sched.submit(hotspot_spec());
    sched.run_all();
    return std::pair{sys.now(), sys.events().digest(sys.now())};
  };
  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace ghum
