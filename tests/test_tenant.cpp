#include <gtest/gtest.h>

#include "apps/hotspot.hpp"
#include "apps/pathfinder.hpp"
#include "apps/qvsim.hpp"
#include "profile/tracer.hpp"
#include "tenant/scheduler.hpp"

/// Tests for the multi-tenant co-scheduler (DESIGN.md Section 8):
/// admission control, scheduling-policy ordering, bit-for-bit determinism,
/// solo-run equivalence with the direct app harness, and cross-tenant
/// eviction attribution.

namespace ghum {
namespace {

core::SystemConfig small_cfg(std::uint64_t hbm = 16ull << 20) {
  core::SystemConfig cfg;
  cfg.system_page_size = pagetable::kSystemPage64K;
  cfg.hbm_capacity = hbm;
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

tenant::JobSpec hotspot_spec(apps::MemMode mode, std::uint64_t footprint,
                             std::uint64_t seed = 42, int priority = 0) {
  tenant::JobSpec spec;
  spec.name = "hotspot";
  spec.mode = mode;
  spec.footprint_bytes = footprint;
  spec.priority = priority;
  spec.make = [mode, seed](runtime::Runtime& rt) {
    return apps::hotspot_steps(rt, mode, small_hotspot(seed));
  };
  return spec;
}

tenant::JobSpec qvsim_spec(std::uint32_t qubits, std::uint64_t footprint) {
  tenant::JobSpec spec;
  spec.name = "qvsim";
  spec.mode = apps::MemMode::kManaged;
  spec.footprint_bytes = footprint;
  spec.make = [qubits](runtime::Runtime& rt) {
    apps::QvConfig q;
    q.qubits = qubits;
    q.depth = 2;
    return apps::qvsim_steps(rt, apps::MemMode::kManaged, q);
  };
  return spec;
}

TEST(TenantAdmission, RejectsFootprintOverBudget) {
  core::System sys{small_cfg()};
  tenant::Scheduler sched{sys, {.footprint_budget = 8ull << 20, .recovery = {}}};
  tenant::TenantId id = tenant::kNoTenant;
  const Status s =
      sched.submit(hotspot_spec(apps::MemMode::kManaged, 16ull << 20), &id);
  EXPECT_EQ(s, Status::kErrorOutOfMemory);
  EXPECT_EQ(sched.job(id).state, tenant::JobState::kRejected);
  EXPECT_EQ(sched.job(id).status, Status::kErrorOutOfMemory);
  // The rejected job never ran: no simulated time passed.
  EXPECT_EQ(sys.now(), 0);
}

TEST(TenantAdmission, RejectsWhenAggregateExceedsBudget) {
  core::System sys{small_cfg()};
  tenant::Scheduler sched{sys, {.footprint_budget = 10ull << 20, .recovery = {}}};
  EXPECT_EQ(sched.submit(hotspot_spec(apps::MemMode::kManaged, 6ull << 20)),
            Status::kSuccess);
  EXPECT_EQ(sched.submit(hotspot_spec(apps::MemMode::kManaged, 6ull << 20)),
            Status::kErrorOutOfMemory);
  EXPECT_EQ(sched.admitted_bytes(), 6ull << 20);
  sched.run_all();
  EXPECT_EQ(sched.job(1).state, tenant::JobState::kFinished);
  EXPECT_EQ(sched.job(2).state, tenant::JobState::kRejected);
}

TEST(TenantPolicy, FifoRunsJobsToCompletionInSubmissionOrder) {
  core::System sys{small_cfg()};
  tenant::Scheduler sched{sys, {.policy = tenant::Policy::kFifo, .recovery = {}}};
  (void)sched.submit(hotspot_spec(apps::MemMode::kManaged, 1ull << 20, 42));
  (void)sched.submit(hotspot_spec(apps::MemMode::kManaged, 1ull << 20, 43));
  sched.run_all();
  EXPECT_LE(sched.job(1).finished_at, sched.job(2).started_at);
}

TEST(TenantPolicy, PriorityRunsMoreUrgentJobFirst) {
  core::System sys{small_cfg()};
  tenant::Scheduler sched{sys, {.policy = tenant::Policy::kPriority, .recovery = {}}};
  (void)sched.submit(
      hotspot_spec(apps::MemMode::kManaged, 1ull << 20, 42, /*priority=*/0));
  (void)sched.submit(
      hotspot_spec(apps::MemMode::kManaged, 1ull << 20, 43, /*priority=*/5));
  sched.run_all();
  // The later-submitted but higher-priority job ran to completion before
  // the first job got its first quantum.
  EXPECT_LE(sched.job(2).finished_at, sched.job(1).started_at);
}

/// One full co-run; returns (end time, event digest) for replay checks.
std::pair<sim::Picos, std::uint64_t> co_run() {
  core::System sys{small_cfg()};
  tenant::Scheduler sched{sys};
  (void)sched.submit(hotspot_spec(apps::MemMode::kManaged, 1ull << 20, 42));
  (void)sched.submit(hotspot_spec(apps::MemMode::kSystem, 1ull << 20, 43));
  (void)sched.submit(qvsim_spec(/*qubits=*/14, 1ull << 20));
  sched.run_all();
  return {sys.now(), sys.events().digest(sys.now())};
}

TEST(TenantDeterminism, IdenticalRunsAreBitForBitIdentical) {
  const auto a = co_run();
  const auto b = co_run();
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(TenantDeterminism, SoloSchedulerRunMatchesDirectHarness) {
  const apps::HotspotConfig hcfg = small_hotspot();

  core::System direct_sys{small_cfg()};
  apps::AppReport direct;
  {
    runtime::Runtime rt{direct_sys};
    direct = apps::run_hotspot(rt, apps::MemMode::kManaged, hcfg);
  }

  core::System sched_sys{small_cfg()};
  tenant::Scheduler sched{sched_sys};
  (void)sched.submit(hotspot_spec(apps::MemMode::kManaged, 1ull << 20));
  sched.run_all();

  // The scheduler adds zero simulated overhead: a solo tenant's end time
  // is exactly the direct harness's end time, and the app saw the same
  // simulation (checksum + phase breakdown).
  EXPECT_EQ(sched_sys.now(), direct_sys.now());
  const apps::AppReport& r = sched.job(1).report;
  EXPECT_EQ(r.checksum, direct.checksum);
  EXPECT_DOUBLE_EQ(r.times.compute_s, direct.times.compute_s);
}

TEST(TenantAttribution, CrossTenantEvictionsAreAttributed) {
  // Two managed 18-qubit statevectors (4 MiB each) on a 6 MiB-HBM GPU:
  // either fits alone next to the 1 MiB driver baseline, both together do
  // not — interleaved quanta force the tenants to evict each other.
  core::System sys{small_cfg(/*hbm=*/6ull << 20)};
  tenant::Scheduler sched{sys};
  (void)sched.submit(qvsim_spec(18, 4ull << 20));
  (void)sched.submit(qvsim_spec(18, 4ull << 20));
  sched.run_all();
  ASSERT_EQ(sched.job(1).state, tenant::JobState::kFinished);
  ASSERT_EQ(sched.job(2).state, tenant::JobState::kFinished);

  const tenant::AttributionTable& at = sys.attribution();
  EXPECT_GT(at.cross_tenant().count, 0u);
  EXPECT_GT(at.cross_tenant().bytes, 0u);
  // The who-evicted-whom matrix names both directions' cells; at least
  // one of them saw traffic.
  EXPECT_GT(at.evictions(1, 2).count + at.evictions(2, 1).count, 0u);
  // Per-tenant ledgers agree with the matrix.
  EXPECT_EQ(at.usage(1).evictions_suffered + at.usage(2).evictions_suffered,
            at.usage(1).evictions_caused + at.usage(2).evictions_caused);

  // The event log carries the same signal: the Tracer reconstructs
  // cross-tenant evictions from (Event::tenant, Event::aux) alone.
  const profile::TraceSummary ts = profile::Tracer{sys.events()}.summarize();
  EXPECT_EQ(ts.cross_tenant_evictions, at.cross_tenant().count);
  EXPECT_EQ(ts.cross_tenant_evicted_bytes, at.cross_tenant().bytes);
}

TEST(TenantAttribution, C2CBytesAreChargedPerTenant) {
  core::System sys{small_cfg()};
  tenant::Scheduler sched{sys};
  // kExplicit hotspot stages H2D/D2H copies over the C2C link.
  (void)sched.submit(hotspot_spec(apps::MemMode::kExplicit, 1ull << 20));
  sched.run_all();
  const tenant::TenantUsage& u = sys.attribution().usage(1);
  EXPECT_GT(u.c2c_h2d_bytes, 0u);
  EXPECT_GT(u.c2c_d2h_bytes, 0u);
  // The solo tenant owns the whole link traffic.
  const auto& c2c = sys.machine().c2c();
  EXPECT_EQ(u.c2c_h2d_bytes,
            c2c.bytes_moved(interconnect::Direction::kCpuToGpu));
  EXPECT_EQ(u.c2c_d2h_bytes,
            c2c.bytes_moved(interconnect::Direction::kGpuToCpu));
}

TEST(TenantScheduler, FailedQuantumRetiresJobAndKeepsOthersRunning) {
  core::System sys{small_cfg()};
  tenant::Scheduler sched{sys};
  // A job whose coroutine throws StatusError mid-run (cudaMalloc larger
  // than HBM) fails without taking the scheduler or its peers down.
  tenant::JobSpec bad;
  bad.name = "oom";
  bad.footprint_bytes = 1ull << 20;
  bad.make = [](runtime::Runtime& rt) -> apps::AppCoro {
    return [](runtime::Runtime& r) -> apps::AppCoro {
      co_yield 0;
      (void)r.malloc_device(1ull << 30, "too_big");  // throws StatusError
      co_return apps::AppReport{};
    }(rt);
  };
  (void)sched.submit(std::move(bad));
  (void)sched.submit(hotspot_spec(apps::MemMode::kManaged, 1ull << 20));
  sched.run_all();
  EXPECT_EQ(sched.job(1).state, tenant::JobState::kFailed);
  EXPECT_EQ(sched.job(1).status, Status::kErrorMemoryAllocation);
  EXPECT_EQ(sched.job(2).state, tenant::JobState::kFinished);
}

}  // namespace
}  // namespace ghum
