// Fault-injection and resilience subsystem (DESIGN.md "Fault model &
// resilience"): Status surface, injected denials/batch failures, link
// degradation windows, ECC frame retirement, and the determinism contract
// (same seed + config => same simulated timeline, bit for bit).

#include <gtest/gtest.h>

#include "apps/hotspot.hpp"
#include "benchsupport/scenarios.hpp"
#include "core/system.hpp"
#include "driver/migration_engine.hpp"
#include "event_counts.hpp"
#include "fault/fault_injector.hpp"
#include "fault/status.hpp"
#include "os/page_fault.hpp"
#include "profile/tracer.hpp"
#include "runtime/runtime.hpp"

namespace ghum {
namespace {

core::SystemConfig small_config() {
  core::SystemConfig cfg;
  cfg.system_page_size = pagetable::kSystemPage64K;
  cfg.hbm_capacity = 8ull << 20;
  cfg.ddr_capacity = 64ull << 20;
  cfg.gpu_driver_baseline = 1ull << 20;
  cfg.event_log = true;
  return cfg;
}

// --- Status surface -----------------------------------------------------------

TEST(Status, ToStringCoversAllCodes) {
  EXPECT_EQ(to_string(Status::kSuccess), "success");
  EXPECT_EQ(to_string(Status::kErrorMemoryAllocation), "out of memory");
  EXPECT_EQ(to_string(Status::kErrorOutOfMemory), "system out of memory");
  EXPECT_EQ(to_string(Status::kErrorInvalidValue), "invalid value");
  EXPECT_EQ(to_string(Status::kErrorDoubleFree), "double free");
  EXPECT_EQ(to_string(Status::kErrorEccUncorrectable), "uncorrectable ECC error");
}

TEST(Status, StatusErrorCarriesCode) {
  const StatusError e{Status::kErrorOutOfMemory, "ctx"};
  EXPECT_EQ(e.status(), Status::kErrorOutOfMemory);
  EXPECT_NE(std::string{e.what()}.find("out of memory"), std::string::npos);
}

TEST(RuntimeStatus, MallocDeviceReportsOomWithoutThrowing) {
  core::System sys{small_config()};
  runtime::Runtime rt{sys};
  core::Buffer out;
  // 16 MiB into an 8 MiB HBM: genuine OOM, reported not thrown.
  EXPECT_EQ(rt.malloc_device(16ull << 20, out, "big"), Status::kErrorMemoryAllocation);
  EXPECT_FALSE(out.valid());
  EXPECT_EQ(rt.peek_last_error(), Status::kErrorMemoryAllocation);
  // cudaGetLastError semantics: returns the sticky error, then clears it.
  EXPECT_EQ(rt.get_last_error(), Status::kErrorMemoryAllocation);
  EXPECT_EQ(rt.get_last_error(), Status::kSuccess);
  EXPECT_GE(sys.stats().get("runtime.oom.gpu_malloc"), 1u);
  EXPECT_GE(count_events(sys.events(), sim::EventType::kOutOfMemory), 1u);
  // The machine is still usable after the failure.
  core::Buffer ok;
  EXPECT_EQ(rt.malloc_device(1ull << 20, ok, "small"), Status::kSuccess);
  EXPECT_TRUE(ok.valid());
}

// --- injected frame-allocation denials ---------------------------------------

TEST(Injection, PersistentDenialExhaustsGpuMallocRetries) {
  core::SystemConfig cfg = small_config();
  cfg.faults.enabled = true;
  cfg.faults.frame_alloc_denial_prob = 1.0;  // every attempt denied
  core::System sys{cfg};
  core::Buffer out;
  const sim::Picos t0 = sys.now();
  EXPECT_EQ(sys.gpu_malloc_status(2ull << 20, out), Status::kErrorMemoryAllocation);
  EXPECT_FALSE(out.valid());
  // Bounded retry: several denied attempts, backoff charged to the clock.
  EXPECT_GE(sys.fault_injector().denials(), 4u);
  EXPECT_GT(sys.now(), t0);
  EXPECT_GE(sys.stats().get("fault.alloc_denials"), 4u);
}

TEST(Injection, DenialFallsBackToCpuPlacement) {
  core::SystemConfig cfg = small_config();
  cfg.faults.enabled = true;
  cfg.faults.frame_alloc_denial_prob = 1.0;
  core::System sys{cfg};
  core::Buffer b = sys.sys_malloc(1 << 20);
  sys.kernel_begin("k");
  // GPU first touch is denied; the handler falls back (suppressed, so the
  // cure cannot be re-injected) and the access is served from the CPU.
  const auto v = sys.resolve(b.va, mem::Node::kGpu);
  EXPECT_EQ(v.node, mem::Node::kCpu);
  sys.kernel_end();
  EXPECT_GE(sys.stats().get("fault.alloc_denials"), 1u);
  EXPECT_GE(sys.stats().get("os.fault.fallback"), 1u);
  EXPECT_GE(count_events(sys.events(), sim::EventType::kFallbackPlacement), 1u);
}

// --- migration-batch failures --------------------------------------------------

TEST(Injection, MigrationRetryIsBoundedAndCharged) {
  core::SystemConfig cfg = small_config();
  cfg.faults.enabled = true;
  cfg.faults.migration_batch_fail_prob = 1.0;  // every batch fails
  core::Machine m{cfg};
  fault::FaultInjector fi{m};
  m.set_fault_injector(&fi);
  os::PageFaultHandler pf{m};
  driver::MigrationEngine mig{m};

  os::Vma& v = m.address_space().create(1 << 20, os::AllocKind::kSystem, 65536, "a",
                                        tenant::kNoTenant);
  for (std::uint64_t va = v.base; va < v.end(); va += 65536) {
    ASSERT_TRUE(m.map_system_page(v, va, mem::Node::kCpu));
  }
  const sim::Picos t0 = m.clock().now();
  // Fails every retry, aborts the batch; no pages move, residency intact.
  EXPECT_EQ(mig.migrate_system_range_to_gpu(v, v.base, v.size, ~0ull), 0u);
  EXPECT_EQ(v.resident_cpu_bytes, 1u << 20);
  EXPECT_EQ(m.stats().get("fault.migration_retries"),
            static_cast<std::uint64_t>(cfg.faults.migration_max_retries));
  EXPECT_EQ(m.stats().get("fault.migration_aborts"), 1u);
  EXPECT_GT(m.clock().now(), t0);  // retry backoff is simulated time
  EXPECT_GE(count_events(m.events(), sim::EventType::kFaultMigrationRetry), 1u);
  EXPECT_EQ(count_events(m.events(), sim::EventType::kFaultMigrationAbort), 1u);
}

// --- NVLink-C2C degradation windows -------------------------------------------

TEST(Injection, LinkDegradeWindowSlowsMigration) {
  core::SystemConfig clean_cfg = small_config();
  core::System clean{clean_cfg};
  {
    core::Buffer b = clean.sys_malloc(1 << 20);
    for (std::uint64_t off = 0; off < b.bytes; off += 64 << 10) {
      (void)clean.resolve(b.va + off, mem::Node::kCpu);
    }
    clean.prefetch(b, 0, b.bytes, mem::Node::kGpu);
  }

  core::SystemConfig slow_cfg = small_config();
  slow_cfg.faults.enabled = true;
  slow_cfg.faults.link_degrade.push_back({.start = 0,
                                          .duration = sim::milliseconds(100),
                                          .bandwidth_factor = 4.0,
                                          .latency_factor = 4.0});
  core::System slow{slow_cfg};
  {
    core::Buffer b = slow.sys_malloc(1 << 20);
    for (std::uint64_t off = 0; off < b.bytes; off += 64 << 10) {
      (void)slow.resolve(b.va + off, mem::Node::kCpu);
    }
    slow.prefetch(b, 0, b.bytes, mem::Node::kGpu);
  }
  EXPECT_GT(slow.now(), clean.now());
  EXPECT_EQ(slow.stats().get("fault.link_degrade_windows"), 1u);
  EXPECT_GE(count_events(slow.events(), sim::EventType::kLinkDegradeBegin), 1u);
}

// --- ECC uncorrectable errors ---------------------------------------------------

TEST(Injection, EccRetirementShrinksHbm) {
  core::SystemConfig cfg = small_config();
  cfg.faults.enabled = true;
  cfg.faults.ecc_events.push_back({.time = 1, .bytes = 2ull << 20});
  core::System sys{cfg};
  sys.advance(sim::microseconds(1));
  sys.service_faults();
  const auto& gpu = sys.machine().frames(mem::Node::kGpu);
  EXPECT_EQ(gpu.retired_bytes(), 2ull << 20);
  EXPECT_EQ(gpu.capacity(), 6ull << 20);  // 8 MiB - 2 MiB retired
  EXPECT_EQ(sys.stats().get("fault.ecc_events"), 1u);
  EXPECT_EQ(sys.stats().get("fault.ecc_retired_bytes"), 2ull << 20);
  EXPECT_EQ(count_events(sys.events(), sim::EventType::kEccRetirement), 1u);
  // The shrunken HBM still serves allocations.
  core::Buffer b;
  EXPECT_EQ(sys.gpu_malloc_status(2ull << 20, b), Status::kSuccess);
}

TEST(Injection, EccRetirementEvictsManagedToVacateFrames) {
  core::SystemConfig cfg = small_config();
  cfg.faults.enabled = true;
  cfg.faults.ecc_events.push_back({.time = sim::milliseconds(1), .bytes = 2ull << 20});
  core::System sys{cfg};
  // Fill the GPU with managed data: 6 MiB resident + 1 MiB driver baseline
  // leaves only 1 MiB of free frames — less than the 2 MiB the ECC event
  // wants to retire, so retirement must first evict a block.
  core::Buffer b = sys.managed_malloc(6ull << 20);
  sys.kernel_begin("fill");
  for (std::uint64_t off = 0; off < b.bytes; off += 2ull << 20) {
    (void)sys.resolve(b.va + off, mem::Node::kGpu);
  }
  sys.kernel_end();
  ASSERT_LT(sys.machine().frames(mem::Node::kGpu).free_bytes(), 2ull << 20);

  sys.advance(sim::milliseconds(2));
  sys.service_faults();
  EXPECT_EQ(sys.machine().frames(mem::Node::kGpu).retired_bytes(), 2ull << 20);
  EXPECT_EQ(sys.stats().get("fault.ecc_retired_bytes"), 2ull << 20);
  EXPECT_EQ(sys.stats().get("fault.ecc_unretired_bytes"), 0u);
  EXPECT_GE(count_events(sys.events(), sim::EventType::kEviction), 1u);
  // The run survives: the evicted data is CPU-resident, not lost.
  const os::Vma* vma = sys.machine().address_space().find(b.va);
  ASSERT_NE(vma, nullptr);
  EXPECT_EQ(vma->resident_cpu_bytes + vma->resident_gpu_bytes, b.bytes);
}

// --- determinism under injection -----------------------------------------------

struct TimelineFingerprint {
  sim::Picos end_time = 0;
  std::uint64_t digest = 0;
};

TimelineFingerprint run_hotspot_under(const fault::FaultConfig& faults) {
  namespace bs = benchsupport;
  core::SystemConfig cfg = bs::rodinia_config(pagetable::kSystemPage64K, false);
  cfg.event_log = true;
  cfg.faults = faults;
  core::System sys{cfg};
  runtime::Runtime rt{sys};
  const auto r = bs::guarded_run([&] {
    return apps::run_hotspot(rt, apps::MemMode::kManaged,
                             bs::hotspot_config(bs::Scale::kDefault));
  });
  EXPECT_TRUE(r.ok());
  return {sys.now(), sys.events().digest(sys.now())};
}

TEST(Determinism, SameSeedSameTimelineUnderInjection) {
  std::vector<fault::FaultConfig> scenarios;
  {
    fault::FaultConfig denial;
    denial.enabled = true;
    denial.frame_alloc_denial_prob = 0.05;
    scenarios.push_back(denial);
  }
  {
    fault::FaultConfig flaky;
    flaky.enabled = true;
    flaky.migration_batch_fail_prob = 0.3;
    scenarios.push_back(flaky);
  }
  {
    fault::FaultConfig combined;
    combined.enabled = true;
    combined.frame_alloc_denial_prob = 0.02;
    combined.migration_batch_fail_prob = 0.1;
    combined.link_degrade.push_back({.start = sim::milliseconds(4),
                                     .duration = sim::milliseconds(10),
                                     .bandwidth_factor = 3.0,
                                     .latency_factor = 2.0});
    combined.ecc_events.push_back(
        {.time = sim::milliseconds(1), .bytes = 2ull << 20});
    scenarios.push_back(combined);
  }
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    const TimelineFingerprint a = run_hotspot_under(scenarios[i]);
    const TimelineFingerprint b = run_hotspot_under(scenarios[i]);
    EXPECT_EQ(a.end_time, b.end_time) << "scenario " << i;
    EXPECT_EQ(a.digest, b.digest) << "scenario " << i;
  }
}

TEST(Determinism, DifferentSeedDifferentDraws) {
  fault::FaultConfig f1;
  f1.enabled = true;
  f1.frame_alloc_denial_prob = 0.05;
  fault::FaultConfig f2 = f1;
  f2.seed = 0xdecafbadull;
  // Not required to differ in end time, but the injected decisions almost
  // surely diverge; assert only reproducibility per seed.
  const TimelineFingerprint a1 = run_hotspot_under(f1);
  const TimelineFingerprint a2 = run_hotspot_under(f1);
  const TimelineFingerprint b1 = run_hotspot_under(f2);
  EXPECT_EQ(a1.digest, a2.digest);
  EXPECT_EQ(b1.digest, run_hotspot_under(f2).digest);
}

}  // namespace
}  // namespace ghum
