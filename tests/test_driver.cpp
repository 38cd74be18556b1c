#include <gtest/gtest.h>

#include "driver/access_counter.hpp"
#include "driver/managed_engine.hpp"
#include "driver/migration_engine.hpp"
#include "driver/prefetcher.hpp"
#include "event_counts.hpp"
#include "os/page_fault.hpp"

namespace ghum {
namespace {

core::SystemConfig driver_config() {
  core::SystemConfig cfg;
  cfg.system_page_size = pagetable::kSystemPage64K;
  cfg.hbm_capacity = 8ull << 20;
  cfg.ddr_capacity = 64ull << 20;
  cfg.gpu_driver_baseline = 0;
  cfg.event_log = true;
  cfg.access_counter_migration = true;
  cfg.access_counter_threshold = 256;
  cfg.counter_region_bytes = 2ull << 20;
  cfg.counter_min_interval = 0;
  return cfg;
}

class DriverTest : public ::testing::Test {
 protected:
  core::Machine m{driver_config()};
  os::PageFaultHandler pf{m};
  driver::MigrationEngine mig{m};
  driver::AccessCounterEngine ac{m, mig};
  driver::ManagedEngine managed{m, mig, pf};

  os::Vma& system_vma(std::uint64_t bytes) {
    return m.address_space().create(bytes, os::AllocKind::kSystem, 65536, "sys",
                                    tenant::kNoTenant);
  }
  void populate_cpu(os::Vma& v) {
    for (std::uint64_t va = v.base; va < v.end(); va += 65536) {
      ASSERT_TRUE(m.map_system_page(v, va, mem::Node::kCpu));
    }
  }
};

TEST_F(DriverTest, MigrationMovesOnlyCpuResidentPagesUpToBudget) {
  os::Vma& v = system_vma(1 << 20);  // 16 pages of 64 KiB
  populate_cpu(v);
  const std::uint64_t moved =
      mig.migrate_system_range_to_gpu(v, v.base, v.size, 256 << 10);
  EXPECT_EQ(moved, 256u << 10);  // budget-limited
  EXPECT_EQ(v.resident_gpu_bytes, 256u << 10);
  EXPECT_EQ(count_events(m.events(), sim::EventType::kMigrationH2D), 1u);
}

TEST_F(DriverTest, MigrationStopsWhenGpuFull) {
  os::Vma& v = system_vma(12ull << 20);  // larger than the 8 MiB HBM
  populate_cpu(v);
  const std::uint64_t moved =
      mig.migrate_system_range_to_gpu(v, v.base, v.size, ~0ull);
  EXPECT_EQ(moved, 8ull << 20);
  EXPECT_EQ(m.frames(mem::Node::kGpu).free_bytes(), 0u);
}

TEST_F(DriverTest, MigrationChargesTimeAndTraffic) {
  os::Vma& v = system_vma(1 << 20);
  populate_cpu(v);
  const sim::Picos t0 = m.clock().now();
  (void)mig.migrate_system_range_to_gpu(v, v.base, v.size, ~0ull);
  EXPECT_GT(m.clock().now(), t0);
  EXPECT_EQ(m.c2c().bytes_moved(interconnect::Direction::kCpuToGpu), 1u << 20);
}

TEST_F(DriverTest, AccessCounterFiresAtThreshold) {
  os::Vma& v = system_vma(2 << 20);
  populate_cpu(v);
  ac.note_gpu_access(v, v.base, 255, 100);
  EXPECT_EQ(ac.notifications(), 0u);
  ac.note_gpu_access(v, v.base, 1, 101);
  EXPECT_EQ(ac.notifications(), 1u);
  // The whole 2 MiB region migrated.
  EXPECT_EQ(ac.migrated_h2d_bytes(), 2u << 20);
  EXPECT_EQ(count_events(m.events(), sim::EventType::kCounterNotification), 1u);
}

TEST_F(DriverTest, AccessCounterDisabledDoesNothing) {
  auto cfg = driver_config();
  cfg.access_counter_migration = false;
  core::Machine m2{cfg};
  driver::MigrationEngine mig2{m2};
  driver::AccessCounterEngine ac2{m2, mig2};
  os::Vma& v = m2.address_space().create(1 << 20, os::AllocKind::kSystem, 65536, "s",
                                         tenant::kNoTenant);
  for (std::uint64_t va = v.base; va < v.end(); va += 65536) {
    ASSERT_TRUE(m2.map_system_page(v, va, mem::Node::kCpu));
  }
  ac2.note_gpu_access(v, v.base, 100'000, 102);
  EXPECT_EQ(ac2.notifications(), 0u);
  EXPECT_EQ(ac2.migrated_h2d_bytes(), 0u);
}

TEST_F(DriverTest, AccessCounterRateLimitDelaysNextNotification) {
  auto cfg = driver_config();
  cfg.counter_min_interval = sim::milliseconds(1);
  core::Machine m2{cfg};
  driver::MigrationEngine mig2{m2};
  driver::AccessCounterEngine ac2{m2, mig2};
  os::Vma& v = m2.address_space().create(4ull << 20, os::AllocKind::kSystem, 65536, "s",
                                         tenant::kNoTenant);
  for (std::uint64_t va = v.base; va < v.end(); va += 65536) {
    ASSERT_TRUE(m2.map_system_page(v, va, mem::Node::kCpu));
  }
  ac2.note_gpu_access(v, v.base, 500, 103);
  // Rate-limited: same time window (distinct kernel, so only the interval
  // gates it).
  ac2.note_gpu_access(v, v.base, 500, 104);
  EXPECT_EQ(ac2.notifications(), 1u);
  m2.clock().advance(sim::milliseconds(2));
  ac2.note_gpu_access(v, v.base, 500, 104);
  EXPECT_EQ(ac2.notifications(), 2u);
}

TEST_F(DriverTest, CounterRegionsAreIndependent) {
  os::Vma& v = system_vma(4ull << 20);  // two 2 MiB regions
  populate_cpu(v);
  ac.note_gpu_access(v, v.base, 200, 105);
  ac.note_gpu_access(v, v.base + (2 << 20), 200, 106);
  EXPECT_EQ(ac.notifications(), 0u);  // neither region crossed 256
  ac.note_gpu_access(v, v.base, 56, 107);
  EXPECT_EQ(ac.notifications(), 1u);
}

TEST(Prefetcher, FaultBatchCoverage) {
  const driver::Prefetcher on{true};
  const driver::Prefetcher off{false};
  // Section 2.3.2: the tree prefetcher ramps 64K->128K->...->2M, so a
  // 2 MiB block costs 6 fault batches; without prefetching the driver
  // pays one batch per 64 KiB basic block (32).
  EXPECT_EQ(on.fault_batches(2 << 20), 6u);
  EXPECT_EQ(on.fault_batches(64 << 10), 1u);
  EXPECT_EQ(on.fault_batches(128 << 10), 2u);
  EXPECT_EQ(off.fault_batches(2 << 20), 32u);
  EXPECT_EQ(off.fault_batches(64 << 10), 1u);
  EXPECT_EQ(off.fault_batches((64 << 10) + 1), 2u);
}

class ManagedTest : public DriverTest {
 protected:
  os::Vma& managed_vma(std::uint64_t bytes) {
    return managed.allocate(bytes, "m");
  }
};

TEST_F(ManagedTest, GpuFirstTouchMapsWholeBlockOnGpu) {
  os::Vma& v = managed_vma(4 << 20);
  const auto r = managed.gpu_fault(v, v.base);
  EXPECT_EQ(r.node, mem::Node::kGpu);
  EXPECT_FALSE(r.remote_mapped);
  EXPECT_EQ(v.resident_gpu_bytes, 2u << 20);
  EXPECT_EQ(v.resident_cpu_bytes, 0u);
  EXPECT_EQ(managed.resident_blocks(), 1u);
}

TEST_F(ManagedTest, CpuResidentBlockMigratesOnGpuFault) {
  os::Vma& v = managed_vma(2 << 20);
  // CPU touches two pages first (first-touch on CPU).
  managed.cpu_fault(v, v.base);
  managed.cpu_fault(v, v.base + 65536);
  EXPECT_EQ(v.resident_cpu_bytes, 128u << 10);
  // GPU fault migrates the resident pages and maps the 2 MiB block.
  (void)managed.gpu_fault(v, v.base);
  EXPECT_EQ(v.resident_cpu_bytes, 0u);
  EXPECT_EQ(v.resident_gpu_bytes, 2u << 20);
  EXPECT_EQ(count_events(m.events(), sim::EventType::kMigrationH2D), 1u);
  EXPECT_EQ(event_bytes(m.events(), sim::EventType::kMigrationH2D), 128u << 10);
}

TEST_F(ManagedTest, CpuFaultOnGpuBlockMigratesBack) {
  os::Vma& v = managed_vma(2 << 20);
  (void)managed.gpu_fault(v, v.base);
  managed.cpu_fault(v, v.base + 4096);
  EXPECT_EQ(v.resident_gpu_bytes, 0u);
  EXPECT_EQ(v.resident_cpu_bytes, 2u << 20);
  EXPECT_EQ(managed.resident_blocks(), 0u);
  EXPECT_EQ(count_events(m.events(), sim::EventType::kMigrationD2H), 1u);
}

TEST_F(ManagedTest, LruEvictionUnderPressure) {
  // HBM = 8 MiB, so 4 blocks of 2 MiB fill it.
  os::Vma& v = managed_vma(16ull << 20);
  for (int b = 0; b < 4; ++b) {
    (void)managed.gpu_fault(v, v.base + (std::uint64_t{2} << 20) * b);
  }
  EXPECT_EQ(m.frames(mem::Node::kGpu).free_bytes(), 0u);
  // Touch block 0 so block 1 is LRU, then fault block 4.
  managed.touch_gpu_block(v.base);
  (void)managed.gpu_fault(v, v.base + (std::uint64_t{2} << 20) * 4);
  EXPECT_EQ(managed.evictions(), 1u);
  EXPECT_EQ(count_events(m.events(), sim::EventType::kEviction), 1u);
  // Block 1 was evicted; its pages are CPU-resident system pages now.
  EXPECT_EQ(v.resident_cpu_bytes, 2u << 20);
}

TEST_F(ManagedTest, ThrashGuardFlipsToRemoteMapping) {
  // Allocation twice the HBM: sustained faulting evicts its own blocks
  // until evicted bytes exceed the VMA size, then remote mapping kicks in
  // (the paper's oversubscribed steady state, Section 7).
  os::Vma& v = managed_vma(16ull << 20);
  bool saw_remote = false;
  for (int round = 0; round < 3 && !saw_remote; ++round) {
    for (std::uint64_t off = 0; off < v.size && !saw_remote; off += 2 << 20) {
      const auto r = managed.gpu_fault(v, v.base + off);
      saw_remote = r.remote_mapped;
    }
  }
  EXPECT_TRUE(saw_remote);
  EXPECT_TRUE(managed.remote_mode(v));
  EXPECT_GT(managed.evictions(), 0u);
}

TEST_F(ManagedTest, ExplicitPrefetchMigratesAndRearms) {
  os::Vma& v = managed_vma(4 << 20);
  managed.cpu_fault(v, v.base);  // some CPU residency
  managed.prefetch(v, v.base, v.size, mem::Node::kGpu);
  EXPECT_EQ(v.resident_gpu_bytes, 4u << 20);
  EXPECT_EQ(v.resident_cpu_bytes, 0u);
  EXPECT_FALSE(managed.remote_mode(v));
  EXPECT_EQ(count_events(m.events(), sim::EventType::kExplicitPrefetch), 1u);
  // Prefetch back to CPU.
  managed.prefetch(v, v.base, v.size, mem::Node::kCpu);
  EXPECT_EQ(v.resident_gpu_bytes, 0u);
  EXPECT_EQ(v.resident_cpu_bytes, 4u << 20);
}

TEST_F(ManagedTest, EnterRemoteModeEvacuatesResidentBlocks) {
  // UVM's thrashing mitigation pins the range to system memory: once the
  // guard trips, *everything* is CPU-resident and served over C2C
  // (paper Section 7's oversubscribed steady state).
  os::Vma& v = managed_vma(16ull << 20);
  for (int round = 0; round < 3 && !managed.remote_mode(v); ++round) {
    for (std::uint64_t off = 0; off < v.size && !managed.remote_mode(v);
         off += 2 << 20) {
      (void)managed.gpu_fault(v, v.base + off);
    }
  }
  ASSERT_TRUE(managed.remote_mode(v));
  EXPECT_EQ(v.resident_gpu_bytes, 0u);
  EXPECT_EQ(v.resident_cpu_bytes, v.size);
}

TEST_F(ManagedTest, PrefetchDoesNotEvictItsOwnBlocks) {
  // Prefetching a range larger than the GPU must keep the fitting prefix
  // resident rather than churning it out for the tail.
  os::Vma& v = managed_vma(16ull << 20);  // HBM is 8 MiB
  managed.prefetch(v, v.base, v.size, mem::Node::kGpu);
  // Exactly the fitting prefix (4 blocks of 2 MiB) is resident.
  EXPECT_EQ(v.resident_gpu_bytes, 8ull << 20);
  for (std::uint64_t off = 0; off < (8ull << 20); off += 2 << 20) {
    EXPECT_NE(m.gpu_pt().lookup(v.base + off), nullptr) << off;
  }
  EXPECT_EQ(m.gpu_pt().lookup(v.base + (8ull << 20)), nullptr);
  EXPECT_EQ(managed.evictions(), 0u);
}

TEST_F(ManagedTest, PartialPrefetchKeepsThrashGuardEngaged) {
  os::Vma& v = managed_vma(16ull << 20);
  // Trip the guard first.
  for (int round = 0; round < 3 && !managed.remote_mode(v); ++round) {
    for (std::uint64_t off = 0; off < v.size && !managed.remote_mode(v);
         off += 2 << 20) {
      (void)managed.gpu_fault(v, v.base + off);
    }
  }
  ASSERT_TRUE(managed.remote_mode(v));
  // Partial prefetch (range > HBM): fills what fits, guard stays on so
  // the remainder remote-maps instead of churning.
  managed.prefetch(v, v.base, v.size, mem::Node::kGpu);
  EXPECT_TRUE(managed.remote_mode(v));
  EXPECT_GT(v.resident_gpu_bytes, 0u);
  const auto r = managed.gpu_fault(v, v.base + (10ull << 20));
  EXPECT_TRUE(r.remote_mapped);
}

TEST_F(ManagedTest, ReadMostlyPrefetchDoesNotCollapseItsOwnReplicas) {
  os::Vma& v = managed_vma(16ull << 20);  // HBM is 8 MiB
  for (int round = 0; round < 3 && !managed.remote_mode(v); ++round) {
    for (std::uint64_t off = 0; off < v.size && !managed.remote_mode(v);
         off += 2 << 20) {
      (void)managed.gpu_fault(v, v.base + off);
    }
  }
  ASSERT_TRUE(managed.remote_mode(v));
  // A read-mostly prefetch larger than the GPU replicates the fitting
  // prefix and stops: making room for the tail must not collapse the
  // replicas this same call just built.
  v.read_mostly = true;
  managed.prefetch(v, v.base, v.size, mem::Node::kGpu);
  EXPECT_EQ(m.metrics().replicas_collapsed->value(), 0u);
  EXPECT_EQ(managed.replica_count(), 4u);
  EXPECT_EQ(v.resident_gpu_bytes, 8ull << 20);
  EXPECT_EQ(m.gpu_pt().lookup(v.base + (8ull << 20)), nullptr);
  EXPECT_TRUE(managed.remote_mode(v));
}

TEST_F(ManagedTest, FullySatisfiedPrefetchRearmsMigration) {
  os::Vma& v = managed_vma(16ull << 20);
  for (int round = 0; round < 3 && !managed.remote_mode(v); ++round) {
    for (std::uint64_t off = 0; off < v.size && !managed.remote_mode(v);
         off += 2 << 20) {
      (void)managed.gpu_fault(v, v.base + off);
    }
  }
  ASSERT_TRUE(managed.remote_mode(v));
  // Prefetching a sub-range that fits entirely is a fully satisfied hint:
  // it re-arms migration for the allocation.
  managed.prefetch(v, v.base, 4ull << 20, mem::Node::kGpu);
  EXPECT_FALSE(managed.remote_mode(v));
  EXPECT_EQ(v.resident_gpu_bytes, 4ull << 20);
}

TEST_F(ManagedTest, PureFirstTouchIsCheaperThanMigration) {
  // GPU first touch of an unpopulated block costs one fault batch; a
  // migrated block pays the prefetcher ramp plus the copy
  // (Section 5.1.2: managed memory initializes fast on the GPU).
  os::Vma& fresh = managed_vma(2 << 20);
  const sim::Picos t0 = m.clock().now();
  (void)managed.gpu_fault(fresh, fresh.base);
  const sim::Picos first_touch = m.clock().now() - t0;

  os::Vma& populated = managed_vma(2 << 20);
  for (std::uint64_t va = populated.base; va < populated.end(); va += 65536) {
    managed.cpu_fault(populated, va);
  }
  const sim::Picos t1 = m.clock().now();
  (void)managed.gpu_fault(populated, populated.base);
  const sim::Picos migration = m.clock().now() - t1;
  EXPECT_LT(first_touch, migration / 2);
}

TEST_F(ManagedTest, PrefetcherWarmsUpAcrossBlocks) {
  // First migrated block pays the full tree-prefetcher ramp; later blocks
  // of the same allocation migrate with fewer fault batches.
  os::Vma& v = managed_vma(6ull << 20);
  for (std::uint64_t va = v.base; va < v.end(); va += 65536) {
    managed.cpu_fault(v, va);
  }
  const sim::Picos t0 = m.clock().now();
  (void)managed.gpu_fault(v, v.base);
  const sim::Picos first = m.clock().now() - t0;
  const sim::Picos t1 = m.clock().now();
  (void)managed.gpu_fault(v, v.base + (2 << 20));
  const sim::Picos second = m.clock().now() - t1;
  EXPECT_LT(second, first);
}

TEST_F(ManagedTest, ReleaseGpuBlocksClearsResidency) {
  os::Vma& v = managed_vma(4 << 20);
  (void)managed.gpu_fault(v, v.base);
  (void)managed.gpu_fault(v, v.base + (2 << 20));
  managed.release_gpu_blocks(v);
  EXPECT_EQ(v.resident_gpu_bytes, 0u);
  EXPECT_EQ(managed.resident_blocks(), 0u);
  EXPECT_EQ(m.frames(mem::Node::kGpu).used(), 0u);
}

TEST_F(ManagedTest, EvictionBlockedByCpuExhaustionDegradesToRemote) {
  // Leave only 1 MiB of CPU frames: less than one 2 MiB block, so eviction
  // writeback has nowhere to land.
  os::Vma& cfill = system_vma(63ull << 20);
  populate_cpu(cfill);
  // Fill all 8 MiB of HBM with managed blocks (driver baseline is 0 here).
  os::Vma& a = managed_vma(8ull << 20);
  for (std::uint64_t off = 0; off < a.size; off += 2ull << 20) {
    (void)managed.gpu_fault(a, a.base + off);
  }
  ASSERT_EQ(m.frames(mem::Node::kGpu).free_bytes(), 0u);
  // A new managed fault needs GPU room, but every eviction candidate is
  // blocked by the exhausted CPU; the engine degrades to a coherent remote
  // CPU mapping instead of terminating.
  os::Vma& b = managed_vma(2ull << 20);
  const auto r = managed.gpu_fault(b, b.base);
  EXPECT_EQ(r.node, mem::Node::kCpu);
  EXPECT_TRUE(r.remote_mapped);
  EXPECT_GE(m.stats().get("driver.managed.eviction_blocked"), 1u);
  EXPECT_EQ(managed.evictions(), 0u);
  // The original working set is untouched.
  EXPECT_EQ(a.resident_gpu_bytes, 8ull << 20);
}

}  // namespace
}  // namespace ghum
