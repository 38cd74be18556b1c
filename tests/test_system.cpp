#include <gtest/gtest.h>

#include <fstream>
#include <string>

#include "benchsupport/scenarios.hpp"
#include "core/system.hpp"
#include "profile/tracer.hpp"

namespace ghum {
namespace {

core::SystemConfig sys_config(std::uint64_t page = pagetable::kSystemPage64K) {
  core::SystemConfig cfg;
  cfg.system_page_size = page;
  cfg.hbm_capacity = 8ull << 20;
  cfg.ddr_capacity = 64ull << 20;
  cfg.gpu_driver_baseline = 1ull << 20;
  cfg.event_log = true;
  return cfg;
}

TEST(System, RejectsUnsupportedPageSize) {
  core::SystemConfig cfg = sys_config();
  cfg.system_page_size = 16 << 10;
  EXPECT_THROW(core::System{cfg}, std::invalid_argument);
}

TEST(System, ContextInitChargedOnceAtFirstCudaCall) {
  core::System sys{sys_config()};
  EXPECT_FALSE(sys.gpu_context_initialized());
  // malloc() is NOT a CUDA call: no context init.
  (void)sys.sys_malloc(1 << 20);
  EXPECT_FALSE(sys.gpu_context_initialized());
  const sim::Picos t0 = sys.now();
  (void)sys.managed_malloc(1 << 20);
  EXPECT_TRUE(sys.gpu_context_initialized());
  EXPECT_GE(sys.now() - t0, sys.config().costs.context_init);
  // Second CUDA call: no second charge.
  const sim::Picos t1 = sys.now();
  (void)sys.gpu_malloc(1 << 20);
  EXPECT_LT(sys.now() - t1, sys.config().costs.context_init);
}

TEST(System, SystemVersionPaysContextInitInFirstKernel) {
  // Paper Section 4: without CUDA allocations, the first kernel launch
  // implicitly initializes the GPU context.
  core::System sys{sys_config()};
  (void)sys.sys_malloc(1 << 20);
  sys.kernel_begin("k");
  const auto& rec = sys.kernel_end();
  EXPECT_GE(rec.duration, sys.config().costs.context_init);
}

TEST(System, GpuMallocFailsWithBadAllocWhenFull) {
  core::System sys{sys_config()};
  (void)sys.gpu_malloc(6ull << 20);  // 7 MiB free after baseline
  EXPECT_THROW((void)sys.gpu_malloc(4ull << 20), std::bad_alloc);
  // Failed allocation must not leak frames.
  EXPECT_GE(sys.gpu_free_bytes(), 1ull << 20);
}

TEST(System, ResolveOutsideAnyAllocationThrows) {
  core::System sys{sys_config()};
  EXPECT_THROW((void)sys.resolve(0xdeadbeef, mem::Node::kCpu), std::out_of_range);
}

TEST(System, CpuAccessToGpuOnlyThrows) {
  core::System sys{sys_config()};
  core::Buffer b = sys.gpu_malloc(1 << 20);
  EXPECT_THROW((void)sys.resolve(b.va, mem::Node::kCpu), std::logic_error);
}

TEST(System, FirstTouchPlacementFollowsOrigin) {
  core::System sys{sys_config()};
  core::Buffer b = sys.sys_malloc(4 << 20);
  const auto cpu_view = sys.resolve(b.va, mem::Node::kCpu);
  EXPECT_EQ(cpu_view.node, mem::Node::kCpu);
  sys.kernel_begin("k");
  const auto gpu_view = sys.resolve(b.va + (1 << 20), mem::Node::kGpu);
  EXPECT_EQ(gpu_view.node, mem::Node::kGpu);
  (void)sys.kernel_end();
}

TEST(System, SystemPageViewBoundsAreSystemPages) {
  core::System sys{sys_config(pagetable::kSystemPage4K)};
  core::Buffer b = sys.sys_malloc(1 << 20);
  const auto v = sys.resolve(b.va + 5000, mem::Node::kCpu);
  EXPECT_EQ(v.page_base, b.va + 4096);
  EXPECT_EQ(v.page_end, b.va + 8192);
}

TEST(System, ManagedGpuViewSpansWholeBlock) {
  core::System sys{sys_config()};
  core::Buffer b = sys.managed_malloc(4 << 20);
  sys.kernel_begin("k");
  const auto v = sys.resolve(b.va + 100, mem::Node::kGpu);
  (void)sys.kernel_end();
  EXPECT_EQ(v.node, mem::Node::kGpu);
  EXPECT_EQ(v.page_base, b.va);
  EXPECT_EQ(v.page_end, b.va + (2 << 20));
}

TEST(System, CommitChargesRemoteTrafficOverC2C) {
  core::System sys{sys_config()};
  core::Buffer b = sys.sys_malloc(1 << 20);
  // CPU first touch -> CPU-resident.
  const auto cpu_view = sys.resolve(b.va, mem::Node::kCpu);
  sys.commit(cpu_view, 64 << 10, 0, 1024, 16384);
  sys.kernel_begin("k");
  const auto gpu_view = sys.resolve(b.va, mem::Node::kGpu);
  EXPECT_EQ(gpu_view.node, mem::Node::kCpu);  // stays CPU-resident
  const std::uint64_t h2d0 =
      sys.machine().c2c().bytes_moved(interconnect::Direction::kCpuToGpu);
  sys.commit(gpu_view, 64 << 10, 0, 512, 16384);
  const std::uint64_t h2d1 =
      sys.machine().c2c().bytes_moved(interconnect::Direction::kCpuToGpu);
  const auto& rec = sys.kernel_end();
  EXPECT_EQ(h2d1 - h2d0, 512u * 128u);  // GPU cacheline granularity
  EXPECT_EQ(rec.traffic.c2c_read_bytes, 512u * 128u);
  EXPECT_EQ(rec.traffic.l1l2_bytes, 512u * 128u);
}

TEST(System, CommitChargesLocalHbmForGpuResidentData) {
  core::System sys{sys_config()};
  core::Buffer b = sys.gpu_malloc(1 << 20);
  sys.kernel_begin("k");
  const auto v = sys.resolve(b.va, mem::Node::kGpu);
  sys.commit(v, 1 << 20, 0, (1 << 20) / 128, 1 << 18);
  const auto& rec = sys.kernel_end();
  EXPECT_EQ(rec.traffic.hbm_read_bytes, 1u << 20);
  EXPECT_EQ(rec.traffic.c2c_read_bytes, 0u);
}

TEST(System, SparseAccessIsLineAmplified) {
  core::System sys{sys_config()};
  core::Buffer b = sys.sys_malloc(1 << 20);
  sys.host_phase_begin("sparse");
  const auto v = sys.resolve(b.va, mem::Node::kCpu);
  // 100 separate 4-byte reads on distinct lines: charged 100 * 64 B of
  // DDR traffic (read amplification for irregular patterns).
  sys.commit(v, 400, 0, 100, 100);
  const auto& rec = sys.host_phase_end();
  EXPECT_EQ(rec.traffic.ddr_read_bytes, 100u * 64u);
}

TEST(System, KernelComputeFloorExtendsShortKernels) {
  core::System sys{sys_config()};
  sys.ensure_gpu_context();
  sys.kernel_begin("compute_bound");
  const auto& rec = sys.kernel_end(/*flop_work=*/30e9);  // 1 ms at 30 TFLOPS
  EXPECT_NEAR(sim::to_seconds(rec.duration), 1e-3,
              1e-4 + sim::to_seconds(sys.config().costs.kernel_launch));
}

TEST(System, MemcpyMovesRealBytesAndChargesLink) {
  core::System sys{sys_config()};
  core::Buffer host = sys.sys_malloc(64 << 10);
  core::Buffer dev = sys.gpu_malloc(64 << 10);
  auto* p = reinterpret_cast<std::uint32_t*>(host.host);
  for (int i = 0; i < 1024; ++i) p[i] = 0xabcd0000u + static_cast<std::uint32_t>(i);
  const sim::Picos t0 = sys.now();
  sys.memcpy_buffers(dev, 0, host, 0, 64 << 10);
  EXPECT_GT(sys.now(), t0);
  EXPECT_EQ(reinterpret_cast<std::uint32_t*>(dev.host)[1023], 0xabcd0000u + 1023);
  EXPECT_GE(sys.machine().c2c().bytes_moved(interconnect::Direction::kCpuToGpu),
            std::uint64_t{64} << 10);
}

TEST(System, MemcpyOutOfRangeThrows) {
  core::System sys{sys_config()};
  core::Buffer a = sys.sys_malloc(1 << 10);
  core::Buffer b = sys.sys_malloc(1 << 10);
  EXPECT_THROW(sys.memcpy_buffers(a, 512, b, 0, 1 << 10), std::out_of_range);
}

TEST(System, FreeBufferReleasesEverything) {
  core::System sys{sys_config()};
  core::Buffer b = sys.managed_malloc(4 << 20);
  sys.kernel_begin("k");
  const auto v = sys.resolve(b.va, mem::Node::kGpu);
  (void)v;
  (void)sys.kernel_end();
  const std::uint64_t used_before = sys.machine().gpu_used_bytes();
  EXPECT_GT(used_before, sys.config().gpu_driver_baseline);
  sys.free_buffer(b);
  EXPECT_EQ(sys.machine().gpu_used_bytes(), sys.config().gpu_driver_baseline);
  EXPECT_FALSE(b.valid());
}

TEST(System, PhasesCannotNest) {
  core::System sys{sys_config()};
  sys.ensure_gpu_context();
  sys.kernel_begin("a");
  EXPECT_THROW(sys.kernel_begin("b"), std::logic_error);
  (void)sys.kernel_end();
  EXPECT_THROW((void)sys.kernel_end(), std::logic_error);
}

TEST(System, PinnedMemoryIsGpuAccessibleWithoutMigration) {
  core::System sys{sys_config()};
  core::Buffer pin = sys.pinned_malloc(128 << 10);
  sys.kernel_begin("k");
  const auto v = sys.resolve(pin.va, mem::Node::kGpu);
  sys.commit(v, 4096, 0, 32, 1024);
  const auto& rec = sys.kernel_end();
  EXPECT_EQ(v.node, mem::Node::kCpu);
  EXPECT_GT(rec.traffic.c2c_read_bytes, 0u);
  // Still resident on the CPU, nothing migrated.
  EXPECT_EQ(sys.machine().address_space().find(pin.va)->resident_cpu_bytes,
            std::uint64_t{128} << 10);
}

TEST(System, EpochBumpsOnResidencyChanges) {
  core::System sys{sys_config()};
  core::Buffer b = sys.sys_malloc(1 << 20);
  const std::uint64_t e0 = sys.epoch();
  (void)sys.resolve(b.va, mem::Node::kCpu);  // first touch maps a page
  EXPECT_GT(sys.epoch(), e0);
}

TEST(System, PrefetchSystemBufferMigratesPages) {
  core::System sys{sys_config()};
  core::Buffer b = sys.sys_malloc(512 << 10);
  for (std::uint64_t off = 0; off < b.bytes; off += 64 << 10) {
    (void)sys.resolve(b.va + off, mem::Node::kCpu);
  }
  sys.prefetch(b, 0, b.bytes, mem::Node::kGpu);
  EXPECT_EQ(sys.machine().address_space().find(b.va)->resident_gpu_bytes,
            std::uint64_t{512} << 10);
}

TEST(System, SummaryListsCountersAndUsage) {
  core::System sys{sys_config()};
  core::Buffer b = sys.sys_malloc(1 << 20);
  (void)sys.resolve(b.va, mem::Node::kCpu);
  const std::string s = sys.summary();
  EXPECT_NE(s.find("simulated time"), std::string::npos);
  EXPECT_NE(s.find("os.fault.cpu_first_touch"), std::string::npos);
  EXPECT_NE(s.find("cpu rss"), std::string::npos);
}

TEST(System, AutoNumaHintFaultsChargedOncePerScanGeneration) {
  core::SystemConfig cfg = sys_config();
  cfg.autonuma_balancing = true;
  cfg.autonuma_scan_period = sim::milliseconds(1);
  core::System sys{cfg};
  core::Buffer b = sys.sys_malloc(1 << 20);
  (void)sys.resolve(b.va, mem::Node::kCpu);  // first touch
  const std::uint64_t f0 = sys.stats().get("os.numa_hint_faults");
  EXPECT_GE(f0, 1u);
  // Same scan window: no second hint fault for the same page.
  (void)sys.resolve(b.va + 64, mem::Node::kCpu);
  EXPECT_EQ(sys.stats().get("os.numa_hint_faults"), f0);
  // Next scan window: the scanner has unmapped it again.
  sys.advance(sim::milliseconds(2));
  (void)sys.resolve(b.va, mem::Node::kCpu);
  EXPECT_EQ(sys.stats().get("os.numa_hint_faults"), f0 + 1);
}

TEST(System, HintFaultedPageSplitsResidencyRun) {
  // A hint fault bumps one page's AutoNUMA generation, which must split
  // the extent it lived in: a residency run may not coast over a page
  // that a per-page resolve would hint-fault on.
  core::SystemConfig cfg = sys_config();
  cfg.autonuma_balancing = true;
  cfg.autonuma_scan_period = sim::milliseconds(1);
  core::System sys{cfg};
  core::Buffer b = sys.sys_malloc(1 << 20);
  const std::uint64_t page = cfg.system_page_size;
  for (std::uint64_t off = 0; off < b.bytes; off += page) {
    (void)sys.resolve(b.va + off, mem::Node::kCpu);
  }
  const auto& pt = sys.machine().system_pt();
  EXPECT_EQ(pt.run_count(), 1u);  // uniform generation => one extent
  // Next scan window: hint-fault only the middle page.
  sys.advance(sim::milliseconds(2));
  (void)sys.resolve(b.va + 7 * page, mem::Node::kCpu);
  EXPECT_EQ(pt.run_count(), 3u);
  // The run from the base stops at the hint-faulted page even though node
  // and permissions match across the whole allocation.
  EXPECT_EQ(pt.resident_run_end(b.va, mem::Node::kCpu, b.va + b.bytes),
            b.va + 7 * page);
  // Touching the rest of the window catches the generations up and the
  // extent heals.
  for (std::uint64_t off = 0; off < b.bytes; off += page) {
    (void)sys.resolve(b.va + off, mem::Node::kCpu);
  }
  EXPECT_EQ(pt.run_count(), 1u);
}

TEST(System, AdvanceViewReresolvesWhenAFaultMovesPagesUnderIt) {
  // advance_view() services due faults before it translates. An ECC
  // retirement serviced there evicts managed blocks of the very run the
  // view published, so it must hand back to resolve() rather than carry
  // that run over. The charges of both calls are the same whenever the
  // allocation is still alive, so no timeline shows a stale run; this
  // looks at the run itself.
  core::SystemConfig cfg = sys_config();
  cfg.faults.enabled = true;
  cfg.faults.ecc_events = {{.time = sim::milliseconds(500), .bytes = 6ull << 20}};
  core::System sys{cfg};
  const core::Buffer b = sys.managed_malloc(2 * pagetable::kGpuPageSize);
  sys.prefetch(b, 0, b.bytes, mem::Node::kGpu);
  sys.kernel_begin("k");
  core::PageView view = sys.resolve(b.va, mem::Node::kGpu);
  ASSERT_EQ(view.node, mem::Node::kGpu);
  ASSERT_EQ(view.run_end, b.va + b.bytes);
  sys.advance(sim::milliseconds(600));  // the retirement falls due
  const std::uint64_t epoch = sys.epoch();
  EXPECT_FALSE(sys.advance_view(view, view.page_end));
  EXPECT_NE(sys.epoch(), epoch);
  EXPECT_EQ(sys.stats().get("fault.ecc_events"), 1u);
  EXPECT_EQ(sys.machine().gpu_pt().resident_bytes(mem::Node::kGpu), 0u);
  (void)sys.kernel_end();
}

TEST(System, AutoNumaDisabledByDefaultLikeThePaperTestbed) {
  core::System sys{sys_config()};
  core::Buffer b = sys.sys_malloc(1 << 20);
  (void)sys.resolve(b.va, mem::Node::kCpu);
  sys.advance(sim::milliseconds(5));
  (void)sys.resolve(b.va, mem::Node::kCpu);
  EXPECT_EQ(sys.stats().get("os.numa_hint_faults"), 0u);
}

TEST(System, AutoNumaGpuHintFaultIsHeavierThanCpuOne) {
  core::SystemConfig cfg = sys_config();
  cfg.autonuma_balancing = true;
  core::System sys{cfg};
  core::Buffer b = sys.sys_malloc(4 << 20);
  (void)sys.resolve(b.va, mem::Node::kCpu);  // CPU first touch + hint
  sys.advance(sim::milliseconds(2));
  const sim::Picos t0 = sys.now();
  (void)sys.resolve(b.va, mem::Node::kCpu);  // CPU hint fault
  const sim::Picos cpu_cost = sys.now() - t0;
  sys.advance(sim::milliseconds(2));
  sys.kernel_begin("k");
  const sim::Picos t1 = sys.now();
  (void)sys.resolve(b.va, mem::Node::kGpu);  // GPU hint fault (replayable)
  const sim::Picos gpu_cost = sys.now() - t1;
  (void)sys.kernel_end();
  EXPECT_GT(gpu_cost, cpu_cost);
}

TEST(System, WorkloadRecordsMigrationTrafficSeparately) {
  core::System sys{sys_config()};
  core::Buffer b = sys.managed_malloc(2 << 20);
  // CPU-populate, then fault from GPU inside a kernel: the migration bytes
  // must show up as migration traffic, not direct-access traffic.
  for (std::uint64_t off = 0; off < b.bytes; off += 64 << 10) {
    (void)sys.resolve(b.va + off, mem::Node::kCpu);
  }
  sys.kernel_begin("k");
  (void)sys.resolve(b.va, mem::Node::kGpu);
  const auto& rec = sys.kernel_end();
  EXPECT_EQ(rec.traffic.migration_h2d_bytes, 2u << 20);
  EXPECT_EQ(rec.traffic.c2c_read_bytes, 0u);
}

/// Resident-set size of this process in KiB; 0 where /proc is missing.
std::uint64_t vmrss_kb() {
  std::ifstream status{"/proc/self/status"};
  std::string key;
  while (status >> key) {
    if (key == "VmRSS:") {
      std::uint64_t kb = 0;
      status >> kb;
      return kb;
    }
  }
  return 0;
}

/// One page-granular pass over \p buf from \p origin: advance_view inside a
/// residency run, resolve at run boundaries, one commit per page.
void sweep_pages(core::System& sys, const core::Buffer& buf, mem::Node origin) {
  const std::uint64_t page = sys.config().system_page_size;
  core::PageView view;
  for (std::uint64_t va = buf.va; va < buf.va + buf.bytes; va += page) {
    if (!sys.advance_view(view, va)) view = sys.resolve(va, origin);
    sys.commit(view, 64, 64, 2, 2);
  }
}

TEST(System, FullScaleSweepStaysAFewExtentsInLittleHostMemory) {
  // The paper's unscaled machine (96 GB HBM / 480 GB LPDDR5X) hosting a
  // 33-qubit state vector (128 GiB, the largest oversubscribed Section 7
  // size below the 34-qubit run): CPU first touch, a prefetch until HBM
  // fills, then two GPU passes, about 6.3 M page visits in all.
  const std::uint64_t rss_before = vmrss_kb();
  constexpr std::uint64_t kFootprint = 16ull << 33;  // 2^33 complex<double>
  core::System sys{benchsupport::full_scale()};
  const core::Buffer state = sys.sys_malloc(kFootprint, "fullscale.state");
  sweep_pages(sys, state, mem::Node::kCpu);
  sys.prefetch(state, 0, kFootprint, mem::Node::kGpu);
  for (int pass = 0; pass < 2; ++pass) {
    sys.kernel_begin("fullscale.sweep");
    sweep_pages(sys, state, mem::Node::kGpu);
    (void)sys.kernel_end();
  }

  // A dense allocation split once by the HBM/DDR boundary is a handful of
  // extents; 64 leaves room for stray fragmentation but not for per-page
  // state (2 M pages).
  const auto& pt = sys.machine().system_pt();
  EXPECT_LE(pt.run_count(), 64u);
  EXPECT_GT(pt.resident_bytes(mem::Node::kGpu), 0u);
  EXPECT_EQ(pt.resident_bytes(mem::Node::kGpu) + pt.resident_bytes(mem::Node::kCpu),
            kFootprint);
  // Host memory grows by less than footprint/256 (512 MiB): the simulator
  // does not materialize the machine it models.
  const std::uint64_t rss_after = vmrss_kb();
  if (rss_before > 0) {
    const std::uint64_t growth = rss_after > rss_before ? rss_after - rss_before : 0;
    EXPECT_LT(growth * 1024, kFootprint / 256);
  }
}

}  // namespace
}  // namespace ghum
