#include <gtest/gtest.h>

#include "core/machine.hpp"
#include "event_counts.hpp"
#include "fault/status.hpp"
#include "os/address_space.hpp"
#include "os/page_fault.hpp"
#include "os/system_allocator.hpp"

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

TEST(AddressSpace, CreateFindDestroy) {
  os::AddressSpace as;
  os::Vma& v = as.create(1000, os::AllocKind::kSystem, 4096, "a", tenant::kNoTenant);
  EXPECT_EQ(v.size, 1000u);
  EXPECT_EQ(v.base % 4096, 0u);
  EXPECT_EQ(as.find(v.base + 500), &v);
  EXPECT_EQ(as.find(v.base + 1000), nullptr);  // one past the end
  EXPECT_EQ(as.find_exact(v.base), &v);
  EXPECT_EQ(as.find_exact(v.base + 1), nullptr);
  as.destroy(v.base);
  EXPECT_EQ(as.vma_count(), 0u);
}

TEST(AddressSpace, VmasNeverSharePagesAtAnySupportedSize) {
  os::AddressSpace as;
  os::Vma& a = as.create(10, os::AllocKind::kSystem, 4096, "a", tenant::kNoTenant);
  os::Vma& b = as.create(10, os::AllocKind::kSystem, 4096, "b", tenant::kNoTenant);
  // Even at the largest page granularity (2 MiB), the two allocations
  // cannot land in the same page.
  EXPECT_GE(b.base - a.end(), pagetable::kGpuPageSize);
}

TEST(AddressSpace, HostBackingIsPerVmaAndWritable) {
  os::AddressSpace as;
  os::Vma& v = as.create(64, os::AllocKind::kSystem, 4096, "a", tenant::kNoTenant);
  *v.host_ptr(v.base) = std::byte{0x5a};
  *v.host_ptr(v.base + 63) = std::byte{0xa5};
  EXPECT_EQ(*v.host_ptr(v.base), std::byte{0x5a});
}

TEST(AddressSpace, RssFollowsResidencyDeltas) {
  os::AddressSpace as;
  os::Vma& v = as.create(1 << 20, os::AllocKind::kSystem, 4096, "a", tenant::kNoTenant);
  as.note_resident_delta(v, 4096, 0);
  as.note_resident_delta(v, 4096, 65536);
  EXPECT_EQ(as.rss_bytes(), 8192u);
  EXPECT_EQ(v.resident_cpu_bytes, 8192u);
  EXPECT_EQ(v.resident_gpu_bytes, 65536u);
  as.note_resident_delta(v, -4096, 0);
  EXPECT_EQ(as.rss_bytes(), 4096u);
}

TEST(AddressSpace, InvalidCreateArguments) {
  os::AddressSpace as;
  EXPECT_THROW(as.create(0, os::AllocKind::kSystem, 4096, "z", tenant::kNoTenant),
               std::invalid_argument);
  EXPECT_THROW(as.create(10, os::AllocKind::kSystem, 3, "z", tenant::kNoTenant),
               std::invalid_argument);
}

class FaultTest : public ::testing::Test {
 protected:
  core::Machine m{small_config()};
  os::PageFaultHandler pf{m};
};

TEST_F(FaultTest, CpuFirstTouchPlacesOnCpu) {
  os::Vma& v = m.address_space().create(1 << 20, os::AllocKind::kSystem, 65536, "a",
                                        tenant::kNoTenant);
  const sim::Picos before = m.clock().now();
  EXPECT_EQ(pf.first_touch(v, v.base, mem::Node::kCpu), mem::Node::kCpu);
  EXPECT_GT(m.clock().now(), before);
  EXPECT_EQ(v.resident_cpu_bytes, 65536u);
  EXPECT_EQ(count_events(m.events(), sim::EventType::kCpuFirstTouchFault), 1u);
}

TEST_F(FaultTest, GpuFirstTouchPlacesOnGpuAndCostsMore) {
  os::Vma& v = m.address_space().create(1 << 20, os::AllocKind::kSystem, 65536, "a",
                                        tenant::kNoTenant);
  const sim::Picos t0 = m.clock().now();
  (void)pf.first_touch(v, v.base, mem::Node::kCpu);
  const sim::Picos cpu_cost = m.clock().now() - t0;
  const sim::Picos t1 = m.clock().now();
  EXPECT_EQ(pf.first_touch(v, v.base + 65536, mem::Node::kGpu), mem::Node::kGpu);
  const sim::Picos gpu_cost = m.clock().now() - t1;
  // Section 5.1.2: GPU-origin replayable faults are heavier than CPU minor
  // faults. Both share the page-clearing cost; the handling component
  // differs by the configured ratio.
  EXPECT_GT(gpu_cost, cpu_cost);
  const auto& costs = m.config().costs;
  EXPECT_EQ(gpu_cost - cpu_cost, costs.gpu_replayable_fault - costs.cpu_minor_fault);
  EXPECT_EQ(v.resident_gpu_bytes, 65536u);
}

TEST_F(FaultTest, GpuFirstTouchFallsBackToCpuWhenHbmFull) {
  // Exhaust the GPU (8 MiB capacity, 1 MiB baseline -> 7 MiB free).
  os::Vma& filler =
      m.address_space().create(7ull << 20, os::AllocKind::kGpuOnly, 1 << 21, "f",
                               tenant::kNoTenant);
  for (std::uint64_t b = filler.base; b < filler.end(); b += 2 << 20) {
    ASSERT_TRUE(m.map_gpu_block(filler, b));
  }
  os::Vma& v = m.address_space().create(1 << 20, os::AllocKind::kSystem, 65536, "a",
                                        tenant::kNoTenant);
  // System memory never evicts: the fault falls back to CPU placement
  // (Section 7: data stays on CPU and is accessed over C2C).
  EXPECT_EQ(pf.first_touch(v, v.base, mem::Node::kGpu), mem::Node::kCpu);
}

TEST_F(FaultTest, HostRegisterPopulatesAllPages) {
  os::Vma& v = m.address_space().create(512 << 10, os::AllocKind::kSystem, 65536, "a",
                                        tenant::kNoTenant);
  (void)pf.first_touch(v, v.base, mem::Node::kCpu);  // one page pre-existing
  EXPECT_TRUE(pf.host_register(v));
  EXPECT_TRUE(v.host_registered);
  EXPECT_EQ(v.resident_cpu_bytes, 512u << 10);
  EXPECT_EQ(m.stats().get("os.host_register.pages"), 7u);  // 8 pages - 1
}

TEST_F(FaultTest, FirstTouchThrowsStatusWhenBothNodesFull) {
  // Fill the GPU (8 MiB capacity minus the 1 MiB driver baseline).
  os::Vma& gfill =
      m.address_space().create(7ull << 20, os::AllocKind::kGpuOnly, 1 << 21, "g",
                               tenant::kNoTenant);
  for (std::uint64_t b = gfill.base; b < gfill.end(); b += 2 << 20) {
    ASSERT_TRUE(m.map_gpu_block(gfill, b));
  }
  // Fill all 64 MiB of DDR.
  os::Vma& cfill =
      m.address_space().create(64ull << 20, os::AllocKind::kSystem, 65536, "c",
                               tenant::kNoTenant);
  for (std::uint64_t va = cfill.base; va < cfill.end(); va += 65536) {
    ASSERT_TRUE(m.map_system_page(cfill, va, mem::Node::kCpu));
  }
  // System memory has nowhere left to place the page: the fault surfaces
  // as a Status-carrying error (the process-kill of a real OOM), not an
  // uncontrolled crash or a silent wrong placement.
  os::Vma& v = m.address_space().create(1 << 20, os::AllocKind::kSystem, 65536, "a",
                                        tenant::kNoTenant);
  try {
    (void)pf.first_touch(v, v.base, mem::Node::kCpu);
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kErrorOutOfMemory);
  }
  EXPECT_GE(m.stats().get("os.fault.oom"), 1u);
  EXPECT_GE(count_events(m.events(), sim::EventType::kOutOfMemory), 1u);
}

TEST_F(FaultTest, HostRegisterPartialWhenCpuExhausted) {
  // Leave exactly two free 64 KiB CPU pages.
  os::Vma& cfill = m.address_space().create((64ull << 20) - (128 << 10),
                                            os::AllocKind::kSystem, 65536, "c",
                                            tenant::kNoTenant);
  for (std::uint64_t va = cfill.base; va < cfill.end(); va += 65536) {
    ASSERT_TRUE(m.map_system_page(cfill, va, mem::Node::kCpu));
  }
  os::Vma& v = m.address_space().create(256 << 10, os::AllocKind::kSystem, 65536, "a",
                                        tenant::kNoTenant);
  // Registration maps what fits and reports the shortfall instead of
  // terminating; the VMA is not marked registered.
  EXPECT_FALSE(pf.host_register(v));
  EXPECT_FALSE(v.host_registered);
  EXPECT_EQ(v.resident_cpu_bytes, 128u << 10);  // the two pages that fit
  EXPECT_GE(m.stats().get("os.host_register.partial"), 1u);
}

class AllocatorTest : public ::testing::Test {
 protected:
  core::Machine m{small_config()};
  os::PageFaultHandler pf{m};
  os::SystemAllocator alloc{m};
};

TEST_F(AllocatorTest, MallocIsLazy) {
  os::Vma& v = alloc.allocate(4 << 20, "a");
  EXPECT_EQ(v.resident_cpu_bytes, 0u);
  EXPECT_EQ(m.system_pt().mapped_pages(), 0u);
  EXPECT_EQ(count_events(m.events(), sim::EventType::kAllocation), 1u);
}

TEST_F(AllocatorTest, PinnedIsEager) {
  os::Vma& v = alloc.allocate_pinned(256 << 10, "p");
  EXPECT_EQ(v.resident_cpu_bytes, 256u << 10);
  EXPECT_EQ(v.kind, os::AllocKind::kPinnedHost);
}

TEST_F(AllocatorTest, DeallocTearsDownOnlyPresentPages) {
  os::Vma& v = alloc.allocate(1 << 20, "a");
  (void)pf.first_touch(v, v.base, mem::Node::kCpu);
  (void)pf.first_touch(v, v.base + 65536, mem::Node::kCpu);
  alloc.deallocate(v);
  EXPECT_EQ(m.stats().get("os.dealloc.pages"), 2u);
  EXPECT_EQ(m.address_space().vma_count(), 0u);
  EXPECT_EQ(m.frames(mem::Node::kCpu).used(), 0u);
}

TEST_F(AllocatorTest, DeallocCostScalesWithPresentPages) {
  os::Vma& a = alloc.allocate(2 << 20, "a");
  for (std::uint64_t va = a.base; va < a.end(); va += 65536) {
    (void)pf.first_touch(a, va, mem::Node::kCpu);
  }
  const sim::Picos t0 = m.clock().now();
  alloc.deallocate(a);
  const sim::Picos full = m.clock().now() - t0;

  os::Vma& b = alloc.allocate(2 << 20, "b");
  const sim::Picos t1 = m.clock().now();
  alloc.deallocate(b);
  const sim::Picos empty = m.clock().now() - t1;
  EXPECT_GT(full, empty);
}

TEST_F(AllocatorTest, PinnedAllocationUnwindsOnCpuExhaustion) {
  // Leave one free 64 KiB CPU page — not enough for a 256 KiB pinned range.
  os::Vma& cfill = m.address_space().create((64ull << 20) - (64 << 10),
                                            os::AllocKind::kSystem, 65536, "c",
                                            tenant::kNoTenant);
  for (std::uint64_t va = cfill.base; va < cfill.end(); va += 65536) {
    ASSERT_TRUE(m.map_system_page(cfill, va, mem::Node::kCpu));
  }
  const std::uint64_t free_before = m.frames(mem::Node::kCpu).free_bytes();
  const std::size_t vmas_before = m.address_space().vma_count();
  try {
    (void)alloc.allocate_pinned(256 << 10, "p");
    FAIL() << "expected StatusError";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kErrorMemoryAllocation);
  }
  // Fully unwound: no leaked frames, no half-populated VMA left behind.
  EXPECT_EQ(m.frames(mem::Node::kCpu).free_bytes(), free_before);
  EXPECT_EQ(m.address_space().vma_count(), vmas_before);
}

TEST(Machine, MoveSystemPageKeepsLedgersConsistent) {
  core::Machine m{small_config()};
  os::Vma& v = m.address_space().create(1 << 20, os::AllocKind::kSystem, 65536, "a",
                                        tenant::kNoTenant);
  ASSERT_TRUE(m.map_system_page(v, v.base, mem::Node::kCpu));
  const std::uint64_t cpu_used = m.frames(mem::Node::kCpu).used();
  const std::uint64_t gpu_used = m.frames(mem::Node::kGpu).used();
  const std::uint64_t epoch = m.epoch();
  ASSERT_TRUE(m.move_system_page(v, v.base, mem::Node::kGpu));
  EXPECT_EQ(m.frames(mem::Node::kCpu).used(), cpu_used - 65536);
  EXPECT_EQ(m.frames(mem::Node::kGpu).used(), gpu_used + 65536);
  EXPECT_EQ(v.resident_cpu_bytes, 0u);
  EXPECT_EQ(v.resident_gpu_bytes, 65536u);
  EXPECT_GT(m.epoch(), epoch);
}

TEST(Machine, GpuBlockBytesClipsToVmaEnd) {
  core::Machine m{small_config()};
  os::Vma& v = m.address_space().create((2 << 20) + 4096, os::AllocKind::kManaged,
                                        2 << 20, "a", tenant::kNoTenant);
  EXPECT_EQ(m.gpu_block_bytes(v, v.base), 2u << 20);
  EXPECT_EQ(m.gpu_block_bytes(v, v.base + (2 << 20)), 4096u);
}

TEST(Machine, DoubleMapThrows) {
  core::Machine m{small_config()};
  os::Vma& v = m.address_space().create(1 << 20, os::AllocKind::kSystem, 65536, "a",
                                        tenant::kNoTenant);
  ASSERT_TRUE(m.map_system_page(v, v.base, mem::Node::kCpu));
  EXPECT_THROW((void)m.map_system_page(v, v.base, mem::Node::kCpu), std::logic_error);
}

}  // namespace
}  // namespace ghum
