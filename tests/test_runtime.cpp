#include <gtest/gtest.h>

#include "apps/qvsim.hpp"
#include "event_counts.hpp"
#include "runtime/runtime.hpp"

namespace ghum {
namespace {

core::SystemConfig rt_config() {
  core::SystemConfig cfg;
  cfg.system_page_size = pagetable::kSystemPage64K;
  cfg.hbm_capacity = 16ull << 20;
  cfg.ddr_capacity = 64ull << 20;
  cfg.gpu_driver_baseline = 1ull << 20;
  cfg.event_log = true;
  return cfg;
}

class RuntimeTest : public ::testing::Test {
 protected:
  core::System sys{rt_config()};
  runtime::Runtime rt{sys};
};

TEST_F(RuntimeTest, AllocationKindsMatchTable1) {
  core::Buffer sysb = rt.malloc_system(1 << 20);
  core::Buffer man = rt.malloc_managed(1 << 20);
  core::Buffer dev = rt.malloc_device(1 << 20);
  core::Buffer pin = rt.malloc_host(1 << 20);
  EXPECT_EQ(sysb.kind, os::AllocKind::kSystem);
  EXPECT_EQ(man.kind, os::AllocKind::kManaged);
  EXPECT_EQ(dev.kind, os::AllocKind::kGpuOnly);
  EXPECT_EQ(pin.kind, os::AllocKind::kPinnedHost);
}

TEST_F(RuntimeTest, MemcpyDirectionValidation) {
  core::Buffer h = rt.malloc_system(1 << 10);
  core::Buffer d = rt.malloc_device(1 << 10);
  EXPECT_NO_THROW(rt.memcpy(d, h, 1 << 10, runtime::CopyKind::kHostToDevice));
  EXPECT_NO_THROW(rt.memcpy(h, d, 1 << 10, runtime::CopyKind::kDeviceToHost));
  EXPECT_THROW(rt.memcpy(h, d, 1 << 10, runtime::CopyKind::kHostToDevice),
               std::invalid_argument);
  EXPECT_THROW(rt.memcpy(d, d, 1 << 10, runtime::CopyKind::kHostToHost),
               std::invalid_argument);
}

TEST_F(RuntimeTest, LaunchRecordsNamedKernel) {
  core::Buffer d = rt.malloc_device(1 << 12);
  const auto rec = rt.launch("my_kernel", 0, [&] {
    auto s = rt.device_span<int>(d);
    s.store(0, 42);
  });
  EXPECT_EQ(rec.name, "my_kernel");
  EXPECT_GT(rec.duration, 0);
  EXPECT_EQ(sys.workload().records().back().name, "my_kernel");
  EXPECT_EQ(reinterpret_cast<int*>(d.host)[0], 42);
}

TEST_F(RuntimeTest, HostPhaseUsesCpuComputeFloor) {
  const auto rec = rt.host_phase("init", /*flop_work=*/4e8, [] {});
  // 4e8 flops at 0.4 TFLOP/s = 1 ms.
  EXPECT_NEAR(sim::to_seconds(rec.duration), 1e-3, 1e-5);
}

TEST_F(RuntimeTest, DevicePropertiesReflectConfig) {
  const auto props = runtime::get_device_properties(sys);
  EXPECT_EQ(props.total_global_mem, 16ull << 20);
  EXPECT_EQ(props.system_page_size, pagetable::kSystemPage64K);
  EXPECT_TRUE(props.pageable_memory_access);   // ATS on Grace Hopper
  EXPECT_TRUE(props.concurrent_managed_access);
}

TEST_F(RuntimeTest, HostRegisterEliminatesGpuFirstTouchFaults) {
  core::Buffer b = rt.malloc_system(1 << 20);
  rt.host_register(b);
  (void)rt.launch("k", 0, [&] {
    auto s = rt.device_span<float>(b);
    for (std::size_t i = 0; i < s.size(); i += 16384) s.store(i, 1.0f);
  });
  EXPECT_EQ(sys.stats().get("os.fault.gpu_first_touch"), 0u);
}

TEST_F(RuntimeTest, WithoutHostRegisterGpuFirstTouchFaults) {
  core::Buffer b = rt.malloc_system(1 << 20);
  (void)rt.launch("k", 0, [&] {
    auto s = rt.device_span<float>(b);
    for (std::size_t i = 0; i < s.size(); i += 16384) s.store(i, 1.0f);
  });
  // 1 MiB at 64 KiB pages = 16 GPU-origin first-touch faults.
  EXPECT_EQ(sys.stats().get("os.fault.gpu_first_touch"), 16u);
}

TEST_F(RuntimeTest, AsyncMemcpyDefersTimeToStream) {
  core::Buffer h = rt.malloc_host(8 << 20);
  core::Buffer d = rt.malloc_device(8 << 20);
  runtime::Stream s;
  const sim::Picos t0 = sys.now();
  rt.memcpy_async(d, h, 8 << 20, runtime::CopyKind::kHostToDevice, s);
  // The clock barely moved (data is staged; time is on the stream).
  EXPECT_LT(sys.now() - t0, sim::microseconds(50));
  EXPECT_GT(s.ready_at(), sys.now());
  rt.stream_synchronize(s);
  // Now the full transfer time has been paid: 8 MiB at 375 GB/s ~ 22 us.
  EXPECT_GE(sys.now() - t0, sim::microseconds(20));
  EXPECT_TRUE(s.idle_at(sys.now()));
}

TEST_F(RuntimeTest, AsyncCopyOverlapsWithInterveningWork) {
  core::Buffer h = rt.malloc_host(4 << 20);
  core::Buffer d = rt.malloc_device(4 << 20);
  core::Buffer other = rt.malloc_device(4 << 20);
  auto run = [&](bool overlap) {
    runtime::Stream s;
    const sim::Picos t0 = sys.now();
    if (overlap) {
      rt.memcpy_async(d, h, 4 << 20, runtime::CopyKind::kHostToDevice, s);
    }
    (void)rt.launch("work", 0, [&] {  // local GPU work on another buffer
      auto sp = rt.device_span<float>(other);
      for (std::size_t i = 0; i < sp.size(); ++i) sp.store(i, 1.f);
    });
    if (!overlap) {
      rt.memcpy_async(d, h, 4 << 20, runtime::CopyKind::kHostToDevice, s);
    }
    rt.stream_synchronize(s);
    return sys.now() - t0;
  };
  const sim::Picos serial = run(false);
  const sim::Picos overlapped = run(true);
  EXPECT_LT(overlapped, serial);
}

TEST_F(RuntimeTest, AsyncCopyMovesDataAtIssue) {
  core::Buffer h = rt.malloc_host(1 << 12);
  core::Buffer d = rt.malloc_device(1 << 12);
  reinterpret_cast<int*>(h.host)[7] = 1234;
  runtime::Stream s;
  rt.memcpy_async(d, h, 1 << 12, runtime::CopyKind::kHostToDevice, s);
  // Sequential consistency: the simulator stages data immediately.
  EXPECT_EQ(reinterpret_cast<int*>(d.host)[7], 1234);
  rt.stream_synchronize(s);
}

TEST_F(RuntimeTest, StreamsAccumulateBackToBackTransfers) {
  core::Buffer h = rt.malloc_host(4 << 20);
  core::Buffer d = rt.malloc_device(4 << 20);
  runtime::Stream s;
  rt.memcpy_async(d, h, 4 << 20, runtime::CopyKind::kHostToDevice, s);
  const sim::Picos one = s.ready_at();
  rt.memcpy_async(h, d, 4 << 20, runtime::CopyKind::kDeviceToHost, s);
  EXPECT_GT(s.ready_at(), one);  // second transfer queued behind the first
  rt.stream_synchronize(s);
}

TEST_F(RuntimeTest, QvPipelinedAndSerialChunkingAgree) {
  // Both staging strategies must produce bit-identical statevectors, and
  // the pipelined one must be faster.
  auto run = [](bool pipelined) {
    core::SystemConfig mc;
    mc.system_page_size = pagetable::kSystemPage64K;
    mc.hbm_capacity = 2ull << 20;
    mc.ddr_capacity = 64ull << 20;
    mc.gpu_driver_baseline = 512 << 10;
    core::System sys{mc};
    runtime::Runtime rt{sys};
    apps::QvConfig cfg{.qubits = 13, .depth = 2, .seed = 21};
    cfg.pipelined = pipelined;
    const auto r = apps::run_qvsim(rt, apps::MemMode::kExplicit, cfg);
    return std::pair{r.checksum, r.times.compute_s};
  };
  const auto serial = run(false);
  const auto pipelined = run(true);
  EXPECT_EQ(serial.first, pipelined.first);
  EXPECT_LT(pipelined.second, serial.second);
}

TEST_F(RuntimeTest, StreamTimelineCrossingLinkDegradeWindow) {
  // An async copy issued *before* a fault-injected NVLink-C2C degradation
  // window, synchronized *inside* it: the copy is priced at issue time
  // (undegraded link), so the stream's ready_at matches a clean run; the
  // synchronize then advances the clock across the window boundary, the
  // injector's clock observer flips the link state, and transfers issued
  // from that point on pay the degraded bandwidth.
  auto run = [&](sim::Picos window_start) {
    core::SystemConfig cfg = rt_config();
    if (window_start > 0) {
      cfg.faults.enabled = true;
      cfg.faults.link_degrade.push_back({.start = window_start,
                                         .duration = sim::milliseconds(50),
                                         .bandwidth_factor = 4.0,
                                         .latency_factor = 2.0});
    }
    core::System sys{cfg};
    runtime::Runtime rt{sys};
    core::Buffer h = rt.malloc_host(8 << 20);
    core::Buffer d = rt.malloc_device(8 << 20);
    runtime::Stream s;
    const sim::Picos issue_at = sys.now();
    rt.memcpy_async(d, h, 8 << 20, runtime::CopyKind::kHostToDevice, s);
    const sim::Picos ready = s.ready_at();
    rt.stream_synchronize(s);
    // A second, synchronous copy issued after the window opened.
    const sim::Picos t0 = sys.now();
    rt.memcpy(d, h, 8 << 20, runtime::CopyKind::kHostToDevice);
    return std::tuple{issue_at, ready, sys.now() - t0,
                      count_events(sys.events(), sim::EventType::kLinkDegradeBegin)};
  };
  // Probe run (clean) to place the window strictly between the async
  // copy's issue point and its stream completion time.
  const auto clean = run(0);
  const sim::Picos mid =
      std::get<0>(clean) + (std::get<1>(clean) - std::get<0>(clean)) / 2;
  ASSERT_GT(mid, std::get<0>(clean));
  const auto faulty = run(mid);

  // Identical issue-time pricing: the copy was issued before the window,
  // so the stream's completion time is the clean run's even though the
  // timeline crosses into the degraded interval.
  EXPECT_EQ(std::get<1>(faulty), std::get<1>(clean));
  EXPECT_EQ(std::get<3>(faulty), 1u);  // observer recorded the window entry
  EXPECT_EQ(std::get<3>(clean), 0u);
  // The copy issued inside the window pays the 4x bandwidth division.
  EXPECT_GT(std::get<2>(faulty), 3 * std::get<2>(clean));
}

TEST_F(RuntimeTest, MemPrefetchManagedToGpuAndBack) {
  core::Buffer b = rt.malloc_managed(4 << 20);
  sys.host_phase_begin("touch");
  {
    auto s = rt.host_span<float>(b);
    for (std::size_t i = 0; i < s.size(); i += 1024) s.store(i, 1.0f);
  }
  (void)sys.host_phase_end();
  rt.mem_prefetch(b, 0, b.bytes, mem::Node::kGpu);
  EXPECT_EQ(sys.machine().address_space().find(b.va)->resident_gpu_bytes, 4ull << 20);
  rt.mem_prefetch(b, 0, b.bytes, mem::Node::kCpu);
  EXPECT_EQ(sys.machine().address_space().find(b.va)->resident_gpu_bytes, 0u);
}

}  // namespace
}  // namespace ghum
