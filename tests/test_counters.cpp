// Counter pins: every dotted counter name that System::stats().get reads,
// and the engine accessors that report the same events, read back the
// values recorded before the counters moved into obs::MetricsRegistry.
// Each scenario drives one family of events (the Figure 3 grid, managed
// oversubscription, fault injection, AutoNUMA, host registration, the
// recovery ladder, driver hints); a name pointed at the wrong instrument
// changes some scenario's reading and fails here.
//
// Only nonzero readings are pinned; every other name must read zero. On a
// mismatch the test prints the scenario's readings in the source form of
// kPins, so an intended model change can be re-pinned.

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <string_view>

#include "apps/hotspot.hpp"
#include "benchsupport/scenarios.hpp"
#include "fault/status.hpp"
#include "runtime/runtime.hpp"
#include "runtime/stream.hpp"
#include "tenant/scheduler.hpp"

namespace ghum {
namespace {

namespace bs = benchsupport;
using apps::MemMode;
using Readings = std::map<std::string, std::uint64_t, std::less<>>;

// clang-format off
constexpr std::string_view kNames[] = {
    "driver.counter.notifications", "driver.managed.eviction_blocked",
    "driver.managed.evictions", "driver.managed.gpu_faults",
    "driver.managed.h2d_bytes", "driver.managed.prefetch_bytes",
    "driver.managed.remote_mode_entered", "driver.managed.replicas_collapsed",
    "driver.managed.replicas_created", "driver.migrate.d2h_bytes",
    "driver.migrate.h2d_bytes", "fault.alloc_denials", "fault.ecc_events",
    "fault.ecc_retired_bytes", "fault.ecc_storms", "fault.ecc_unretired_bytes",
    "fault.gpu_resets", "fault.link_degrade_windows",
    "fault.link_windows_skipped", "fault.migration_aborts",
    "fault.migration_retries", "mem.dependent_accesses", "os.dealloc.pages",
    "os.fault.cpu_first_touch", "os.fault.fallback",
    "os.fault.gpu_first_touch", "os.fault.oom", "os.host_register.pages",
    "os.host_register.partial", "os.numa_hint_faults", "recovery.checkpoints",
    "recovery.failed_jobs", "recovery.restarts", "recovery.scrubbed_bytes",
    "recovery.watchdog_trips", "runtime.context_init", "runtime.mem_advise",
    "runtime.memcpy_async", "runtime.memcpy_bytes", "runtime.oom.gpu_malloc",
};
// clang-format on

/// Adds every dotted name and every engine accessor of \p sys to \p r.
void read_into(core::System& sys, Readings& r) {
  for (const std::string_view n : kNames) r[std::string{n}] += sys.stats().get(n);
  r["AccessCounterEngine::notifications"] += sys.access_counters().notifications();
  r["FaultInjector::denials"] += sys.fault_injector().denials();
  r["ManagedEngine::cpu_faults"] += sys.managed_engine().cpu_faults();
  r["ManagedEngine::evictions"] += sys.managed_engine().evictions();
  r["ManagedEngine::gpu_faults"] += sys.managed_engine().gpu_faults();
  r["PageFaultHandler::faults(cpu)"] += sys.fault_handler().faults(mem::Node::kCpu);
  r["PageFaultHandler::faults(gpu)"] += sys.fault_handler().faults(mem::Node::kGpu);
}

core::SystemConfig small_config() {
  core::SystemConfig cfg;
  cfg.system_page_size = pagetable::kSystemPage64K;
  cfg.hbm_capacity = 8ull << 20;
  cfg.ddr_capacity = 64ull << 20;
  cfg.gpu_driver_baseline = 1ull << 20;
  return cfg;
}

/// Runs \p f, swallowing the StatusError a terminal fault escalates to.
void survive(const std::function<void()>& f) {
  try {
    f();
  } catch (const StatusError&) {
  }
}

/// Managed working set double the HBM, initialized on the host, touched by
/// one kernel and read back on the host: fault -> migration -> eviction,
/// then CPU faults on the evicted and GPU-resident blocks.
void oversubscribe_managed(core::System& sys) {
  runtime::Runtime rt{sys};
  core::Buffer b = rt.malloc_managed(16ull << 20);
  const std::uint64_t stride = (2ull << 20) / sizeof(float);
  {
    auto h = rt.host_span<float>(b);
    for (std::uint64_t i = 0; i < b.bytes / sizeof(float); i += stride) h.store(i, 1.0f);
  }
  (void)rt.launch("touch_all", 0, [&] {
    auto s = rt.device_span<float>(b);
    for (std::uint64_t i = 0; i < b.bytes / sizeof(float); i += stride) s.store(i, 2.0f);
  });
  auto h = rt.host_span<float>(b);
  for (std::uint64_t i = 0; i < b.bytes / sizeof(float); i += stride) (void)h.load(i);
}

// --- scenarios -----------------------------------------------------------------

/// The Figure 3 grid at Scale::kSmall (the GoldenGrid cells), summed.
Readings golden_grid() {
  Readings r;
  for (const bs::NamedApp& a : bs::rodinia_apps()) {
    for (const MemMode mode : {MemMode::kExplicit, MemMode::kManaged, MemMode::kSystem}) {
      core::System sys{bs::rodinia_config(pagetable::kSystemPage64K, false)};
      runtime::Runtime rt{sys};
      (void)bs::guarded_run([&] { return a.run(rt, mode, bs::Scale::kSmall); });
      read_into(sys, r);
    }
  }
  for (const MemMode mode : {MemMode::kExplicit, MemMode::kManaged, MemMode::kSystem}) {
    core::System sys{bs::qv_config(pagetable::kSystemPage64K, false)};
    runtime::Runtime rt{sys};
    (void)bs::guarded_run([&] {
      return apps::run_qvsim(rt, mode, bs::qv_sim_config(bs::Scale::kSmall, 17));
    });
    read_into(sys, r);
  }
  return r;
}

Readings oversubscribed_managed() {
  core::SystemConfig cfg = small_config();
  cfg.gpu_driver_baseline = 0;
  core::System sys{cfg};
  oversubscribe_managed(sys);
  Readings r;
  read_into(sys, r);
  return r;
}

/// Injected denials and batch failures under managed oversubscription, two
/// link-degrade windows (one entered, one the clock jumps over), an ECC
/// retirement that outruns both the free frames and the budget, and a GPU
/// channel reset.
Readings fault_injection() {
  Readings r;
  {
    core::SystemConfig cfg = small_config();
    cfg.faults.enabled = true;
    cfg.faults.frame_alloc_denial_prob = 0.3;
    cfg.faults.migration_batch_fail_prob = 0.5;
    cfg.faults.migration_max_retries = 1;
    cfg.faults.link_degrade = {
        {.start = 0, .duration = sim::seconds(1), .bandwidth_factor = 2.0,
         .latency_factor = 2.0},
        {.start = sim::seconds(2), .duration = sim::seconds(1)}};
    for (int s = 4; s < 9; ++s) {
      cfg.faults.link_degrade.push_back(
          {.start = sim::seconds(s), .duration = sim::milliseconds(1)});
    }
    core::System sys{cfg};
    survive([&] { oversubscribe_managed(sys); });
    sys.advance(sim::milliseconds(2500));  // into the second window
    sys.advance(sim::seconds(10));         // over the last five
    read_into(sys, r);
  }
  {
    core::SystemConfig cfg = small_config();
    cfg.faults.enabled = true;
    cfg.faults.ecc_events = {{.time = sim::milliseconds(20), .bytes = 256ull << 10},
                             {.time = sim::milliseconds(21), .bytes = 256ull << 10},
                             {.time = sim::milliseconds(22), .bytes = 512ull << 10},
                             {.time = sim::milliseconds(25), .bytes = 4ull << 20}};
    cfg.faults.ecc_retirement_budget = 3ull << 19;
    core::System sys{cfg};
    (void)sys.gpu_malloc(5ull << 20);
    survive([&] {
      sys.advance(sim::milliseconds(30));
      sys.service_faults();
    });
    read_into(sys, r);
  }
  {
    core::SystemConfig cfg = small_config();
    cfg.faults.enabled = true;
    cfg.faults.gpu_resets = {{.time = sim::milliseconds(20)}};
    core::System sys{cfg};
    core::Buffer m = sys.managed_malloc(4ull << 20);
    sys.kernel_begin("k");
    (void)sys.resolve(m.va, mem::Node::kGpu);
    sys.kernel_end();
    survive([&] {
      sys.advance(sim::milliseconds(30));
      sys.service_faults();
    });
    read_into(sys, r);
  }
  return r;
}

/// Both nodes exhausted: failing cudaMallocs, fallback placements, then
/// first-touch OOMs; managed blocks whose eviction writeback has nowhere to
/// land, so the allocation falls back to remote mapping.
Readings exhaustion() {
  Readings r;
  {
    core::System sys{small_config()};
    runtime::Runtime rt{sys};
    core::Buffer dev;
    for (int i = 0; i < 3; ++i) (void)rt.malloc_device(16ull << 20, dev, "too_big");
    core::Buffer b = sys.sys_malloc(96ull << 20);
    survive([&] {
      for (std::uint64_t off = 0; off < b.bytes; off += 64ull << 10) {
        (void)sys.resolve(b.va + off, mem::Node::kCpu);
      }
    });
    survive([&] { (void)sys.resolve(b.va + b.bytes - 1, mem::Node::kCpu); });
    read_into(sys, r);
  }
  {
    core::SystemConfig cfg = small_config();
    cfg.gpu_driver_baseline = 0;
    core::System sys{cfg};
    core::Buffer fill = sys.sys_malloc(63ull << 20);
    for (std::uint64_t off = 0; off < fill.bytes; off += 64ull << 10) {
      (void)sys.resolve(fill.va + off, mem::Node::kCpu);
    }
    core::Buffer a = sys.managed_malloc(8ull << 20);
    core::Buffer b = sys.managed_malloc(4ull << 20);
    sys.kernel_begin("fill");
    for (std::uint64_t off = 0; off < a.bytes; off += 2ull << 20) {
      (void)sys.resolve(a.va + off, mem::Node::kGpu);
    }
    for (std::uint64_t off = 0; off < b.bytes; off += 2ull << 20) {
      (void)sys.resolve(b.va + off, mem::Node::kGpu);
    }
    sys.kernel_end();
    read_into(sys, r);
  }
  return r;
}

Readings autonuma() {
  core::SystemConfig cfg = bs::rodinia_config(pagetable::kSystemPage64K, false);
  cfg.autonuma_balancing = true;
  cfg.autonuma_scan_period = sim::microseconds(500);
  core::System sys{cfg};
  runtime::Runtime rt{sys};
  (void)apps::run_hotspot(rt, MemMode::kSystem, bs::hotspot_config(bs::Scale::kSmall));
  Readings r;
  read_into(sys, r);
  return r;
}

/// cudaHostRegister of a range that fits in CPU memory, then of one only
/// part of which fits, then a free of the second.
Readings partial_host_register() {
  core::System sys{small_config()};
  core::Buffer fill = sys.sys_malloc((64ull << 20) - (192ull << 10));
  for (std::uint64_t off = 0; off < fill.bytes; off += 64ull << 10) {
    (void)sys.resolve(fill.va + off, mem::Node::kCpu);
  }
  core::Buffer small = sys.sys_malloc(64ull << 10);
  core::Buffer big = sys.sys_malloc(512ull << 10);
  (void)sys.host_register(small);
  (void)sys.host_register(big);
  (void)sys.free_buffer(big);
  Readings r;
  read_into(sys, r);
  return r;
}

tenant::JobSpec hotspot_job(std::uint64_t seed) {
  tenant::JobSpec s;
  s.name = "hotspot";
  s.footprint_bytes = 1ull << 20;
  s.make = [seed](runtime::Runtime& rt) {
    apps::HotspotConfig h = bs::hotspot_config(bs::Scale::kSmall);
    h.seed = seed;
    return apps::hotspot_steps(rt, MemMode::kManaged, h);
  };
  return s;
}

apps::AppCoro stuck_steps(runtime::Runtime&) {
  for (;;) co_yield 0;
}

/// The bench_observability recovery co-run with two channel resets (two
/// restarts, verified checkpoints), a job cancelled mid-run (its memory is
/// scrubbed), then a stuck job the watchdog trips until its restart budget
/// runs out.
Readings recovery_corun() {
  Readings r;
  const core::SystemConfig base = bs::rodinia_config(pagetable::kSystemPage64K, false);
  sim::Picos solo = 0;
  {
    core::System sys{base};
    tenant::Scheduler sched{sys, {}};
    (void)sched.submit(hotspot_job(42));
    sched.run_all();
    solo = sys.now();
  }
  {
    core::SystemConfig cfg = base;
    cfg.faults.enabled = true;
    cfg.faults.gpu_resets = {{.time = solo / 2}, {.time = 3 * solo / 4}};
    core::System sys{cfg};
    tenant::SchedulerConfig scfg;
    scfg.recovery.enabled = true;
    scfg.recovery.max_restarts = 3;
    scfg.recovery.checkpoint_period_quanta = 3;
    scfg.recovery.verify_checkpoints = true;
    tenant::Scheduler sched{sys, scfg};
    (void)sched.submit(hotspot_job(42));
    (void)sched.submit(hotspot_job(43));
    tenant::TenantId doomed = tenant::kNoTenant;
    (void)sched.submit(hotspot_job(44), &doomed);
    for (int i = 0; i < 6; ++i) (void)sched.step();
    (void)sched.cancel(doomed, Status::kErrorInvalidValue);
    sched.run_all();
    read_into(sys, r);
  }
  {
    core::System sys{base};
    tenant::SchedulerConfig scfg;
    scfg.recovery.enabled = true;
    scfg.recovery.max_restarts = 2;
    scfg.recovery.stall_quanta = 3;
    tenant::Scheduler sched{sys, scfg};
    tenant::JobSpec stuck;
    stuck.name = "stuck";
    stuck.make = [](runtime::Runtime& rt) { return stuck_steps(rt); };
    (void)sched.submit(std::move(stuck));
    sched.run_all();
    read_into(sys, r);
  }
  return r;
}

/// Driver hints and copies: read duplication on, off and on again, a
/// GPU-preferred range touched from the CPU, managed and system prefetches
/// both ways, access-counter migrations, async copies and pointer chases.
Readings driver_hints() {
  core::SystemConfig cfg = small_config();
  cfg.access_counter_migration = true;
  core::System sys{cfg};
  runtime::Runtime rt{sys};
  const std::uint64_t n = (4ull << 20) / sizeof(float);

  core::Buffer ro = rt.malloc_managed(4ull << 20);
  {
    auto h = rt.host_span<float>(ro);
    for (std::uint64_t i = 0; i < n; i += 1024) h.store(i, 1.0f);
  }
  rt.mem_advise(ro, core::System::MemAdvice::kReadMostly);
  (void)rt.launch("read_dup", 0, [&] {
    auto s = rt.device_span<float>(ro);
    for (std::uint64_t i = 0; i < n; i += 1024) (void)s.load(i);
  });
  rt.mem_advise(ro, core::System::MemAdvice::kUnsetReadMostly);
  rt.mem_advise(ro, core::System::MemAdvice::kReadMostly);
  (void)rt.launch("read_dup_again", 0, [&] {
    auto s = rt.device_span<float>(ro);
    (void)s.load(0);
  });

  core::Buffer pref = rt.malloc_managed(2ull << 20);
  rt.mem_advise(pref, core::System::MemAdvice::kPreferredLocationGpu);
  {
    auto h = rt.host_span<float>(pref);
    h.store(0, 3.0f);
  }
  rt.mem_prefetch(pref, 0, pref.bytes, mem::Node::kCpu);
  rt.mem_advise(pref, core::System::MemAdvice::kUnsetPreferredLocation);
  rt.mem_prefetch(ro, 0, ro.bytes, mem::Node::kGpu);

  core::Buffer sys_buf = rt.malloc_system(2ull << 20);
  {
    auto h = rt.host_span<float>(sys_buf);
    for (std::uint64_t i = 0; i < sys_buf.bytes / sizeof(float); i += 256) h.store(i, 1.0f);
  }
  for (int k = 0; k < 4; ++k) {
    (void)rt.launch("hot", 0, [&] {
      auto s = rt.device_span<float>(sys_buf);
      for (std::uint64_t i = 0; i < sys_buf.bytes / sizeof(float); i += 16) {
        (void)s.load_chased(i);
      }
    });
  }
  rt.mem_prefetch(sys_buf, 0, sys_buf.bytes, mem::Node::kCpu);
  rt.mem_prefetch(sys_buf, 0, 1ull << 20, mem::Node::kGpu);

  core::Buffer dev = rt.malloc_device(1ull << 20);
  runtime::Stream stream;
  rt.memcpy_async(dev, sys_buf, 1ull << 20, runtime::CopyKind::kHostToDevice, stream);
  rt.memcpy_async(dev, sys_buf, 64ull << 10, runtime::CopyKind::kHostToDevice, stream);
  rt.memcpy_async(sys_buf, dev, 64ull << 10, runtime::CopyKind::kDeviceToHost, stream);
  rt.stream_synchronize(stream);
  rt.memcpy(sys_buf, dev, 256ull << 10, runtime::CopyKind::kDeviceToHost);
  Readings r;
  read_into(sys, r);
  return r;
}

// --- pins --------------------------------------------------------------------------

struct Pin {
  std::string_view scenario;
  std::string_view name;
  std::uint64_t value;
};

// clang-format off
constexpr Pin kPins[] = {
    {"golden_grid", "ManagedEngine::cpu_faults", 34ull},
    {"golden_grid", "ManagedEngine::gpu_faults", 19ull},
    {"golden_grid", "PageFaultHandler::faults(cpu)", 135ull},
    {"golden_grid", "PageFaultHandler::faults(gpu)", 43ull},
    {"golden_grid", "driver.managed.gpu_faults", 19ull},
    {"golden_grid", "driver.managed.h2d_bytes", 2228224ull},
    {"golden_grid", "os.dealloc.pages", 150ull},
    {"golden_grid", "os.fault.cpu_first_touch", 135ull},
    {"golden_grid", "os.fault.gpu_first_touch", 43ull},
    {"golden_grid", "runtime.context_init", 18ull},
    {"golden_grid", "runtime.memcpy_bytes", 4442128ull},
    {"oversubscribed_managed", "ManagedEngine::cpu_faults", 12ull},
    {"oversubscribed_managed", "ManagedEngine::evictions", 4ull},
    {"oversubscribed_managed", "ManagedEngine::gpu_faults", 8ull},
    {"oversubscribed_managed", "PageFaultHandler::faults(cpu)", 8ull},
    {"oversubscribed_managed", "driver.managed.evictions", 4ull},
    {"oversubscribed_managed", "driver.managed.gpu_faults", 8ull},
    {"oversubscribed_managed", "driver.managed.h2d_bytes", 524288ull},
    {"oversubscribed_managed", "os.fault.cpu_first_touch", 8ull},
    {"oversubscribed_managed", "runtime.context_init", 1ull},
    {"fault_injection", "FaultInjector::denials", 6ull},
    {"fault_injection", "ManagedEngine::cpu_faults", 11ull},
    {"fault_injection", "ManagedEngine::evictions", 3ull},
    {"fault_injection", "ManagedEngine::gpu_faults", 9ull},
    {"fault_injection", "PageFaultHandler::faults(cpu)", 8ull},
    {"fault_injection", "driver.managed.eviction_blocked", 2ull},
    {"fault_injection", "driver.managed.evictions", 3ull},
    {"fault_injection", "driver.managed.gpu_faults", 9ull},
    {"fault_injection", "driver.managed.h2d_bytes", 393216ull},
    {"fault_injection", "fault.alloc_denials", 6ull},
    {"fault_injection", "fault.ecc_events", 4ull},
    {"fault_injection", "fault.ecc_retired_bytes", 2097152ull},
    {"fault_injection", "fault.ecc_storms", 1ull},
    {"fault_injection", "fault.ecc_unretired_bytes", 3145728ull},
    {"fault_injection", "fault.gpu_resets", 1ull},
    {"fault_injection", "fault.link_degrade_windows", 2ull},
    {"fault_injection", "fault.link_windows_skipped", 5ull},
    {"fault_injection", "fault.migration_aborts", 3ull},
    {"fault_injection", "fault.migration_retries", 7ull},
    {"fault_injection", "os.fault.cpu_first_touch", 8ull},
    {"fault_injection", "os.fault.fallback", 4ull},
    {"fault_injection", "runtime.context_init", 3ull},
    {"exhaustion", "ManagedEngine::gpu_faults", 6ull},
    {"exhaustion", "PageFaultHandler::faults(cpu)", 2144ull},
    {"exhaustion", "driver.managed.eviction_blocked", 4ull},
    {"exhaustion", "driver.managed.gpu_faults", 6ull},
    {"exhaustion", "driver.managed.remote_mode_entered", 1ull},
    {"exhaustion", "os.fault.cpu_first_touch", 2144ull},
    {"exhaustion", "os.fault.fallback", 112ull},
    {"exhaustion", "os.fault.oom", 2ull},
    {"exhaustion", "runtime.context_init", 2ull},
    {"exhaustion", "runtime.oom.gpu_malloc", 3ull},
    {"autonuma", "PageFaultHandler::faults(cpu)", 6ull},
    {"autonuma", "os.dealloc.pages", 6ull},
    {"autonuma", "os.fault.cpu_first_touch", 6ull},
    {"autonuma", "os.numa_hint_faults", 6ull},
    {"autonuma", "runtime.context_init", 1ull},
    {"partial_host_register", "PageFaultHandler::faults(cpu)", 1021ull},
    {"partial_host_register", "os.dealloc.pages", 2ull},
    {"partial_host_register", "os.fault.cpu_first_touch", 1021ull},
    {"partial_host_register", "os.host_register.pages", 3ull},
    {"partial_host_register", "os.host_register.partial", 1ull},
    {"recovery_corun", "ManagedEngine::cpu_faults", 18ull},
    {"recovery_corun", "ManagedEngine::gpu_faults", 4ull},
    {"recovery_corun", "PageFaultHandler::faults(cpu)", 18ull},
    {"recovery_corun", "driver.managed.gpu_faults", 4ull},
    {"recovery_corun", "driver.managed.h2d_bytes", 786432ull},
    {"recovery_corun", "fault.gpu_resets", 2ull},
    {"recovery_corun", "os.dealloc.pages", 6ull},
    {"recovery_corun", "os.fault.cpu_first_touch", 18ull},
    {"recovery_corun", "recovery.checkpoints", 6ull},
    {"recovery_corun", "recovery.failed_jobs", 1ull},
    {"recovery_corun", "recovery.restarts", 4ull},
    {"recovery_corun", "recovery.scrubbed_bytes", 442368ull},
    {"recovery_corun", "recovery.watchdog_trips", 3ull},
    {"recovery_corun", "runtime.context_init", 1ull},
    {"driver_hints", "AccessCounterEngine::notifications", 1ull},
    {"driver_hints", "ManagedEngine::cpu_faults", 65ull},
    {"driver_hints", "ManagedEngine::gpu_faults", 3ull},
    {"driver_hints", "PageFaultHandler::faults(cpu)", 96ull},
    {"driver_hints", "driver.counter.notifications", 1ull},
    {"driver_hints", "driver.managed.gpu_faults", 3ull},
    {"driver_hints", "driver.managed.prefetch_bytes", 4194304ull},
    {"driver_hints", "driver.managed.replicas_collapsed", 2ull},
    {"driver_hints", "driver.managed.replicas_created", 4ull},
    {"driver_hints", "driver.migrate.d2h_bytes", 2097152ull},
    {"driver_hints", "driver.migrate.h2d_bytes", 3145728ull},
    {"driver_hints", "mem.dependent_accesses", 131072ull},
    {"driver_hints", "os.fault.cpu_first_touch", 96ull},
    {"driver_hints", "runtime.context_init", 1ull},
    {"driver_hints", "runtime.mem_advise", 5ull},
    {"driver_hints", "runtime.memcpy_async", 3ull},
    {"driver_hints", "runtime.memcpy_bytes", 1441792ull},
};
// clang-format on

const std::map<std::string_view, std::function<Readings()>>& scenarios() {
  static const std::map<std::string_view, std::function<Readings()>> s{
      {"autonuma", autonuma},
      {"driver_hints", driver_hints},
      {"exhaustion", exhaustion},
      {"fault_injection", fault_injection},
      {"golden_grid", golden_grid},
      {"oversubscribed_managed", oversubscribed_managed},
      {"partial_host_register", partial_host_register},
      {"recovery_corun", recovery_corun},
  };
  return s;
}

void expect_pinned(std::string_view scenario) {
  const Readings actual = scenarios().at(scenario)();
  Readings pinned;
  for (const Pin& p : kPins) {
    if (p.scenario == scenario) pinned[std::string{p.name}] = p.value;
  }
  bool ok = true;
  for (const auto& [name, value] : actual) {
    const auto it = pinned.find(name);
    const std::uint64_t want = it == pinned.end() ? 0 : it->second;
    EXPECT_EQ(value, want) << scenario << ": " << name;
    ok = ok && value == want;
  }
  for (const auto& [name, value] : pinned) {
    EXPECT_TRUE(actual.contains(name)) << scenario << ": pinned " << name << " is not read";
  }
  if (!ok) {
    std::ostringstream rows;
    for (const auto& [name, value] : actual) {
      if (value != 0) {
        rows << "    {\"" << scenario << "\", \"" << name << "\", " << value << "ull},\n";
      }
    }
    ADD_FAILURE() << scenario << " now reads:\n" << rows.str();
  }
}

TEST(CounterPins, GoldenGrid) { expect_pinned("golden_grid"); }
TEST(CounterPins, OversubscribedManaged) { expect_pinned("oversubscribed_managed"); }
TEST(CounterPins, FaultInjection) { expect_pinned("fault_injection"); }
TEST(CounterPins, Exhaustion) { expect_pinned("exhaustion"); }
TEST(CounterPins, AutoNuma) { expect_pinned("autonuma"); }
TEST(CounterPins, PartialHostRegister) { expect_pinned("partial_host_register"); }
TEST(CounterPins, RecoveryCoRun) { expect_pinned("recovery_corun"); }
TEST(CounterPins, DriverHints) { expect_pinned("driver_hints"); }

TEST(CounterPins, PinsTellEveryTwoNamesApart) {
  // A name that reads the same as another in every scenario could be
  // pointed at that other counter unnoticed.
  std::map<std::string_view, std::map<std::string_view, std::uint64_t>> by_name;
  for (const Pin& p : kPins) by_name[p.name][p.scenario] = p.value;
  for (const std::string_view a : kNames) {
    EXPECT_TRUE(by_name.contains(a)) << a << " reads zero in every scenario";
    for (const std::string_view b : kNames) {
      if (a < b) {
        EXPECT_NE(by_name[a], by_name[b]) << a << " and " << b;
      }
    }
  }
}

}  // namespace
}  // namespace ghum
