#pragma once

#include <cstdint>
#include <string>

#include "core/cost_model.hpp"
#include "fault/fault_config.hpp"
#include "pagetable/page_table.hpp"

/// \file system_config.hpp
/// Configuration of one simulated Grace Hopper node. Defaults follow the
/// paper's testbed (Section 3) with capacities scaled per DESIGN.md §4:
/// the real machine pairs 480 GB LPDDR5X with 96 GB HBM3 (5:1); we default
/// to 960 MiB : 192 MiB so scaled workloads hit the same fits/oversubscribed
/// boundaries while staying runnable on a laptop-class host.

namespace ghum::core {

struct SystemConfig {
  /// System page size: 4 KiB or 64 KiB on Grace (Section 2.1.3).
  std::uint64_t system_page_size = pagetable::kSystemPage64K;

  /// Scaled physical capacities (5:1 like the real 480 GB / 96 GB).
  std::uint64_t hbm_capacity = 192ull << 20;
  std::uint64_t ddr_capacity = 960ull << 20;

  /// GPU-resident driver baseline observed by nvidia-smi (~600 MB on the
  /// real 96 GB machine, i.e. ~0.6 %; same fraction of the scaled HBM).
  std::uint64_t gpu_driver_baseline = 1ull << 20;

  /// Access-counter-based migration for system-allocated memory
  /// (Section 2.2.1). The paper's overview experiments (Figure 3) run with
  /// it disabled and enable it for the migration study (Section 6).
  bool access_counter_migration = false;
  /// Notification threshold (driver default 256, Section 3).
  std::uint32_t access_counter_threshold = 256;
  /// Virtual-range granularity at which the hardware counters aggregate
  /// GPU accesses and at which the driver migrates ("the pages belonging
  /// to the associated virtual memory region", Section 2.2.1). Configurable
  /// on real hardware from 64 KiB to 16 MiB.
  std::uint64_t counter_region_bytes = 2ull << 20;
  /// Global rate limit of the driver's migration work queue: at most one
  /// notification is serviced per interval.
  sim::Picos counter_min_interval = sim::microseconds(150);
  /// The queue is additionally drained at a bounded batch rate per kernel
  /// launch. Together with the interval this spreads working-set migration
  /// across several iterations in iterative workloads — the SRAD
  /// iteration 1-4 ramp of paper Figure 10.
  std::uint32_t counter_migrations_per_kernel = 2;

  /// Speculative prefetching in the managed-memory driver (Section 2.3.2).
  bool managed_prefetch = true;

  /// Linux Automatic NUMA Scheduling and Balancing. The paper's testbed
  /// disables it "because the additional page-faults introduced by
  /// AutoNUMA can significantly hurt GPU-heavy application performance"
  /// (Section 3); bench_ablation_autonuma quantifies exactly that. When
  /// enabled, the kernel's scanner periodically unmaps system pages so
  /// the next access takes a NUMA hint fault.
  bool autonuma_balancing = false;
  sim::Picos autonuma_scan_period = sim::milliseconds(1);

  /// TLB capacities (entries).
  std::size_t cpu_tlb_entries = 1536;
  std::size_t ats_tlb_entries = 4096;
  std::size_t gpu_utlb_entries = 4096;

  /// Record per-event traces (tests and profile-type benches turn this on;
  /// large runs leave it off).
  bool event_log = false;

  /// Allocate real host backing for every VMA (Span<T> reads/writes live
  /// data through it). Full-scale runs (96 GB / 480 GB presets) turn this
  /// off: residency, faults and migrations are simulated page-granularly
  /// without touching data bytes, so the simulator's RSS stays sub-linear
  /// in the simulated footprint. With it off, Span/memcpy-style data paths
  /// must not be used (Vma::data stays null).
  bool materialize_backing = true;

  /// Memory-profiler sampling period in simulated time. The paper samples
  /// every 100 ms of wall time on runs lasting tens of seconds; scaled runs
  /// last milliseconds, so we default to 50 us of simulated time.
  sim::Picos profiler_period = sim::microseconds(50);
  bool profiler_enabled = false;

  /// NVLink-C2C utilization monitor (obs::LinkMonitor): windowed byte
  /// volume and utilization-vs-sustained-peak per direction, sampled on
  /// the same simulated-time basis as the memory profiler.
  bool link_monitor = false;
  sim::Picos link_monitor_window = sim::microseconds(50);

  CostModel costs{};

  /// Deterministic fault injection (DESIGN.md "Fault model & resilience").
  /// Disabled by default; the chaos bench and the fault tests enable it.
  fault::FaultConfig faults{};

  /// Human-readable tag used in reports.
  std::string name = "grace-hopper-sim";
};

}  // namespace ghum::core
