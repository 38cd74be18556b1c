#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>

#include "cache/kernel_traffic.hpp"
#include "core/machine.hpp"
#include "driver/access_counter.hpp"
#include "driver/managed_engine.hpp"
#include "driver/migration_engine.hpp"
#include "fault/fault_injector.hpp"
#include "fault/status.hpp"
#include "obs/link_monitor.hpp"
#include "os/page_fault.hpp"
#include "os/system_allocator.hpp"
#include "profile/memory_profiler.hpp"
#include "profile/workload_analysis.hpp"
#include "runtime/stream.hpp"

/// \file system.hpp
/// ghum::core::System — one simulated Grace Hopper node, fully wired:
/// hardware (Machine), OS policies, GPU driver engines, and profiling.
/// The runtime layer (runtime/runtime.hpp) exposes a CUDA-look-alike API
/// on top; applications normally go through that. System itself is the
/// library's mid-level API: allocation, explicit copies, kernel phases,
/// and the page-granular access path used by runtime::Span.

namespace ghum::chk {
class Snapshotter;
}  // namespace ghum::chk

namespace ghum::core {

/// A virtual allocation handle. Copyable value type; the backing VMA is
/// owned by the System's address space.
struct Buffer {
  std::uint64_t va = 0;
  std::uint64_t bytes = 0;
  std::byte* host = nullptr;
  os::AllocKind kind = os::AllocKind::kSystem;

  [[nodiscard]] bool valid() const noexcept { return host != nullptr; }
};

/// Cached resolution of one page (or GPU block): everything a Span needs
/// to account accesses locally until it leaves the page.
struct PageView {
  std::uint64_t page_base = 1;  ///< empty interval => always re-resolve
  std::uint64_t page_end = 0;
  /// End (exclusive) of the contiguous residency run this page belongs to:
  /// every page in [page_base, run_end) is mapped on the same node with
  /// the same access semantics, so crossing into the next page inside the
  /// run can skip the VMA lookup (System::advance_view). Equal to
  /// page_end when the page's residency state has no run scan (the
  /// managed fault and remote paths re-resolve every page).
  std::uint64_t run_end = 0;
  mem::Node node = mem::Node::kCpu;     ///< where the data lives
  mem::Node origin = mem::Node::kCpu;   ///< who is accessing
  os::AllocKind kind = os::AllocKind::kSystem;
  os::Vma* vma = nullptr;
  bool remote_managed = false;  ///< thrash-guard remote mapping (reduced bw)
  std::uint32_t line_size = 64; ///< coalescing granularity for this origin
  std::uint64_t epoch = 0;      ///< machine epoch this view was resolved at
};

class System {
 public:
  explicit System(SystemConfig cfg);

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  // --- component access ----------------------------------------------------
  [[nodiscard]] Machine& machine() noexcept { return m_; }
  [[nodiscard]] const SystemConfig& config() const noexcept { return m_.config(); }
  [[nodiscard]] sim::Clock& clock() noexcept { return m_.clock(); }
  /// Dotted-name counter reads (stats().get("runtime.memcpy_bytes")): a
  /// read-only view of the machine's obs::MetricsRegistry.
  [[nodiscard]] obs::StatsView stats() const noexcept { return m_.stats(); }
  [[nodiscard]] sim::EventLog& events() noexcept { return m_.events(); }
  [[nodiscard]] profile::WorkloadAnalysis& workload() noexcept { return workload_; }
  [[nodiscard]] profile::MemoryProfiler& profiler() noexcept { return profiler_; }
  [[nodiscard]] obs::LinkMonitor& link_monitor() noexcept { return link_mon_; }
  [[nodiscard]] driver::ManagedEngine& managed_engine() noexcept { return managed_; }
  [[nodiscard]] driver::AccessCounterEngine& access_counters() noexcept { return ac_; }
  [[nodiscard]] driver::MigrationEngine& migration_engine() noexcept { return mig_; }
  [[nodiscard]] os::PageFaultHandler& fault_handler() noexcept { return pf_; }

  [[nodiscard]] sim::Picos now() const noexcept { return m_.clock().now(); }
  [[nodiscard]] std::uint64_t epoch() const noexcept { return m_.epoch(); }

  // --- multi-tenant attribution (DESIGN.md Section 8) ------------------------
  /// Tenant whose quantum is executing; tenant::Scheduler brackets every
  /// resume with this. Allocations, logged events, kernel records and
  /// eviction blame are stamped with it.
  void set_current_tenant(tenant::TenantId t) noexcept { m_.set_current_tenant(t); }
  [[nodiscard]] tenant::TenantId current_tenant() const noexcept {
    return m_.current_tenant();
  }
  [[nodiscard]] tenant::AttributionTable& attribution() noexcept {
    return m_.attribution();
  }

  // --- allocation ------------------------------------------------------------
  /// malloc(): system-allocated memory (lazy, first-touch).
  Buffer sys_malloc(std::uint64_t bytes, std::string label = "sys");
  /// cudaMallocManaged().
  Buffer managed_malloc(std::uint64_t bytes, std::string label = "managed");
  /// cudaMalloc(): eagerly mapped in GPU memory; throws std::bad_alloc
  /// when HBM is exhausted (as cudaMalloc fails on the real machine).
  Buffer gpu_malloc(std::uint64_t bytes, std::string label = "gpu");
  /// Non-throwing cudaMalloc core: fills \p out on success, returns
  /// kErrorMemoryAllocation (leaving \p out untouched) when HBM is
  /// exhausted. Transient injected frame denials are retried a few times
  /// before being reported as OOM.
  Status gpu_malloc_status(std::uint64_t bytes, Buffer& out,
                           std::string label = "gpu");
  /// cudaMallocHost(): pinned, eagerly populated CPU memory.
  Buffer pinned_malloc(std::uint64_t bytes, std::string label = "pinned");
  /// free()/cudaFree()/cudaFreeHost() according to the buffer kind.
  /// Mirrors cudaFree's error surface instead of throwing: an invalid
  /// handle is a no-op success (cudaFree(nullptr)), freeing an already
  /// freed buffer returns kErrorDoubleFree, and a VA that was never an
  /// allocation base returns kErrorInvalidValue. The address space
  /// bump-allocates VAs (never reuses them), so double frees are
  /// distinguishable from garbage for the whole run.
  Status free_buffer(Buffer& buf);

  /// cudaHostRegister-style pre-population (Section 5.1.2 optimization).
  /// Returns kErrorInvalidValue for an unknown buffer and
  /// kErrorMemoryAllocation when CPU frames ran out part-way (the populated
  /// prefix stays mapped; the rest faults on demand).
  Status host_register(const Buffer& buf);

  /// Processes due time-scheduled faults (GPU channel resets first, then
  /// ECC retirements). Called at API entry points — not from the clock
  /// observer, because retirement can evict managed blocks and advance the
  /// clock. Cheap no-op when nothing is pending. A due GPU reset (and an
  /// ECC event past the retirement budget) throws StatusError after
  /// applying its damage.
  void service_faults();

  [[nodiscard]] fault::FaultInjector& fault_injector() noexcept { return fi_; }

  /// cudaMemAdvise hints (whole-allocation granularity).
  enum class MemAdvice {
    kPreferredLocationCpu,   ///< pin placement to CPU memory
    kPreferredLocationGpu,   ///< pin placement to GPU memory
    kUnsetPreferredLocation,
    kReadMostly,             ///< enable read duplication (managed ranges)
    kUnsetReadMostly,        ///< drop replicas, disable duplication
  };
  void mem_advise(const Buffer& buf, MemAdvice advice);

  /// cudaMemPrefetchAsync: explicit migration of a sub-range.
  void prefetch(const Buffer& buf, std::uint64_t offset, std::uint64_t len,
                mem::Node dst);

  /// cudaMemcpy with direction inferred from the buffer kinds. Copies the
  /// real bytes and charges transfer time.
  void memcpy_buffers(const Buffer& dst, std::uint64_t dst_off, const Buffer& src,
                      std::uint64_t src_off, std::uint64_t bytes);

  /// cudaMemcpyAsync: the transfer's duration lands on \p stream's timeline
  /// instead of the global clock, so synchronous work issued before the
  /// matching stream_synchronize() overlaps with it. (Data moves at issue —
  /// the simulator stays sequentially consistent; only time is deferred.)
  void memcpy_buffers_async(const Buffer& dst, std::uint64_t dst_off,
                            const Buffer& src, std::uint64_t src_off,
                            std::uint64_t bytes, runtime::Stream& stream);

  /// cudaStreamSynchronize: advances the clock to the stream's completion.
  void stream_synchronize(runtime::Stream& stream);

  /// Free HBM bytes (what the oversubscription rig measures, Section 3.2).
  [[nodiscard]] std::uint64_t gpu_free_bytes() const noexcept {
    return m_.config().hbm_capacity - m_.gpu_used_bytes();
  }

  // --- GPU context & kernel phases -------------------------------------------
  /// Charged once at the first CUDA-style call (paper Section 4 observes
  /// the system-memory version paying it inside the first kernel).
  void ensure_gpu_context();
  [[nodiscard]] bool gpu_context_initialized() const noexcept { return ctx_init_; }

  /// Total simulated time ever charged for GPU context initialization
  /// (0 before it fires). The paper treats "GPU context initialization and
  /// argument parsing" as its own phase; apps use deltas of this to move
  /// the charge out of whichever phase it fired in (see
  /// apps::PhaseTimer) while kernel records keep it — preserving the
  /// Section 4 observation that the system version pays it inside the
  /// first kernel.
  [[nodiscard]] sim::Picos context_init_charged() const noexcept {
    return ctx_init_ ? m_.config().costs.context_init : 0;
  }

  /// Begins a GPU kernel: charges launch overhead, starts a traffic record.
  void kernel_begin(std::string name);
  /// Ends the kernel; \p flop_work adds a compute-time floor
  /// (duration >= flop_work / gpu_flops). Returns the finished record.
  const cache::KernelRecord& kernel_end(double flop_work = 0.0);

  /// Named host phase with the same record-keeping (no launch cost; the
  /// compute floor uses the CPU rate).
  void host_phase_begin(std::string name);
  const cache::KernelRecord& host_phase_end(double flop_work = 0.0);

  [[nodiscard]] std::uint64_t kernel_id() const noexcept { return kernel_seq_; }

  /// Recovery-path cleanup after a crash Status unwound out of a kernel or
  /// host phase: clears the open-phase state (a mid-kernel GPU reset leaves
  /// in_kernel_/in_phase_ set) so the next phase can begin. No cost, no
  /// record — the aborted phase never produced a kernel record, exactly as
  /// a killed channel produces none. No-op outside a phase.
  void abort_phase() noexcept;

  /// Frees every allocation owned by tenant \p t (in base-address order),
  /// poisoned or not — the teardown a crashed/retired job's exit would have
  /// performed had its coroutine been allowed to finish. Charges the real
  /// deallocation costs. Returns the virtual bytes scrubbed.
  std::uint64_t scrub_tenant(tenant::TenantId t);

  /// cudaDeviceSynchronize(): execution is synchronous in the simulator,
  /// so this only models the call overhead.
  void device_synchronize();

  /// Directly advance simulated time (I/O waits, argument parsing...).
  void advance(sim::Picos t) { m_.clock().advance(t); }

  // --- access path (used by runtime::Span) ------------------------------------
  /// Resolves the page containing \p va for an access from \p origin,
  /// handling faults/migrations as side effects.
  PageView resolve(std::uint64_t va, mem::Node origin);

  /// Fast page transition inside a known residency run: advances \p view
  /// to the page containing \p va without repeating the VMA lookup, iff
  /// \p va lies in [view.page_end, view.run_end) and the machine epoch is
  /// unchanged (no PTE changed since resolve, so presence and node still
  /// hold). Charges exactly the translation costs resolve() would have
  /// charged — TLB state evolves identically. Returns false when the
  /// caller must fall back to a full resolve().
  [[nodiscard]] bool advance_view(PageView& view, std::uint64_t va);

  /// Charges an aggregated batch of accesses within one resolved page.
  /// \p lines = unique cachelines touched; read/write bytes are raw.
  void commit(const PageView& view, std::uint64_t read_bytes,
              std::uint64_t write_bytes, std::uint64_t lines,
              std::uint64_t accesses);

  /// Charges one *dependent* access (pointer chase): unlike throughput
  /// accesses, each one serializes on the full tier latency — DDR/HBM
  /// first-word latency locally, the NVLink-C2C round trip remotely.
  void charge_dependent_access(const PageView& view);

  /// Formatted dump of the machine's cumulative counters (allocations,
  /// faults, migrations, traffic) for reports and examples.
  [[nodiscard]] std::string summary() const;

  // --- observability exposition (DESIGN.md Section 9) ------------------------
  /// Prometheus text exposition of the metrics registry. Syncs the sampled
  /// gauges (occupancy, link bytes, per-tenant families) first.
  [[nodiscard]] std::string metrics_prometheus();
  /// JSON snapshot of the same registry (machine-readable twin).
  [[nodiscard]] std::string metrics_json();

 private:
  /// Retires GPU frames for one uncorrectable-ECC event: free frames are
  /// retired directly; in-use frames are vacated by evicting managed
  /// blocks first (remap instead of abort).
  void handle_ecc(const fault::EccEvent& e);

  /// Applies one GPU channel reset: drops the current tenant's
  /// device-resident managed blocks without writeback, poisons the damaged
  /// allocations, flushes the GMMU TLBs, charges the recovery latency and
  /// throws StatusError{kErrorGpuReset}.
  [[noreturn]] void handle_gpu_reset(const fault::GpuResetEvent& e);

  void begin_phase(std::string name, bool gpu);
  const cache::KernelRecord& end_phase(double flop_work);

  /// Copies the bytes, counts link traffic and charges host-side staging
  /// faults; returns the transfer duration for the caller to spend
  /// (synchronously or on a stream).
  sim::Picos memcpy_cost_and_copy(const Buffer& dst, std::uint64_t dst_off,
                                  const Buffer& src, std::uint64_t src_off,
                                  std::uint64_t bytes);

  /// AutoNUMA: the balancing scanner periodically unmaps system pages so
  /// the next access takes a NUMA hint fault (cost only; the migration
  /// decision itself is not modeled). GPU-origin hint faults go through
  /// the replayable-fault path — the reason the paper's testbed disables
  /// AutoNUMA (Section 3).
  void maybe_numa_hint_fault(std::uint64_t page_va, mem::Node origin);

  /// Shared core of resolve()/advance_view(): translates \p va for the
  /// allocation described by view.kind/vma/origin, charges the translation
  /// and fault costs, and fills node and bounds. It only ever sets
  /// remote_managed (a thrash-guard remote mapping); the caller clears it.
  void resolve_page(PageView& view, std::uint64_t va);

  /// Publishes how far the residency run containing view.page_base extends
  /// (PageView::run_end).
  void fill_run_end(PageView& view);

  Machine m_;
  fault::FaultInjector fi_;
  os::PageFaultHandler pf_;
  os::SystemAllocator sysalloc_;
  driver::MigrationEngine mig_;
  driver::AccessCounterEngine ac_;
  driver::ManagedEngine managed_;
  profile::WorkloadAnalysis workload_;
  profile::MemoryProfiler profiler_;
  obs::LinkMonitor link_mon_;

  bool ctx_init_ = false;
  bool in_kernel_ = false;
  bool in_phase_ = false;
  std::uint64_t kernel_seq_ = 0;
  std::string phase_name_;
  sim::Picos phase_start_ = 0;
  cache::KernelTraffic traffic_;
  std::uint64_t c2c_h2d_at_start_ = 0;
  std::uint64_t c2c_d2h_at_start_ = 0;
  cache::KernelRecord last_record_;
  /// Base VAs of successfully freed buffers; VAs are never reused, so
  /// membership identifies a double free (vs. a never-valid pointer).
  std::unordered_set<std::uint64_t> freed_bases_;

  friend class ghum::chk::Snapshotter;
};

}  // namespace ghum::core
