#pragma once

#include <cstdint>
#include <utility>

#include "core/system_config.hpp"
#include "interconnect/nvlink_c2c.hpp"
#include "mem/frame_allocator.hpp"
#include "mem/memory_device.hpp"
#include "obs/metrics.hpp"
#include "os/address_space.hpp"
#include "pagetable/gmmu.hpp"
#include "pagetable/page_table.hpp"
#include "pagetable/smmu.hpp"
#include "sim/clock.hpp"
#include "sim/event_log.hpp"
#include "tenant/attribution.hpp"

/// \file machine.hpp
/// Aggregation of all hardware models of one simulated Grace Hopper node,
/// plus the *residency transition* helpers that keep the page tables, frame
/// allocators, VMA residency counters and TLBs mutually consistent. All
/// policy code (OS fault handling, driver migration/eviction) mutates page
/// residency exclusively through these helpers, so invariants such as
/// "resident bytes == frames used" hold globally (and are checked by
/// property tests).
///
/// Transitions are cost-free: callers (the policy layers) charge the clock
/// according to *why* the transition happened (fault, migration, eviction).

namespace ghum::fault {
class FaultInjector;
}  // namespace ghum::fault

namespace ghum::chk {
class Snapshotter;
}  // namespace ghum::chk

namespace ghum::core {

/// The cacheline a runtime::Span last marked, [line_base, line_base +
/// line_len), clamped to its page; line_len == 0 means none. Every live
/// Span registers its cursor with its Machine, which zeroes line_len on
/// each epoch bump — so a valid cursor always belongs to a view resolved
/// at the current epoch, and the Span's per-access path never reads the
/// epoch itself.
struct LineCursor {
  std::uint64_t line_base = 0;
  std::uint64_t line_len = 0;
  LineCursor* prev = nullptr;  ///< intrusive list of attached cursors
  LineCursor* next = nullptr;
};

class Machine {
 public:
  explicit Machine(const SystemConfig& cfg)
      : cfg_(cfg),
        hbm_(mem::hbm3_spec(cfg.hbm_capacity)),
        ddr_(mem::lpddr5x_spec(cfg.ddr_capacity)),
        gpu_fa_(mem::Node::kGpu, cfg.hbm_capacity),
        cpu_fa_(mem::Node::kCpu, cfg.ddr_capacity),
        system_pt_(cfg.system_page_size),
        gpu_pt_(pagetable::kGpuPageSize),
        smmu_(system_pt_, pagetable::SmmuCosts{}, cfg.cpu_tlb_entries,
              cfg.ats_tlb_entries),
        gmmu_(gpu_pt_, smmu_, pagetable::GmmuCosts{}, cfg.gpu_utlb_entries,
              cfg.gpu_utlb_entries) {
    events_.set_enabled(cfg.event_log);
    as_.set_materialize(cfg.materialize_backing);
    gpu_fa_.reserve_baseline(cfg.gpu_driver_baseline);
    met_ = obs::bind_memsys_metrics(obs_);
    const std::pair<pagetable::Tlb*, const char*> tlbs[] = {
        {&smmu_.cpu_tlb(), "smmu_cpu"}, {&smmu_.ats_tlb(), "smmu_ats"},
        {&gmmu_.utlb_gpu(), "gmmu_gpu"}, {&gmmu_.utlb_sys(), "gmmu_ats"}};
    for (const auto& [tlb, mmu] : tlbs) {
      tlb->bind_metrics(&obs_.counter("ghum_tlb_hits_total", {{"mmu", mmu}}),
                        &obs_.counter("ghum_tlb_misses_total", {{"mmu", mmu}}));
    }
  }

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // --- component access ---------------------------------------------------
  [[nodiscard]] const SystemConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] sim::Clock& clock() noexcept { return clock_; }
  [[nodiscard]] const sim::Clock& clock() const noexcept { return clock_; }
  [[nodiscard]] sim::EventLog& events() noexcept { return events_; }
  [[nodiscard]] mem::MemoryDevice& hbm() noexcept { return hbm_; }
  [[nodiscard]] mem::MemoryDevice& ddr() noexcept { return ddr_; }
  [[nodiscard]] mem::MemoryDevice& device(mem::Node n) noexcept {
    return n == mem::Node::kGpu ? hbm_ : ddr_;
  }
  [[nodiscard]] mem::FrameAllocator& frames(mem::Node n) noexcept {
    return n == mem::Node::kGpu ? gpu_fa_ : cpu_fa_;
  }
  [[nodiscard]] interconnect::NvlinkC2C& c2c() noexcept { return c2c_; }
  [[nodiscard]] const interconnect::NvlinkC2C& c2c() const noexcept { return c2c_; }
  [[nodiscard]] pagetable::PageTable& system_pt() noexcept { return system_pt_; }
  [[nodiscard]] pagetable::PageTable& gpu_pt() noexcept { return gpu_pt_; }
  [[nodiscard]] pagetable::Smmu& smmu() noexcept { return smmu_; }
  [[nodiscard]] pagetable::Gmmu& gmmu() noexcept { return gmmu_; }
  [[nodiscard]] os::AddressSpace& address_space() noexcept { return as_; }

  // --- observability (DESIGN.md Section 9) ---------------------------------
  /// The deterministic metrics registry. Always on: instruments are plain
  /// integer increments, cheap enough for production-style runs.
  [[nodiscard]] obs::MetricsRegistry& obs() noexcept { return obs_; }
  [[nodiscard]] const obs::MetricsRegistry& obs() const noexcept { return obs_; }
  /// Cached hot-path instrument handles (bound once at construction).
  [[nodiscard]] obs::MemSysMetrics& metrics() noexcept { return met_; }
  /// Read-only dotted-name view of the registry's counters
  /// (stats().get("os.fault.cpu_first_touch")); counting goes through
  /// metrics(), never through this view.
  [[nodiscard]] obs::StatsView stats() const noexcept { return obs::StatsView{obs_}; }

  /// Refreshes the registry's sampled gauges (frame occupancy, RSS/VRAM,
  /// link byte totals, per-tenant attribution families) from the live
  /// machine state. Called before exposition (System::metrics_json /
  /// metrics_prometheus), not on hot paths.
  void sync_obs_gauges();

  /// Installed by core::System when cfg.faults.enabled. The injector gets a
  /// veto on every frame allocation (transient ENOMEM / allocation-retry
  /// paths in the real driver); nullptr means no injection.
  void set_fault_injector(fault::FaultInjector* fi) noexcept { fi_ = fi; }
  [[nodiscard]] fault::FaultInjector* fault_injector() const noexcept { return fi_; }

  /// Bumped on every residency change; spans use it to invalidate their
  /// cached page resolutions when a migration lands mid-kernel.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// Advances the epoch and drops the line cursor of every attached Span,
  /// so each one's next access re-checks its page view.
  void bump_epoch() noexcept {
    ++epoch_;
    drop_cursors();
  }

  /// Registers / unregisters a Span's line cursor. A cursor stays attached
  /// for its Span's whole lifetime, so a Span must not outlive its Machine.
  void attach(LineCursor& c) noexcept {
    c.prev = nullptr;
    c.next = cursors_;
    if (cursors_ != nullptr) cursors_->prev = &c;
    cursors_ = &c;
  }
  void detach(LineCursor& c) noexcept {
    (c.prev != nullptr ? c.prev->next : cursors_) = c.next;
    if (c.next != nullptr) c.next->prev = c.prev;
  }

  // --- multi-tenant attribution (DESIGN.md Section 8) ----------------------
  /// Tenant whose quantum is executing. Set by tenant::Scheduler (through
  /// core::System) around each resume; kNoTenant for single-app runs. New
  /// VMAs and logged events are stamped with it, and eviction attribution
  /// treats it as the perpetrator.
  void set_current_tenant(tenant::TenantId t) noexcept { events_.set_current_tenant(t); }
  [[nodiscard]] tenant::TenantId current_tenant() const noexcept {
    return events_.current_tenant();
  }

  /// Per-tenant resource ledger (frames, faults, migrations, evictions),
  /// fed by the transition helpers below and the policy layers.
  [[nodiscard]] tenant::AttributionTable& attribution() noexcept {
    return attribution_;
  }
  [[nodiscard]] const tenant::AttributionTable& attribution() const noexcept {
    return attribution_;
  }

  /// GPU used memory as nvidia-smi reports it: all GPU frames in use,
  /// including the driver baseline (paper Section 3.2).
  [[nodiscard]] std::uint64_t gpu_used_bytes() const noexcept { return gpu_fa_.used(); }
  /// Process RSS as /proc/<pid>/smaps_rollup reports it.
  [[nodiscard]] std::uint64_t cpu_rss_bytes() const noexcept { return as_.rss_bytes(); }

  // --- system-page transitions ---------------------------------------------
  /// Bytes of physical frame charged for the system page at \p page_va
  /// (full page even when the VMA tail only covers part of it).
  [[nodiscard]] std::uint64_t system_page_bytes() const noexcept {
    return system_pt_.page_size();
  }

  /// Maps the system page containing \p va on \p node. Returns false when
  /// the node's frames are exhausted (caller decides the fallback policy).
  [[nodiscard]] bool map_system_page(os::Vma& vma, std::uint64_t va, mem::Node node);

  /// Moves a present system page to \p to. Returns false when frames on
  /// \p to are exhausted (page stays put).
  [[nodiscard]] bool move_system_page(os::Vma& vma, std::uint64_t va, mem::Node to);

  // --- bulk system-page transitions -----------------------------------------
  // Range helpers splice whole extents: one page-table operation, one frame
  // accounting update and one TLB range shootdown per contiguous segment
  // instead of per page. Their observable behaviour (pages mapped/moved,
  // allocator state, TLB entries dropped) is bit-identical to the per-page
  // loops they replace; when a fault injector is active and not suppressed
  // they *fall back* to the per-page helpers so the injector's RNG stream
  // is consumed identically.

  /// Per-node page counts from a bulk operation.
  struct RangePages {
    std::uint64_t cpu = 0;
    std::uint64_t gpu = 0;
    [[nodiscard]] std::uint64_t total() const noexcept { return cpu + gpu; }
  };
  /// Outcome of a bulk map: pages newly mapped, and whether every hole in
  /// the range was populated (false: frames ran out part-way, prefix
  /// semantics — nothing after the failure point was touched).
  struct BulkMapResult {
    std::uint64_t mapped = 0;
    bool complete = true;
  };
  /// Outcome of a bulk move: pages moved, and whether the destination ran
  /// out of frames before the budget/range was exhausted.
  struct BulkMoveResult {
    std::uint64_t moved = 0;
    bool dst_exhausted = false;
  };

  /// Maps every *unmapped* page in [page_base(va), +pages) on \p node,
  /// stopping at the first page the frame allocator cannot satisfy
  /// (already-present pages are skipped, like the per-page loops did).
  BulkMapResult map_system_range(os::Vma& vma, std::uint64_t va,
                                 std::uint64_t pages, mem::Node node);

  /// Unmaps every *mapped* page in the range, releasing frames per node.
  RangePages unmap_system_range(os::Vma& vma, std::uint64_t va,
                                std::uint64_t pages);

  /// Moves up to \p max_pages mapped pages in the range to \p to (pages
  /// already there are skipped and do not consume budget), stopping when
  /// \p to runs out of frames.
  BulkMoveResult move_system_range(os::Vma& vma, std::uint64_t va,
                                   std::uint64_t pages, mem::Node to,
                                   std::uint64_t max_pages);

  // --- GPU-page-table block transitions -------------------------------------
  /// Size charged for the 2 MiB block containing \p va within \p vma
  /// (clipped to the VMA end so short managed tails don't over-charge HBM).
  [[nodiscard]] std::uint64_t gpu_block_bytes(const os::Vma& vma,
                                              std::uint64_t block_va) const;

  /// Maps a 2 MiB GPU-page-table block (managed or cudaMalloc ranges).
  [[nodiscard]] bool map_gpu_block(os::Vma& vma, std::uint64_t block_va);

  /// Unmaps a present GPU block, releasing its frames.
  void unmap_gpu_block(os::Vma& vma, std::uint64_t block_va);

 private:
  SystemConfig cfg_;
  sim::Clock clock_;
  sim::EventLog events_{clock_};
  mem::MemoryDevice hbm_;
  mem::MemoryDevice ddr_;
  mem::FrameAllocator gpu_fa_;
  mem::FrameAllocator cpu_fa_;
  interconnect::NvlinkC2C c2c_;
  pagetable::PageTable system_pt_;
  pagetable::PageTable gpu_pt_;
  pagetable::Smmu smmu_;
  pagetable::Gmmu gmmu_;
  os::AddressSpace as_;
  obs::MetricsRegistry obs_;
  obs::MemSysMetrics met_;
  fault::FaultInjector* fi_ = nullptr;
  std::uint64_t epoch_ = 0;
  LineCursor* cursors_ = nullptr;
  tenant::AttributionTable attribution_;

  /// Books one residency transition of \p vma in the address space and in
  /// its tenant's attribution alike.
  void note_resident(os::Vma& vma, std::int64_t cpu_delta, std::int64_t gpu_delta);

  void drop_cursors() noexcept {
    for (LineCursor* c = cursors_; c != nullptr; c = c->next) c->line_len = 0;
  }

  friend class ghum::chk::Snapshotter;
};

}  // namespace ghum::core
