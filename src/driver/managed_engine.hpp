#pragma once

#include <cstdint>
#include <list>
#include <set>
#include <string>
#include <unordered_map>

#include "core/machine.hpp"
#include "driver/migration_engine.hpp"
#include "driver/prefetcher.hpp"
#include "os/page_fault.hpp"

/// \file managed_engine.hpp
/// The CUDA managed memory engine (paper Section 2.3): cudaMallocManaged
/// allocations live in a single shared virtual address space but hop
/// between the *system page table* (CPU-resident parts, system page size)
/// and the *GPU-exclusive page table* (GPU-resident parts, 2 MiB blocks).
///
/// Behaviours reproduced:
///  - first-touch placement: CPU touch -> system PTE on CPU; GPU touch ->
///    2 MiB GPU block mapped directly (no migration), which is why managed
///    memory initializes fast for GPU-initialized apps (Section 5.1.2);
///  - on-demand migration: a GPU access to CPU-resident managed data takes
///    a GMMU fault and migrates the 2 MiB block in (Section 2.3.1);
///  - CPU access to GPU-resident data migrates the block back;
///  - LRU eviction under GPU memory pressure;
///  - a thrash guard: once a VMA's eviction volume exceeds its own size,
///    further GPU faults map the data *remotely* instead of migrating —
///    reproducing the oversubscribed 34-qubit behaviour where "no page is
///    migrated and all data is accessed over NVLink-C2C at a low
///    bandwidth" (Section 7);
///  - explicit prefetch (cudaMemPrefetchAsync), which migrates at full
///    link bandwidth without fault overhead and re-arms migration.

namespace ghum::chk {
class Snapshotter;
}  // namespace ghum::chk

namespace ghum::driver {

/// How a GPU access to a managed page got resolved.
struct ManagedResolution {
  mem::Node node = mem::Node::kGpu;
  bool remote_mapped = false;  ///< thrash-guard remote mapping (stays on CPU)
};

class ManagedEngine {
 public:
  ManagedEngine(core::Machine& m, MigrationEngine& mig, os::PageFaultHandler& pf)
      : m_(&m),
        mig_(&mig),
        pf_(&pf),
        prefetcher_(m.config().managed_prefetch) {}

  /// cudaMallocManaged(): lazy VMA, 2 MiB aligned.
  os::Vma& allocate(std::uint64_t bytes, std::string label);

  /// Releases all GPU-resident blocks of \p vma (the system-page part is
  /// torn down by os::SystemAllocator afterwards).
  void release_gpu_blocks(os::Vma& vma);

  /// Resolves a faulting GPU access (page absent from the GPU page table).
  /// Honours cudaMemAdvise state: a CPU preferred location remote-maps
  /// instead of migrating; read-mostly ranges get a GPU read replica.
  ManagedResolution gpu_fault(os::Vma& vma, std::uint64_t va);

  /// Resolves a faulting CPU access (page absent from the system page
  /// table): plain CPU first-touch, migration of a GPU block back, or —
  /// for GPU-preferred ranges — a coherent remote mapping (returns the
  /// node the access is served from).
  mem::Node cpu_fault(os::Vma& vma, std::uint64_t va);

  // --- read duplication (cudaMemAdviseSetReadMostly) -----------------------
  /// True when the 2 MiB block at \p block_base is a GPU read replica
  /// (CPU copy remains authoritative in the system page table).
  [[nodiscard]] bool is_replica(std::uint64_t block_base) const {
    return replicas_.contains(block_base);
  }
  /// Drops the GPU replica (a write happened, or pressure/unadvise).
  void collapse_replica(os::Vma& vma, std::uint64_t block_base);
  /// Drops every replica of \p vma (cudaMemAdviseUnsetReadMostly).
  void collapse_all_replicas(os::Vma& vma);
  [[nodiscard]] std::size_t replica_count() const noexcept { return replicas_.size(); }

  /// LRU bookkeeping: the GPU touched a resident block.
  void touch_gpu_block(std::uint64_t block_base);

  /// cudaMemPrefetchAsync-style explicit migration of [base, base+len).
  void prefetch(os::Vma& vma, std::uint64_t base, std::uint64_t len, mem::Node dst);

  // Reads of the machine's counters.
  [[nodiscard]] std::uint64_t evictions() const noexcept {
    return m_->metrics().evictions->value();
  }
  [[nodiscard]] std::uint64_t gpu_faults() const noexcept {
    return m_->metrics().gpu_fault_requests->value();
  }
  [[nodiscard]] std::uint64_t cpu_faults() const noexcept {
    return m_->metrics().cpu_fault_requests->value();
  }
  [[nodiscard]] std::size_t resident_blocks() const noexcept { return blocks_.size(); }

  /// True when \p vma is operating in remote-map mode (thrash guard hit).
  [[nodiscard]] bool remote_mode(const os::Vma& vma) const;

  /// Evicts managed blocks until \p bytes of GPU frames are free (used by
  /// core::System to vacate frames for ECC retirement and by cudaMalloc's
  /// allocation path). Returns false when pressure cannot be relieved.
  bool make_room(std::uint64_t bytes) {
    return ensure_gpu_room(bytes, /*keep_block=*/~0ull);
  }

 private:
  struct VmaState {
    std::uint64_t evicted_bytes = 0;
    std::uint64_t migrated_blocks = 0;  ///< prefetcher warm-up state
    bool remote_mode = false;
  };

  /// Evicts LRU blocks (excluding \p keep_block and the blocks in
  /// \p protect, which an in-flight prefetch holds) until \p bytes fit on
  /// the GPU. Returns false if pressure cannot be relieved.
  bool ensure_gpu_room(std::uint64_t bytes, std::uint64_t keep_block,
                       const std::set<std::uint64_t>& protect = {});

  /// Thrash-guard entry: models UVM's thrashing mitigation, which pins the
  /// range to system memory — remaining GPU-resident blocks of \p vma are
  /// written back so the whole range is served remotely afterwards
  /// (paper Section 7: the oversubscribed managed steady state accesses
  /// everything over NVLink-C2C).
  void enter_remote_mode(os::Vma& vma);

  /// Moves one GPU-resident block back to CPU system pages (eviction or
  /// CPU-fault path). Charges copy + overhead. Returns false — leaving the
  /// block untouched on the GPU — when the CPU cannot absorb it (frames
  /// exhausted) or the injected migration batch aborts after retries.
  [[nodiscard]] bool block_to_cpu(os::Vma& vma, std::uint64_t block_base,
                                  bool is_eviction);

  /// Migrates/maps one block onto the GPU: maps the GPU block first, then
  /// unmaps its CPU-resident system pages, charging fault batches and copy
  /// time. Returns false — leaving residency unchanged — when GPU frames
  /// are denied/exhausted or the injected migration batch aborts.
  [[nodiscard]] bool block_to_gpu(os::Vma& vma, std::uint64_t block_base,
                                  bool via_fault);

  void register_block(std::uint64_t block_base);
  void forget_block(std::uint64_t block_base);

  /// Builds a GPU read replica of a (CPU-resident) read-mostly block. Returns
  /// false when GPU room cannot be made without evicting \p protect.
  bool make_replica(os::Vma& vma, std::uint64_t block_base,
                    const std::set<std::uint64_t>& protect);

  core::Machine* m_;
  MigrationEngine* mig_;
  os::PageFaultHandler* pf_;
  Prefetcher prefetcher_;

  std::list<std::uint64_t> lru_;  ///< GPU-resident managed block bases; front = MRU
  /// Each resident block's place in lru_.
  std::unordered_map<std::uint64_t, std::list<std::uint64_t>::iterator> blocks_;
  std::unordered_map<std::uint64_t, VmaState> vma_state_;  ///< keyed by vma.base
  /// GPU read replicas of read-mostly blocks (the system page table keeps
  /// the authoritative CPU copy while these exist).
  std::set<std::uint64_t> replicas_;

  friend class ghum::chk::Snapshotter;
};

}  // namespace ghum::driver
