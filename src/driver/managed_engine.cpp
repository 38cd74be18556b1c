#include "driver/managed_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "fault/fault_injector.hpp"
#include "fault/status.hpp"

namespace ghum::driver {

namespace {
constexpr std::uint64_t kBlock = pagetable::kGpuPageSize;
}

os::Vma& ManagedEngine::allocate(std::uint64_t bytes, std::string label) {
  const auto& costs = m_->config().costs;
  os::Vma& vma = m_->address_space().create(bytes, os::AllocKind::kManaged, kBlock,
                                            std::move(label), m_->current_tenant());
  // VA-range bookkeeping happens at system-page granularity (the managed
  // range is registered with the OS too), which is where managed memory's
  // small but measurable 4 KiB allocation overhead comes from (Figure 8's
  // decaying managed speedup).
  const std::uint64_t page = m_->system_pt().page_size();
  const std::uint64_t pages = (bytes + page - 1) / page;
  m_->clock().advance(costs.managed_alloc_base +
                      costs.alloc_per_page * static_cast<sim::Picos>(pages));
  m_->events().record(sim::EventType::kAllocation, vma.base, bytes,
                      static_cast<std::uint32_t>(vma.kind));
  return vma;
}

void ManagedEngine::release_gpu_blocks(os::Vma& vma) {
  const auto& costs = m_->config().costs;
  std::uint64_t released = 0;
  for (std::uint64_t block = m_->gpu_pt().page_base(vma.base); block < vma.end();
       block += kBlock) {
    if (m_->gpu_pt().lookup(block) == nullptr) continue;
    m_->unmap_gpu_block(vma, block);
    forget_block(block);
    ++released;
  }
  m_->clock().advance(costs.unmap_per_page * static_cast<sim::Picos>(released));
  vma_state_.erase(vma.base);
}

ManagedResolution ManagedEngine::gpu_fault(os::Vma& vma, std::uint64_t va) {
  // The replayable fault is a causal root: migrations, evictions and
  // retries triggered while servicing it inherit its span.
  sim::SpanScope span{m_->events()};
  m_->metrics().gpu_fault_requests->inc();
  // Observe the full service latency on every exit path.
  struct LatencyProbe {
    core::Machine* m;
    obs::Histogram* h;
    sim::Picos start;
    ~LatencyProbe() {
      h->observe(static_cast<std::uint64_t>(m->clock().now() - start));
    }
  } probe{m_, m_->metrics().fault_latency_gpu_managed, m_->clock().now()};
  m_->attribution().note_fault(vma.tenant, /*gpu_origin=*/true);
  const std::uint64_t block_base = m_->gpu_pt().page_base(va);
  VmaState& vs = vma_state_[vma.base];

  auto remote_resolve = [&]() -> ManagedResolution {
    // Thrash guard: map the data remotely instead of migrating. Pages that
    // were never touched still need CPU frames the first time. This is the
    // last-resort placement, so injection is suppressed here — only a
    // genuinely full CPU makes it fail.
    if (m_->system_pt().lookup(va) == nullptr) {
      fault::FaultInjector::ScopedSuppress guard{m_->fault_injector()};
      if (!m_->map_system_page(vma, va, mem::Node::kCpu)) {
        m_->metrics().oom_events->inc();
        m_->metrics().oom_page_fault->inc();
        m_->events().record(sim::EventType::kOutOfMemory, va,
                            m_->system_page_bytes());
        throw StatusError{Status::kErrorOutOfMemory,
                          "managed remote map: CPU memory exhausted"};
      }
      m_->clock().advance(m_->config().costs.cpu_minor_fault);
    }
    return ManagedResolution{.node = mem::Node::kCpu, .remote_mapped = true};
  };

  if (vs.remote_mode) return remote_resolve();

  // cudaMemAdvise interactions.
  if (vma.read_mostly) {
    if (make_replica(vma, block_base, /*protect=*/{})) {
      touch_gpu_block(block_base);
      return ManagedResolution{.node = mem::Node::kGpu, .remote_mapped = false};
    }
    return remote_resolve();
  }
  if (vma.preferred_location == mem::Node::kCpu) {
    // The range is pinned to CPU memory: the driver maps it remotely
    // instead of migrating (coherent access over C2C).
    return remote_resolve();
  }

  const std::uint64_t need = m_->gpu_block_bytes(vma, block_base);
  if (m_->frames(mem::Node::kGpu).free_bytes() < need) {
    if (!ensure_gpu_room(need, block_base)) {
      enter_remote_mode(vma);
      return remote_resolve();
    }
    // Heavy eviction churn on this allocation flips it to remote mapping
    // (UVM's thrashing mitigation), reproducing the paper's oversubscribed
    // steady state (Section 7).
    if (vma_state_[vma.base].evicted_bytes >= vma.size) {
      enter_remote_mode(vma);
      return remote_resolve();
    }
  }

  if (!block_to_gpu(vma, block_base, /*via_fault=*/true)) {
    // Migration denied (injected frame denial or batch abort): serve the
    // access remotely this time instead of failing the kernel.
    return remote_resolve();
  }
  touch_gpu_block(block_base);
  return ManagedResolution{.node = mem::Node::kGpu, .remote_mapped = false};
}

mem::Node ManagedEngine::cpu_fault(os::Vma& vma, std::uint64_t va) {
  sim::SpanScope span{m_->events()};
  m_->metrics().cpu_fault_requests->inc();
  m_->attribution().note_fault(vma.tenant, /*gpu_origin=*/false);
  const std::uint64_t block_base = m_->gpu_pt().page_base(va);
  if (m_->gpu_pt().lookup(block_base) != nullptr) {
    if (vma.preferred_location == mem::Node::kGpu) {
      // Pinned to the GPU: the CPU reads it remotely over C2C instead of
      // pulling the block back.
      m_->clock().advance(m_->config().costs.cpu_minor_fault);
      return mem::Node::kGpu;
    }
    if (!block_to_cpu(vma, block_base, /*is_eviction=*/false)) {
      // CPU cannot absorb the block (or the batch aborted): the data stays
      // GPU-resident and this access is served coherently over C2C.
      m_->clock().advance(m_->config().costs.cpu_minor_fault);
      return mem::Node::kGpu;
    }
    return mem::Node::kCpu;
  }
  if (vma.preferred_location == mem::Node::kGpu) {
    // First touch of a GPU-preferred range from the CPU: populate at the
    // preferred location and access it remotely.
    const std::uint64_t need = m_->gpu_block_bytes(vma, block_base);
    if ((m_->frames(mem::Node::kGpu).free_bytes() >= need ||
         ensure_gpu_room(need, block_base)) &&
        block_to_gpu(vma, block_base, /*via_fault=*/true)) {
      touch_gpu_block(block_base);
      return mem::Node::kGpu;
    }
    // No room at the preferred location: fall back to CPU placement.
  }
  // Plain CPU first-touch: managed pages on the CPU live in the system
  // page table like malloc'd pages.
  pf_->first_touch(vma, va, mem::Node::kCpu);
  return mem::Node::kCpu;
}

bool ManagedEngine::make_replica(os::Vma& vma, std::uint64_t block_base,
                                 const std::set<std::uint64_t>& protect) {
  const auto& costs = m_->config().costs;
  const std::uint64_t need = m_->gpu_block_bytes(vma, block_base);
  if (m_->frames(mem::Node::kGpu).free_bytes() < need &&
      !ensure_gpu_room(need, block_base, protect)) {
    return false;
  }
  // The CPU copy stays authoritative; untouched pages materialize on the
  // CPU first (zero-fill semantics), then the block is duplicated.
  const std::uint64_t page = m_->system_pt().page_size();
  const std::uint64_t stop = std::min(block_base + kBlock, vma.end());
  for (std::uint64_t va = block_base; va < stop; va += page) {
    if (m_->system_pt().lookup(va) == nullptr) {
      (void)pf_->first_touch(vma, va, mem::Node::kCpu);
    }
  }
  if (!m_->map_gpu_block(vma, block_base)) {
    // Frames denied (injection) or raced away: no replica this time — the
    // caller serves the access from the authoritative CPU copy.
    return false;
  }
  const std::uint64_t bytes = m_->gpu_block_bytes(vma, block_base);
  const sim::Picos dt =
      costs.managed_fault_batch +
      mig_->bulk_copy_time(interconnect::Direction::kCpuToGpu, bytes);
  m_->clock().advance(dt);
  register_block(block_base);
  replicas_.insert(block_base);
  auto& met = m_->metrics();
  met.replicas_created->inc();
  met.migrations_h2d->inc();
  met.migrated_bytes_h2d->inc(bytes);
  met.migration_batch_bytes_h2d->observe(bytes);
  met.migration_latency_h2d->observe(static_cast<std::uint64_t>(dt));
  m_->events().record(sim::EventType::kMigrationH2D, block_base, bytes,
                      1 /* read-duplication */);
  return true;
}

void ManagedEngine::collapse_replica(os::Vma& vma, std::uint64_t block_base) {
  if (!replicas_.contains(block_base)) return;
  m_->unmap_gpu_block(vma, block_base);
  forget_block(block_base);
  m_->clock().advance(m_->config().costs.unmap_per_page);
  m_->metrics().replicas_collapsed->inc();
}

void ManagedEngine::collapse_all_replicas(os::Vma& vma) {
  for (std::uint64_t block = m_->gpu_pt().page_base(vma.base); block < vma.end();
       block += kBlock) {
    if (replicas_.contains(block)) collapse_replica(vma, block);
  }
}

void ManagedEngine::touch_gpu_block(std::uint64_t block_base) {
  auto it = blocks_.find(block_base);
  if (it == blocks_.end() || it->second == lru_.begin()) return;
  lru_.splice(lru_.begin(), lru_, it->second);
}

void ManagedEngine::prefetch(os::Vma& vma, std::uint64_t base, std::uint64_t len,
                             mem::Node dst) {
  // The explicit hint is a causal root for the migrations it issues.
  sim::SpanScope span{m_->events()};
  const auto& costs = m_->config().costs;
  m_->clock().advance(costs.memcpy_base);
  // Blocks this call holds; making room for its later blocks spares them.
  std::set<std::uint64_t> protect;
  const std::uint64_t start = m_->gpu_pt().page_base(std::max(base, vma.base));
  const std::uint64_t stop = std::min(base + len, vma.end());
  std::uint64_t moved = 0;
  bool fully_resident = true;
  for (std::uint64_t block = start; block < stop; block += kBlock) {
    const bool on_gpu = m_->gpu_pt().lookup(block) != nullptr;
    if (dst == mem::Node::kGpu) {
      if (on_gpu) {
        // Prefetching a range never evicts already-resident parts of that
        // same range to make room for its tail.
        protect.insert(block);
        continue;
      }
      if (vma.read_mostly) {
        // Prefetch of a read-mostly range creates replicas (CUDA
        // semantics: the CPU copy stays valid).
        if (!make_replica(vma, block, protect)) {
          fully_resident = false;
          break;
        }
        protect.insert(block);
        moved += m_->gpu_block_bytes(vma, block);
        continue;
      }
      const std::uint64_t need = m_->gpu_block_bytes(vma, block);
      if (m_->frames(mem::Node::kGpu).free_bytes() < need &&
          !ensure_gpu_room(need, block, protect)) {
        // GPU exhausted (everything evictable is protected by this very
        // call): prefetch what fits and leave the rest CPU-resident.
        fully_resident = false;
        break;
      }
      if (!block_to_gpu(vma, block, /*via_fault=*/false)) {
        fully_resident = false;
        break;
      }
      touch_gpu_block(block);
      protect.insert(block);
      moved += need;
    } else {
      if (!on_gpu) continue;
      if (!block_to_cpu(vma, block, /*is_eviction=*/false)) continue;
      moved += m_->gpu_block_bytes(vma, block);
    }
  }
  if (dst == mem::Node::kGpu && fully_resident) {
    // A fully satisfied hint re-arms migration for this allocation; a
    // partial prefetch keeps the thrash guard engaged so the non-resident
    // remainder stays remote-mapped instead of churning evictions.
    VmaState& vs = vma_state_[vma.base];
    vs.remote_mode = false;
    vs.evicted_bytes = 0;
  }
  m_->metrics().prefetches->inc();
  m_->metrics().prefetched_bytes->inc(moved);
  m_->events().record(sim::EventType::kExplicitPrefetch, start, moved,
                      dst == mem::Node::kGpu ? 1u : 0u);
}

bool ManagedEngine::remote_mode(const os::Vma& vma) const {
  auto it = vma_state_.find(vma.base);
  return it != vma_state_.end() && it->second.remote_mode;
}

bool ManagedEngine::ensure_gpu_room(std::uint64_t bytes, std::uint64_t keep_block,
                                    const std::set<std::uint64_t>& protect) {
  std::size_t skipped = 0;
  while (m_->frames(mem::Node::kGpu).free_bytes() < bytes) {
    if (lru_.size() <= skipped) return false;
    std::uint64_t victim = lru_.back();
    if (victim == keep_block || protect.contains(victim)) {
      // Never evict the block being serviced or a block the in-flight
      // prefetch just brought in.
      ++skipped;
      lru_.splice(lru_.begin(), lru_, std::prev(lru_.end()));
      continue;
    }
    os::Vma* vma = m_->address_space().find(victim);
    if (vma == nullptr) throw std::logic_error{"ManagedEngine: stale LRU block"};
    if (replicas_.contains(victim)) {
      // Read replicas are dropped for free (the CPU copy is authoritative)
      // and do not count toward the thrash guard.
      collapse_replica(*vma, victim);
      continue;
    }
    const std::uint64_t block_bytes = m_->gpu_block_bytes(*vma, victim);
    if (!block_to_cpu(*vma, victim, /*is_eviction=*/true)) {
      // The victim cannot be written back right now (CPU exhausted or the
      // injected batch aborted): rotate it out of eviction's way and try
      // the next-least-recently-used block.
      ++skipped;
      lru_.splice(lru_.begin(), lru_, std::prev(lru_.end()));
      m_->metrics().evictions_blocked->inc();
      continue;
    }
    vma_state_[vma->base].evicted_bytes += block_bytes;
  }
  return true;
}

void ManagedEngine::enter_remote_mode(os::Vma& vma) {
  VmaState& vs = vma_state_[vma.base];
  if (vs.remote_mode) return;
  vs.remote_mode = true;
  m_->metrics().remote_mode_entries->inc();
  // Pin-to-sysmem: write back whatever is still GPU-resident so the whole
  // range is served over NVLink-C2C from now on. Replicas just drop (the
  // CPU copy is authoritative).
  for (std::uint64_t block = m_->gpu_pt().page_base(vma.base); block < vma.end();
       block += kBlock) {
    if (m_->gpu_pt().lookup(block) == nullptr) continue;
    if (replicas_.contains(block)) {
      collapse_replica(vma, block);
    } else if (!block_to_cpu(vma, block, /*is_eviction=*/true)) {
      // Writeback blocked: the block stays GPU-resident (still correct —
      // GPU accesses hit it locally, CPU accesses retry the writeback).
      continue;
    }
  }
}

bool ManagedEngine::block_to_cpu(os::Vma& vma, std::uint64_t block_base,
                                 bool is_eviction) {
  const auto& costs = m_->config().costs;
  const std::uint64_t page = m_->system_pt().page_size();
  const std::uint64_t stop = std::min(block_base + kBlock, vma.end());
  const std::uint64_t n_pages = (stop - block_base + page - 1) / page;

  // Check both failure sources *before* touching any state, so a refused
  // writeback leaves the block intact on the GPU.
  if (m_->frames(mem::Node::kCpu).free_bytes() < n_pages * page) return false;
  if (!mig_->batch_with_retry(block_base)) return false;

  const std::uint64_t bytes = m_->gpu_block_bytes(vma, block_base);
  m_->unmap_gpu_block(vma, block_base);
  forget_block(block_base);

  std::uint64_t pages = 0;
  {
    // The room was verified above; injection must not re-fail the cure
    // mid-way (that would strand a half-written-back block). Suppression
    // also makes the bulk splice RNG-equivalent to the per-page loop.
    fault::FaultInjector::ScopedSuppress guard{m_->fault_injector()};
    const auto r = m_->map_system_range(vma, block_base, n_pages, mem::Node::kCpu);
    if (!r.complete) {
      throw StatusError{Status::kErrorOutOfMemory,
                        "managed writeback: CPU frames vanished mid-transfer"};
    }
    pages = r.mapped;
  }

  const sim::Picos dt =
      mig_->copy_time(interconnect::Direction::kGpuToCpu, bytes) +
      costs.migrate_per_page * static_cast<sim::Picos>(pages) +
      (is_eviction ? costs.evict_per_block : costs.managed_fault_batch);
  m_->clock().advance(dt);
  auto& met = m_->metrics();
  if (is_eviction) {
    met.evictions->inc();
    met.evicted_bytes->inc(bytes);
    met.eviction_batch_bytes->observe(bytes);
    if (m_->current_tenant() != vma.tenant) met.cross_tenant_evictions->inc();
    // Who-evicted-whom: the tenant whose demand needed the room is the one
    // whose quantum is executing; the victim is the block's owner.
    m_->attribution().note_eviction(m_->current_tenant(), vma.tenant, bytes);
  } else {
    met.migrations_d2h->inc();
    met.migrated_bytes_d2h->inc(bytes);
    met.migration_batch_bytes_d2h->observe(bytes);
    met.migration_latency_d2h->observe(static_cast<std::uint64_t>(dt));
    m_->attribution().note_migration(vma.tenant, /*h2d=*/false, bytes);
  }
  m_->events().record(
      is_eviction ? sim::EventType::kEviction : sim::EventType::kMigrationD2H,
      block_base, bytes, is_eviction ? vma.tenant : 0);
  return true;
}

bool ManagedEngine::block_to_gpu(os::Vma& vma, std::uint64_t block_base,
                                 bool via_fault) {
  const auto& costs = m_->config().costs;
  const std::uint64_t page = m_->system_pt().page_size();
  const std::uint64_t stop = std::min(block_base + kBlock, vma.end());

  // Count what would move so the migration-batch gate only fires on actual
  // copies (a pure GPU first touch moves nothing). One extent range query,
  // not a per-page scan.
  const std::uint64_t span_pages = (stop - block_base + page - 1) / page;
  const std::uint64_t present =
      m_->system_pt().resident_pages_in_range(block_base, span_pages);
  if (present > 0 && !mig_->batch_with_retry(block_base)) return false;

  // Claim the GPU block *before* unmapping the CPU side: if frames are
  // denied or exhausted, residency is completely unchanged.
  if (!m_->map_gpu_block(vma, block_base)) return false;

  const std::uint64_t pages =
      m_->unmap_system_range(vma, block_base, span_pages).total();
  const std::uint64_t moved_bytes = pages * page;
  const std::uint64_t block_bytes = m_->gpu_block_bytes(vma, block_base);

  sim::Picos t = 0;
  if (via_fault) {
    std::uint64_t batches;
    if (moved_bytes == 0) {
      // Pure GPU first touch: nothing to migrate, the driver maps the whole
      // block off a single fault batch. This is why managed memory
      // initializes fast for GPU-initialized apps (Section 5.1.2).
      batches = 1;
    } else if (prefetcher_.enabled() && vma_state_[vma.base].migrated_blocks > 0) {
      // Warmed-up tree prefetcher: steady-state migration costs ~2 fault
      // batches per block instead of the full 64K->2M doubling ramp.
      batches = 2;
    } else {
      batches = prefetcher_.fault_batches(block_bytes);
    }
    t += costs.managed_fault_batch * static_cast<sim::Picos>(batches);
  }
  if (moved_bytes > 0) {
    t += via_fault ? mig_->copy_time(interconnect::Direction::kCpuToGpu, moved_bytes)
                   : mig_->bulk_copy_time(interconnect::Direction::kCpuToGpu, moved_bytes);
    t += costs.migrate_per_page * static_cast<sim::Picos>(pages);
    ++vma_state_[vma.base].migrated_blocks;
  }
  if (block_bytes > moved_bytes) {
    // First-touch part of the block is cleared in HBM at device bandwidth.
    t += m_->hbm().write_time(block_bytes - moved_bytes);
  }
  m_->clock().advance(t);

  register_block(block_base);
  auto& met = m_->metrics();
  if (via_fault) {
    met.faults_gpu_managed->inc();
    m_->events().record(sim::EventType::kGpuManagedFault, block_base, block_bytes);
  }
  if (moved_bytes > 0) {
    met.migrations_h2d->inc();
    met.migrated_bytes_h2d->inc(moved_bytes);
    met.migration_batch_bytes_h2d->observe(moved_bytes);
    met.migration_latency_h2d->observe(static_cast<std::uint64_t>(t));
    m_->events().record(sim::EventType::kMigrationH2D, block_base, moved_bytes);
    m_->attribution().note_migration(vma.tenant, /*h2d=*/true, moved_bytes);
  }
  met.managed_h2d_bytes->inc(moved_bytes);
  return true;
}

void ManagedEngine::register_block(std::uint64_t block_base) {
  lru_.push_front(block_base);
  blocks_[block_base] = lru_.begin();
}

void ManagedEngine::forget_block(std::uint64_t block_base) {
  replicas_.erase(block_base);
  auto it = blocks_.find(block_base);
  if (it == blocks_.end()) return;
  lru_.erase(it->second);
  blocks_.erase(it);
}

}  // namespace ghum::driver
