#include "core/system.hpp"

#include <algorithm>
#include <cstring>
#include <new>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

namespace ghum::core {

namespace {
Buffer make_buffer(os::Vma& vma) {
  return Buffer{.va = vma.base, .bytes = vma.size, .host = vma.data.get(),
                .kind = vma.kind};
}
}  // namespace

System::System(SystemConfig cfg)
    : m_(cfg),
      fi_(m_),
      pf_(m_),
      sysalloc_(m_),
      mig_(m_),
      ac_(m_, mig_),
      managed_(m_, mig_, pf_),
      profiler_(m_, cfg.profiler_period),
      link_mon_(m_, cfg.link_monitor_window) {
  if (cfg.system_page_size != pagetable::kSystemPage4K &&
      cfg.system_page_size != pagetable::kSystemPage64K) {
    throw std::invalid_argument{"SystemConfig: Grace supports 4 KiB or 64 KiB pages"};
  }
  if (cfg.profiler_enabled) profiler_.start();
  if (cfg.link_monitor) link_mon_.start();
  if (cfg.faults.enabled) {
    m_.set_fault_injector(&fi_);
    if (fi_.has_link_windows()) {
      // The observer only flips link-degradation state (no clock advance,
      // no eviction), so it is safe to run inside Clock::advance.
      m_.clock().add_observer(
          [this](sim::Picos /*before*/, sim::Picos after) { fi_.on_time_advance(after); });
      fi_.on_time_advance(m_.clock().now());
    }
  }
}

// --- allocation ---------------------------------------------------------------

Buffer System::sys_malloc(std::uint64_t bytes, std::string label) {
  service_faults();
  return make_buffer(sysalloc_.allocate(bytes, std::move(label)));
}

Buffer System::managed_malloc(std::uint64_t bytes, std::string label) {
  ensure_gpu_context();
  service_faults();
  return make_buffer(managed_.allocate(bytes, std::move(label)));
}

Buffer System::gpu_malloc(std::uint64_t bytes, std::string label) {
  Buffer out;
  if (gpu_malloc_status(bytes, out, std::move(label)) != Status::kSuccess) {
    throw std::bad_alloc{};
  }
  return out;
}

Status System::gpu_malloc_status(std::uint64_t bytes, Buffer& out,
                                 std::string label) {
  ensure_gpu_context();
  service_faults();
  const auto& costs = m_.config().costs;
  os::Vma& vma = m_.address_space().create(bytes, os::AllocKind::kGpuOnly,
                                           pagetable::kGpuPageSize, std::move(label),
                                           m_.current_tenant());
  const std::uint64_t blocks =
      (bytes + pagetable::kGpuPageSize - 1) / pagetable::kGpuPageSize;
  m_.clock().advance(costs.gpu_alloc_base +
                     costs.alloc_per_page * static_cast<sim::Picos>(blocks));
  for (std::uint64_t block = vma.base; block < vma.end();
       block += pagetable::kGpuPageSize) {
    bool mapped = false;
    for (int attempt = 0; attempt < 4 && !mapped; ++attempt) {
      mapped = m_.map_gpu_block(vma, block);
      if (mapped) break;
      // Genuinely out of HBM frames: no amount of retrying helps.
      if (m_.frames(mem::Node::kGpu).free_bytes() < m_.gpu_block_bytes(vma, block)) {
        break;
      }
      // Transient injected denial: the driver's allocator retries.
      m_.clock().advance(sim::microseconds(5));
    }
    if (!mapped) {
      // cudaMalloc fails: roll the partial mapping back and report OOM.
      for (std::uint64_t b = vma.base; b < block; b += pagetable::kGpuPageSize) {
        m_.unmap_gpu_block(vma, b);
      }
      m_.address_space().destroy(vma.base);
      m_.metrics().oom_events->inc();
      m_.metrics().oom_gpu_malloc->inc();
      m_.events().record(sim::EventType::kOutOfMemory, block, bytes, 1);
      return Status::kErrorMemoryAllocation;
    }
  }
  m_.events().record(sim::EventType::kAllocation, vma.base, bytes,
                     static_cast<std::uint32_t>(vma.kind));
  out = make_buffer(vma);
  return Status::kSuccess;
}

Buffer System::pinned_malloc(std::uint64_t bytes, std::string label) {
  ensure_gpu_context();
  return make_buffer(sysalloc_.allocate_pinned(bytes, std::move(label)));
}

Status System::free_buffer(Buffer& buf) {
  if (!buf.valid()) return Status::kSuccess;  // cudaFree(nullptr) semantics
  os::Vma* vma = m_.address_space().find_exact(buf.va);
  if (vma == nullptr) {
    return freed_bases_.contains(buf.va) ? Status::kErrorDoubleFree
                                         : Status::kErrorInvalidValue;
  }
  const auto& costs = m_.config().costs;
  switch (vma->kind) {
    case os::AllocKind::kSystem:
    case os::AllocKind::kPinnedHost:
      sysalloc_.deallocate(*vma);
      break;
    case os::AllocKind::kManaged:
      managed_.release_gpu_blocks(*vma);
      sysalloc_.deallocate(*vma);
      break;
    case os::AllocKind::kGpuOnly: {
      for (std::uint64_t block = vma->base; block < vma->end();
           block += pagetable::kGpuPageSize) {
        m_.unmap_gpu_block(*vma, block);
      }
      m_.clock().advance(costs.gpu_free_base);
      m_.address_space().destroy(vma->base);
      break;
    }
  }
  freed_bases_.insert(buf.va);
  buf = Buffer{};
  return Status::kSuccess;
}

Status System::host_register(const Buffer& buf) {
  os::Vma* vma = m_.address_space().find_exact(buf.va);
  if (vma == nullptr) return Status::kErrorInvalidValue;
  return pf_.host_register(*vma) ? Status::kSuccess
                                 : Status::kErrorMemoryAllocation;
}

void System::service_faults() {
  // Suppression covers the scheduled crash class too: the recovery scrub
  // must not be killed by the next due reset — it fires at the first
  // unsuppressed service point instead.
  if (!fi_.enabled() || fi_.suppressed()) return;
  // Crash class first: a due channel reset pre-empts pending retirements
  // (handle_gpu_reset throws, so anything ECC-due is serviced on the next
  // API call — matching a real driver, which handles the Xid before
  // resuming deferred work).
  if (const fault::GpuResetEvent* r = fi_.take_due_reset(m_.clock().now())) {
    handle_gpu_reset(*r);
  }
  while (const fault::EccEvent* e = fi_.take_due_ecc(m_.clock().now())) {
    handle_ecc(*e);
  }
}

void System::handle_gpu_reset(const fault::GpuResetEvent& /*e*/) {
  sim::SpanScope span{m_.events()};
  const tenant::TenantId victim = m_.current_tenant();
  std::uint64_t poisoned_bytes = 0;
  {
    // Dropping device state is context teardown, not a migration: the
    // injector must not re-fail the crash's own cleanup.
    fault::FaultInjector::ScopedSuppress guard{&fi_};
    for (auto& [base, vma] : m_.address_space()) {
      if (vma.tenant != victim || vma.poisoned) continue;
      if (vma.kind == os::AllocKind::kGpuOnly) {
        // The content lived in the dead context; mappings (and frames) are
        // held until cudaFree, but every access now fails.
        vma.poisoned = true;
        poisoned_bytes += vma.size;
      } else if (vma.kind == os::AllocKind::kManaged &&
                 vma.resident_gpu_bytes > 0) {
        // Device-resident managed blocks die with the channel: dropped
        // without writeback (their content is lost, not flushed back).
        managed_.release_gpu_blocks(vma);
        vma.poisoned = true;
        poisoned_bytes += vma.size;
      }
    }
  }
  // The reset invalidates all GMMU translation state (both the GPU-table
  // and the ATS-side uTLBs).
  m_.gmmu().flush_tlbs();
  m_.clock().advance(m_.config().costs.gpu_reset);
  m_.metrics().gpu_resets->inc();
  m_.events().record(sim::EventType::kGpuReset, 0, poisoned_bytes, victim);
  throw StatusError{Status::kErrorGpuReset, "GPU channel reset"};
}

void System::handle_ecc(const fault::EccEvent& e) {
  // The retirement is a root cause: any evictions it forces below belong
  // to its causal span.
  sim::SpanScope span{m_.events()};
  auto& gpu_fa = m_.frames(mem::Node::kGpu);
  const std::uint64_t want = e.bytes;
  std::uint64_t retired = gpu_fa.retire(want);
  if (retired < want) {
    // The bad frames are (conservatively) in use: vacate by evicting
    // managed blocks, then retire the freed frames. The vacating writeback
    // is the resilience response, so injection is suppressed for it.
    fault::FaultInjector::ScopedSuppress guard{&fi_};
    if (managed_.make_room(want - retired)) {
      retired += gpu_fa.retire(want - retired);
    }
  }
  m_.clock().advance(m_.config().costs.ecc_retire);
  m_.metrics().ecc_retirements->inc();
  m_.metrics().ecc_retired_bytes->inc(retired);
  if (retired < want) {
    // Everything left is pinned GPU-only data; the remainder of the page
    // retirement is deferred (real driver: pending retirement).
    m_.metrics().ecc_unretired_bytes->inc(want - retired);
  }
  m_.events().record(sim::EventType::kEccRetirement, 0, retired,
                     retired < want ? 1u : 0u);
  // ECC storm: retirement past the configured budget means the device is
  // losing frames faster than retirement can absorb — beyond what any
  // restart can cure, so the escalation is terminal.
  const std::uint64_t budget = m_.config().faults.ecc_retirement_budget;
  if (budget != 0 && gpu_fa.retired_bytes() > budget) {
    m_.metrics().ecc_storms->inc();
    throw StatusError{Status::kErrorUnrecoverable,
                      "ECC storm: frame-retirement budget exceeded"};
  }
}

void System::mem_advise(const Buffer& buf, MemAdvice advice) {
  os::Vma* vma = m_.address_space().find_exact(buf.va);
  if (vma == nullptr) throw std::invalid_argument{"mem_advise: unknown buffer"};
  if (vma->kind == os::AllocKind::kGpuOnly || vma->kind == os::AllocKind::kPinnedHost) {
    throw std::invalid_argument{"mem_advise: only system/managed memory takes advice"};
  }
  m_.clock().advance(sim::microseconds(2));  // driver ioctl
  switch (advice) {
    case MemAdvice::kPreferredLocationCpu:
      vma->preferred_location = mem::Node::kCpu;
      break;
    case MemAdvice::kPreferredLocationGpu:
      vma->preferred_location = mem::Node::kGpu;
      break;
    case MemAdvice::kUnsetPreferredLocation:
      vma->preferred_location.reset();
      break;
    case MemAdvice::kReadMostly:
      if (vma->kind != os::AllocKind::kManaged) {
        throw std::invalid_argument{"mem_advise: read-mostly needs managed memory"};
      }
      vma->read_mostly = true;
      break;
    case MemAdvice::kUnsetReadMostly:
      vma->read_mostly = false;
      managed_.collapse_all_replicas(*vma);
      break;
  }
  m_.metrics().mem_advise_calls->inc();
}

void System::prefetch(const Buffer& buf, std::uint64_t offset, std::uint64_t len,
                      mem::Node dst) {
  ensure_gpu_context();
  os::Vma* vma = m_.address_space().find_exact(buf.va);
  if (vma == nullptr) throw std::invalid_argument{"prefetch: unknown buffer"};
  if (vma->poisoned) {
    throw StatusError{Status::kErrorGpuReset,
                      "prefetch on allocation poisoned by GPU reset"};
  }
  if (vma->kind == os::AllocKind::kManaged) {
    managed_.prefetch(*vma, buf.va + offset, len, dst);
    return;
  }
  if (vma->kind == os::AllocKind::kSystem) {
    // On Grace Hopper cudaMemPrefetchAsync also works on system memory:
    // the driver migrates the system pages.
    if (dst == mem::Node::kGpu) {
      mig_.migrate_system_range_to_gpu(*vma, buf.va + offset, len, ~0ull);
    } else {
      mig_.migrate_system_range_to_cpu(*vma, buf.va + offset, len, ~0ull);
    }
    return;
  }
  throw std::invalid_argument{"prefetch: buffer kind cannot be prefetched"};
}

void System::memcpy_buffers(const Buffer& dst, std::uint64_t dst_off,
                            const Buffer& src, std::uint64_t src_off,
                            std::uint64_t bytes) {
  m_.clock().advance(memcpy_cost_and_copy(dst, dst_off, src, src_off, bytes));
}

void System::memcpy_buffers_async(const Buffer& dst, std::uint64_t dst_off,
                                  const Buffer& src, std::uint64_t src_off,
                                  std::uint64_t bytes, runtime::Stream& stream) {
  const sim::Picos t = memcpy_cost_and_copy(dst, dst_off, src, src_off, bytes);
  stream.enqueue(m_.clock().now(), t);
  m_.metrics().memcpy_async_calls->inc();
}

void System::stream_synchronize(runtime::Stream& stream) {
  const sim::Picos now = m_.clock().now();
  if (stream.ready_at() > now) m_.clock().advance(stream.ready_at() - now);
}

sim::Picos System::memcpy_cost_and_copy(const Buffer& dst, std::uint64_t dst_off,
                                        const Buffer& src, std::uint64_t src_off,
                                        std::uint64_t bytes) {
  ensure_gpu_context();
  if (dst_off + bytes > dst.bytes || src_off + bytes > src.bytes) {
    throw std::out_of_range{"memcpy_buffers: range outside buffer"};
  }
  {
    const os::Vma* sv = m_.address_space().find_exact(src.va);
    const os::Vma* dv = m_.address_space().find_exact(dst.va);
    if ((sv != nullptr && sv->poisoned) || (dv != nullptr && dv->poisoned)) {
      throw StatusError{Status::kErrorGpuReset,
                        "memcpy on allocation poisoned by GPU reset"};
    }
  }
  const auto& costs = m_.config().costs;
  std::memcpy(dst.host + dst_off, src.host + src_off, bytes);

  const bool src_gpu = src.kind == os::AllocKind::kGpuOnly;
  const bool dst_gpu = dst.kind == os::AllocKind::kGpuOnly;
  sim::Picos t = costs.memcpy_base;
  if (src_gpu && dst_gpu) {
    t += m_.hbm().read_time(bytes) + m_.hbm().write_time(bytes);
  } else if (!src_gpu && !dst_gpu) {
    t += m_.ddr().read_time(bytes) + m_.ddr().write_time(bytes);
  } else {
    const auto dir = dst_gpu ? interconnect::Direction::kCpuToGpu
                             : interconnect::Direction::kGpuToCpu;
    sim::Picos link = m_.c2c().transfer(dir, bytes);
    const bool pageable =
        (dst_gpu ? src.kind : dst.kind) == os::AllocKind::kSystem ||
        (dst_gpu ? src.kind : dst.kind) == os::AllocKind::kManaged;
    if (pageable) {
      link = static_cast<sim::Picos>(static_cast<double>(link) /
                                     costs.memcpy_pageable_efficiency);
      // Host-side staging touches the pageable pages: fault them in if the
      // buffer was never touched (ensures RSS accounting stays honest).
      os::Vma* vma = m_.address_space().find_exact(dst_gpu ? src.va : dst.va);
      if (vma != nullptr && vma->kind != os::AllocKind::kManaged) {
        const std::uint64_t page = m_.system_pt().page_size();
        const std::uint64_t lo = (dst_gpu ? src.va + src_off : dst.va + dst_off);
        for (std::uint64_t va = m_.system_pt().page_base(lo); va < lo + bytes;
             va += page) {
          if (m_.system_pt().lookup(va) == nullptr) {
            pf_.first_touch(*vma, va, mem::Node::kCpu);
          }
        }
      }
    }
    t += link;
  }
  m_.metrics().memcpy_bytes->inc(bytes);
  return t;
}

// --- GPU context & phases --------------------------------------------------

void System::ensure_gpu_context() {
  if (ctx_init_) return;
  ctx_init_ = true;
  m_.clock().advance(m_.config().costs.context_init);
  m_.events().record(sim::EventType::kContextInit);
  m_.metrics().context_inits->inc();
}

void System::kernel_begin(std::string name) {
  service_faults();
  begin_phase(std::move(name), /*gpu=*/true);
  // Context initialization triggered by a kernel launch lands *inside* the
  // kernel's measured duration — the paper's Section 4 observation about
  // the system-memory version.
  ensure_gpu_context();
  m_.clock().advance(m_.config().costs.kernel_launch);
  m_.events().record(sim::EventType::kKernelBegin, 0, 0,
                     static_cast<std::uint32_t>(kernel_seq_));
}

const cache::KernelRecord& System::kernel_end(double flop_work) {
  if (!in_kernel_) throw std::logic_error{"kernel_end: no kernel in flight"};
  const double elapsed = sim::to_seconds(m_.clock().now() - phase_start_);
  const double floor_s = flop_work / m_.config().costs.gpu_flops;
  if (floor_s > elapsed) m_.clock().advance(sim::seconds(floor_s - elapsed));
  m_.events().record(sim::EventType::kKernelEnd, 0, 0,
                     static_cast<std::uint32_t>(kernel_seq_));
  return end_phase(0.0);
}

void System::host_phase_begin(std::string name) {
  begin_phase(std::move(name), /*gpu=*/false);
}

const cache::KernelRecord& System::host_phase_end(double flop_work) {
  if (in_kernel_ || !in_phase_) {
    throw std::logic_error{"host_phase_end: no host phase in flight"};
  }
  const double elapsed = sim::to_seconds(m_.clock().now() - phase_start_);
  const double floor_s = flop_work / m_.config().costs.cpu_flops;
  if (floor_s > elapsed) m_.clock().advance(sim::seconds(floor_s - elapsed));
  return end_phase(0.0);
}

void System::device_synchronize() {
  // Synchronous simulator: only the call overhead remains.
  m_.clock().advance(sim::microseconds(1));
}

void System::abort_phase() noexcept {
  in_phase_ = false;
  in_kernel_ = false;
}

std::uint64_t System::scrub_tenant(tenant::TenantId t) {
  // Collect first (free_buffer erases VMAs), in base order so the scrub's
  // simulated-time charges are deterministic.
  std::vector<std::uint64_t> bases;
  for (const auto& [base, vma] : std::as_const(m_.address_space())) {
    if (vma.tenant == t) bases.push_back(base);
  }
  std::uint64_t scrubbed = 0;
  for (std::uint64_t base : bases) {
    os::Vma* vma = m_.address_space().find_exact(base);
    if (vma == nullptr) continue;
    scrubbed += vma->size;
    Buffer b = make_buffer(*vma);
    (void)free_buffer(b);
  }
  m_.metrics().scrubbed_bytes->inc(scrubbed);
  return scrubbed;
}

void System::begin_phase(std::string name, bool gpu) {
  if (in_phase_) throw std::logic_error{"begin_phase: phases cannot nest"};
  in_phase_ = true;
  in_kernel_ = gpu;
  if (gpu) ++kernel_seq_;
  phase_name_ = std::move(name);
  phase_start_ = m_.clock().now();
  traffic_ = cache::KernelTraffic{};
  c2c_h2d_at_start_ = m_.c2c().bytes_moved(interconnect::Direction::kCpuToGpu);
  c2c_d2h_at_start_ = m_.c2c().bytes_moved(interconnect::Direction::kGpuToCpu);
}

const cache::KernelRecord& System::end_phase(double /*flop_work*/) {
  const std::uint64_t h2d =
      m_.c2c().bytes_moved(interconnect::Direction::kCpuToGpu) - c2c_h2d_at_start_;
  const std::uint64_t d2h =
      m_.c2c().bytes_moved(interconnect::Direction::kGpuToCpu) - c2c_d2h_at_start_;
  // Link traffic not attributed to direct accesses was moved by the driver
  // (migrations, evictions, prefetches) while this phase ran.
  const std::uint64_t direct_h2d = traffic_.c2c_read_bytes + traffic_.cpu_remote_write_bytes;
  const std::uint64_t direct_d2h = traffic_.c2c_write_bytes + traffic_.cpu_remote_read_bytes;
  traffic_.migration_h2d_bytes = h2d > direct_h2d ? h2d - direct_h2d : 0;
  traffic_.migration_d2h_bytes = d2h > direct_d2h ? d2h - direct_d2h : 0;

  last_record_ = cache::KernelRecord{.name = phase_name_,
                                     .kernel_id = kernel_seq_,
                                     .tenant = m_.current_tenant(),
                                     .start = phase_start_,
                                     .duration = m_.clock().now() - phase_start_,
                                     .traffic = traffic_};
  workload_.add(last_record_);
  in_phase_ = false;
  in_kernel_ = false;
  return last_record_;
}

// --- access path -------------------------------------------------------------

void System::charge_dependent_access(const PageView& view) {
  // Local chase pays the tier's first-word latency; a remote chase adds
  // the NVLink-C2C round trip on top of the far tier's DRAM latency.
  const sim::Picos t =
      view.node == view.origin
          ? m_.device(view.node).latency()
          : 2 * m_.c2c().latency() + m_.device(view.node).latency();
  m_.clock().advance(t);
  m_.metrics().dependent_accesses->inc();
}

std::string System::summary() const {
  std::ostringstream out;
  out << "=== ghum system summary (" << m_.config().name << ") ===\n";
  out << "simulated time: " << sim::to_milliseconds(m_.clock().now()) << " ms\n";
  out << "cpu rss: " << static_cast<double>(m_.cpu_rss_bytes()) / (1 << 20)
      << " MiB, gpu used: " << static_cast<double>(m_.gpu_used_bytes()) / (1 << 20)
      << " MiB\n";
  out << "c2c h2d: "
      << static_cast<double>(
             m_.c2c().bytes_moved(interconnect::Direction::kCpuToGpu)) /
             (1 << 20)
      << " MiB, d2h: "
      << static_cast<double>(
             m_.c2c().bytes_moved(interconnect::Direction::kGpuToCpu)) /
             (1 << 20)
      << " MiB\n";
  for (const auto& [name, value] : m_.stats().snapshot()) {
    if (value != 0) out << "  " << name << ": " << value << '\n';
  }
  return out.str();
}

std::string System::metrics_prometheus() {
  m_.sync_obs_gauges();
  return m_.obs().to_prometheus();
}

std::string System::metrics_json() {
  m_.sync_obs_gauges();
  return m_.obs().to_json();
}

void System::maybe_numa_hint_fault(std::uint64_t page_va, mem::Node origin) {
  const auto& cfg = m_.config();
  if (!cfg.autonuma_balancing) return;
  const pagetable::Pte* pte = m_.system_pt().lookup(page_va);
  if (pte == nullptr) return;
  const auto gen =
      static_cast<std::uint32_t>(m_.clock().now() / cfg.autonuma_scan_period + 1);
  if (pte->numa_generation == gen) return;
  // Splits the page out of its extent; once neighbouring pages reach the
  // same generation the runs re-coalesce, so a full scan sweep leaves the
  // map as compact as before it started.
  m_.system_pt().set_numa_generation(page_va, gen);
  const auto& costs = cfg.costs;
  m_.clock().advance(origin == mem::Node::kCpu ? costs.cpu_minor_fault
                                               : costs.gpu_replayable_fault);
  m_.metrics().numa_hint_faults->inc();
  m_.events().record(sim::EventType::kNumaHintFault, page_va,
                     m_.system_pt().page_size(),
                     static_cast<std::uint32_t>(origin));
}

PageView System::resolve(std::uint64_t va, mem::Node origin) {
  service_faults();
  os::Vma* vma = m_.address_space().find(va);
  if (vma == nullptr) {
    throw std::out_of_range{"resolve: access outside any allocation (SIGSEGV)"};
  }
  if (vma->poisoned) {
    throw StatusError{Status::kErrorGpuReset,
                      "access to allocation poisoned by GPU reset"};
  }
  PageView view;
  view.origin = origin;
  view.kind = vma->kind;
  view.vma = vma;
  view.line_size = origin == mem::Node::kGpu ? m_.c2c().spec().cacheline_gpu
                                             : m_.c2c().spec().cacheline_cpu;
  resolve_page(view, va);
  view.epoch = m_.epoch();
  fill_run_end(view);
  return view;
}

bool System::advance_view(PageView& view, std::uint64_t va) {
  // Only a transition into a later page of the same residency run
  // qualifies; anything else (first access, epoch bump, run exhausted)
  // goes through the full resolve(). All checks precede any charge, so a
  // false return leaves the simulated timeline untouched.
  if (va < view.page_end || va >= view.run_end) return false;
  if (view.epoch != m_.epoch()) return false;
  service_faults();
  if (view.epoch != m_.epoch()) return false;  // ECC retirement moved pages
  // Epoch unchanged since resolve() => no PTE was created, destroyed or
  // moved, so the pages scanned into run_end are still resident where they
  // were and view.vma is still alive. The translation below is charged via
  // the same MMU entry points as resolve(), so TLB state and cost evolve
  // identically. The view is updated in place: origin, kind, vma,
  // line_size and run_end carry over, resolve_page sets bounds and node.
  view.remote_managed = false;
  resolve_page(view, va);
  view.epoch = m_.epoch();
  if (view.run_end < view.page_end) view.run_end = view.page_end;
  return true;
}

void System::fill_run_end(PageView& view) {
  // The extent map answers "where does this run end" in one O(log n)
  // lookup, clamped only to the VMA end: a dense full-scale allocation
  // (millions of pages) publishes its whole run at once.
  const pagetable::PageTable* pt = nullptr;
  mem::Node node = view.node;
  switch (view.kind) {
    case os::AllocKind::kGpuOnly:
      pt = &m_.gpu_pt();
      node = mem::Node::kGpu;
      break;
    case os::AllocKind::kPinnedHost:
      pt = &m_.system_pt();
      node = mem::Node::kCpu;
      break;
    case os::AllocKind::kSystem:
      pt = &m_.system_pt();
      break;
    case os::AllocKind::kManaged:
      // Only table-backed residency states have a cheap run lookup; the
      // fault/remote paths must re-resolve every page (driver decisions
      // such as thrash-guard remote mapping are per-fault).
      if (view.origin == mem::Node::kGpu && view.node == mem::Node::kGpu &&
          !view.remote_managed) {
        pt = &m_.gpu_pt();
      } else if (view.origin == mem::Node::kCpu && view.node == mem::Node::kCpu) {
        pt = &m_.system_pt();
      }
      break;
  }
  view.run_end = view.page_end;
  if (pt != nullptr) {
    view.run_end = std::max(view.page_end,
                            pt->resident_run_end(view.page_base, node, view.vma->end()));
  }
}

void System::resolve_page(PageView& view, std::uint64_t va) {
  os::Vma* vma = view.vma;
  const mem::Node origin = view.origin;

  auto system_page_bounds = [&](std::uint64_t a) {
    view.page_base = m_.system_pt().page_base(a);
    view.page_end = std::min(view.page_base + m_.system_pt().page_size(), vma->end());
  };
  auto gpu_block_bounds = [&](std::uint64_t a) {
    view.page_base = m_.gpu_pt().page_base(a);
    view.page_end = std::min(view.page_base + pagetable::kGpuPageSize, vma->end());
  };

  switch (vma->kind) {
    case os::AllocKind::kGpuOnly: {
      if (origin == mem::Node::kCpu) {
        throw std::logic_error{"CPU access to cudaMalloc memory (not coherent)"};
      }
      const auto t = m_.gmmu().translate_gpu_table(va);
      m_.clock().advance(t.cost);
      if (t.outcome != pagetable::GpuXlatOutcome::kResident) {
        throw std::logic_error{"GPU-only allocation unexpectedly unmapped"};
      }
      view.node = mem::Node::kGpu;
      gpu_block_bounds(va);
      break;
    }
    case os::AllocKind::kPinnedHost: {
      if (origin == mem::Node::kCpu) {
        const auto t = m_.smmu().translate_cpu(va);
        m_.clock().advance(t.cost);
      } else {
        const auto t = m_.gmmu().translate_system(va);
        m_.clock().advance(t.cost);
      }
      view.node = mem::Node::kCpu;  // pinned memory never migrates
      system_page_bounds(va);
      break;
    }
    case os::AllocKind::kSystem: {
      if (origin == mem::Node::kCpu) {
        const auto t = m_.smmu().translate_cpu(va);
        m_.clock().advance(t.cost);
        view.node = t.present ? t.node : pf_.first_touch(*vma, va, origin);
      } else {
        const auto t = m_.gmmu().translate_system(va);
        m_.clock().advance(t.cost);
        if (t.outcome == pagetable::GpuXlatOutcome::kResident) {
          view.node = t.node;
        } else {
          view.node = pf_.first_touch(*vma, va, origin);
          ++traffic_.gpu_first_touch_faults;
        }
      }
      system_page_bounds(va);
      maybe_numa_hint_fault(view.page_base, origin);
      break;
    }
    case os::AllocKind::kManaged: {
      if (origin == mem::Node::kGpu) {
        const auto t = m_.gmmu().translate_gpu_table(va);
        m_.clock().advance(t.cost);
        if (t.outcome == pagetable::GpuXlatOutcome::kResident) {
          view.node = mem::Node::kGpu;
          gpu_block_bounds(va);
        } else {
          const auto r = managed_.gpu_fault(*vma, va);
          ++traffic_.managed_faults;
          view.node = r.node;
          view.remote_managed = r.remote_mapped;
          if (r.node == mem::Node::kGpu) {
            gpu_block_bounds(va);
          } else {
            system_page_bounds(va);
          }
        }
      } else {
        const auto t = m_.smmu().translate_cpu(va);
        m_.clock().advance(t.cost);
        view.node = t.present ? t.node : managed_.cpu_fault(*vma, va);
        if (view.node == mem::Node::kGpu) {
          // GPU-preferred range read remotely by the CPU (no migration).
          gpu_block_bounds(va);
        } else {
          system_page_bounds(va);
        }
      }
      break;
    }
  }
}

void System::commit(const PageView& view, std::uint64_t read_bytes,
                    std::uint64_t write_bytes, std::uint64_t lines,
                    std::uint64_t accesses) {
  if (accesses == 0) return;
  const std::uint64_t raw = read_bytes + write_bytes;
  if (raw == 0) return;
  const auto& costs = m_.config().costs;
  const std::uint64_t line_bytes = lines * view.line_size;
  // Unique-line volume split proportionally between reads and writes.
  const std::uint64_t lr = static_cast<std::uint64_t>(
      static_cast<double>(line_bytes) * static_cast<double>(read_bytes) /
      static_cast<double>(raw));
  const std::uint64_t lw = line_bytes - lr;

  sim::Picos t = 0;
  if (view.origin == mem::Node::kGpu) {
    traffic_.gpu_accesses += accesses;
    traffic_.l1l2_bytes += line_bytes;
    if (view.node == mem::Node::kGpu) {
      // Local HBM: DRAM moves 32-byte sectors, so sparse lines cost at
      // least a quarter of the 128-byte line volume.
      const std::uint64_t cr = std::max(read_bytes, lr / 4);
      const std::uint64_t cw = std::max(write_bytes, lw / 4);
      t += m_.hbm().read_time(cr) + m_.hbm().write_time(cw);
      traffic_.hbm_read_bytes += cr;
      traffic_.hbm_write_bytes += cw;
    } else {
      // Remote access over NVLink-C2C at GPU cacheline (128 B) granularity.
      sim::Picos link = m_.c2c().transfer(interconnect::Direction::kCpuToGpu, lr) +
                        m_.c2c().transfer(interconnect::Direction::kGpuToCpu, lw);
      if (view.remote_managed) {
        link = static_cast<sim::Picos>(static_cast<double>(link) /
                                       costs.managed_remote_efficiency);
      }
      t += link;
      traffic_.c2c_read_bytes += lr;
      traffic_.c2c_write_bytes += lw;
      if (view.kind == os::AllocKind::kSystem) {
        ac_.note_gpu_access(*view.vma, view.page_base, lines, kernel_seq_);
      }
    }
    if (view.kind == os::AllocKind::kManaged && view.node == mem::Node::kGpu) {
      managed_.touch_gpu_block(view.page_base);
      // A write to a read-duplicated block collapses the GPU replica (the
      // next access re-resolves via the epoch bump).
      if (write_bytes > 0 && managed_.is_replica(view.page_base)) {
        managed_.collapse_replica(*view.vma, view.page_base);
      }
    }
  } else {
    if (view.node == mem::Node::kCpu) {
      t += m_.ddr().read_time(lr) + m_.ddr().write_time(lw);
      traffic_.ddr_read_bytes += lr;
      traffic_.ddr_write_bytes += lw;
      if (view.kind == os::AllocKind::kManaged && write_bytes > 0) {
        // A CPU write invalidates any GPU read replica of this block.
        const std::uint64_t block = m_.gpu_pt().page_base(view.page_base);
        if (managed_.is_replica(block)) {
          managed_.collapse_replica(*view.vma, block);
        }
      }
    } else {
      // CPU touching GPU-resident data: coherent remote access over C2C.
      t += m_.c2c().transfer(interconnect::Direction::kGpuToCpu, lr) +
           m_.c2c().transfer(interconnect::Direction::kCpuToGpu, lw);
      traffic_.cpu_remote_read_bytes += lr;
      traffic_.cpu_remote_write_bytes += lw;
      if (view.kind == os::AllocKind::kSystem) {
        ac_.note_cpu_access(*view.vma, view.page_base, lines);
      }
    }
  }
  m_.clock().advance(t);
}

}  // namespace ghum::core
