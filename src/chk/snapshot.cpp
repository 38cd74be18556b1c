#include "chk/snapshot.hpp"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fault/status.hpp"
#include "sim/fnv.hpp"

/// \file snapshot.cpp
/// Serialization order (one section per subsystem; unordered containers are
/// always written in sorted key order so identical machines produce
/// byte-identical payloads):
///   1. SystemConfig (incl. CostModel and FaultConfig — the blob is
///      self-describing; restore rebuilds the System from it)
///   2. Clock
///   3. EventLog (full event stream; per-type totals are recomputed)
///   4. FrameAllocators (GPU then CPU)
///   5. NvlinkC2C (degrade factors + traffic counters)
///   6. PageTables (system then GPU; extents in VPN order)
///   7. TLBs (SMMU cpu/ats, GMMU gpu/sys; most recent entry first)
///   8. AddressSpace (VMAs with their real backing bytes, each prefixed by
///      a has-data flag so non-materialized VMAs carry no byte image)
///   9. Machine epoch / current tenant
///  10. MetricsRegistry (slots in exposition order) — every event counter
///      of the machine and its engines lives here, so no later section
///      repeats a tally
///  11. AttributionTable
///  12. System execution state (context, kernel seq, freed bases)
///  13. AccessCounterEngine
///  14. ManagedEngine (LRU front-to-back, per-VMA driver state)
///  15. FaultInjector (RNG words + schedule cursors)

namespace ghum::chk {

namespace {

/// Sorted copy of an unordered map's (key, value) pairs.
template <typename Map>
std::vector<std::pair<typename Map::key_type, typename Map::mapped_type>>
sorted_entries(const Map& m) {
  std::vector<std::pair<typename Map::key_type, typename Map::mapped_type>> v;
  v.reserve(m.size());
  for (const auto& [k, val] : m) v.emplace_back(k, val);
  std::sort(v.begin(), v.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return v;
}

/// Converts a node byte, refusing one that names no mem::Node: the machine
/// indexes its per-node tables with it.
mem::Node to_node(std::uint8_t node) {
  if (node > static_cast<std::uint8_t>(mem::Node::kGpu)) {
    throw StatusError{Status::kErrorInvalidValue,
                      "checkpoint: node byte names no memory node"};
  }
  return static_cast<mem::Node>(node);
}

mem::Node read_node(Reader& r) { return to_node(r.u8()); }

}  // namespace

// --- SystemConfig -----------------------------------------------------------

void Snapshotter::save_config(const core::SystemConfig& cfg, Writer& w) {
  w.u64(cfg.system_page_size);
  w.u64(cfg.hbm_capacity);
  w.u64(cfg.ddr_capacity);
  w.u64(cfg.gpu_driver_baseline);
  w.boolean(cfg.access_counter_migration);
  w.u32(cfg.access_counter_threshold);
  w.u64(cfg.counter_region_bytes);
  w.i64(cfg.counter_min_interval);
  w.u32(cfg.counter_migrations_per_kernel);
  w.boolean(cfg.managed_prefetch);
  w.boolean(cfg.autonuma_balancing);
  w.i64(cfg.autonuma_scan_period);
  w.u64(cfg.cpu_tlb_entries);
  w.u64(cfg.ats_tlb_entries);
  w.u64(cfg.gpu_utlb_entries);
  // Once the batched-access switch; the byte stays so that v2 images keep
  // their layout, and it always reads 1.
  w.boolean(true);
  w.boolean(cfg.event_log);
  w.i64(cfg.profiler_period);
  w.boolean(cfg.profiler_enabled);
  w.boolean(cfg.link_monitor);
  w.i64(cfg.link_monitor_window);

  const core::CostModel& c = cfg.costs;
  w.i64(c.context_init);
  w.i64(c.kernel_launch);
  w.i64(c.malloc_base);
  w.i64(c.managed_alloc_base);
  w.i64(c.gpu_alloc_base);
  w.i64(c.alloc_per_page);
  w.i64(c.unmap_per_page);
  w.i64(c.unmap_base);
  w.i64(c.cpu_minor_fault);
  w.i64(c.gpu_replayable_fault);
  w.f64(c.fault_zero_bandwidth_Bps);
  w.i64(c.managed_fault_batch);
  w.i64(c.migrate_per_page);
  w.f64(c.migration_efficiency);
  w.i64(c.evict_per_block);
  w.f64(c.managed_remote_efficiency);
  w.i64(c.counter_notification);
  w.i64(c.inflight_migration_stall);
  w.i64(c.host_register_base);
  w.i64(c.host_register_per_page);
  w.i64(c.memcpy_base);
  w.f64(c.memcpy_pageable_efficiency);
  w.i64(c.gpu_free_base);
  w.i64(c.ecc_retire);
  w.i64(c.gpu_reset);
  w.f64(c.gpu_flops);
  w.f64(c.cpu_flops);

  const fault::FaultConfig& f = cfg.faults;
  w.boolean(f.enabled);
  w.u64(f.seed);
  w.f64(f.frame_alloc_denial_prob);
  w.f64(f.migration_batch_fail_prob);
  w.u32(f.migration_max_retries);
  w.i64(f.migration_retry_backoff);
  w.u64(f.link_degrade.size());
  for (const auto& wnd : f.link_degrade) {
    w.i64(wnd.start);
    w.i64(wnd.duration);
    w.f64(wnd.bandwidth_factor);
    w.f64(wnd.latency_factor);
  }
  w.u64(f.ecc_events.size());
  for (const auto& e : f.ecc_events) {
    w.i64(e.time);
    w.u64(e.bytes);
  }
  w.u64(f.gpu_resets.size());
  for (const auto& r : f.gpu_resets) w.i64(r.time);
  w.u64(f.ecc_retirement_budget);

  w.str(cfg.name);
  w.boolean(cfg.materialize_backing);
}

core::SystemConfig Snapshotter::load_config(Reader& r) {
  core::SystemConfig cfg;
  cfg.system_page_size = r.u64();
  cfg.hbm_capacity = r.u64();
  cfg.ddr_capacity = r.u64();
  cfg.gpu_driver_baseline = r.u64();
  cfg.access_counter_migration = r.boolean();
  cfg.access_counter_threshold = r.u32();
  cfg.counter_region_bytes = r.u64();
  cfg.counter_min_interval = r.i64();
  cfg.counter_migrations_per_kernel = r.u32();
  cfg.managed_prefetch = r.boolean();
  cfg.autonuma_balancing = r.boolean();
  cfg.autonuma_scan_period = r.i64();
  cfg.cpu_tlb_entries = static_cast<std::size_t>(r.u64());
  cfg.ats_tlb_entries = static_cast<std::size_t>(r.u64());
  cfg.gpu_utlb_entries = static_cast<std::size_t>(r.u64());
  if (!r.boolean()) {
    throw StatusError{Status::kErrorInvalidValue,
                      "checkpoint: image asks for the retired per-access path"};
  }
  cfg.event_log = r.boolean();
  cfg.profiler_period = r.i64();
  cfg.profiler_enabled = r.boolean();
  cfg.link_monitor = r.boolean();
  cfg.link_monitor_window = r.i64();

  core::CostModel& c = cfg.costs;
  c.context_init = r.i64();
  c.kernel_launch = r.i64();
  c.malloc_base = r.i64();
  c.managed_alloc_base = r.i64();
  c.gpu_alloc_base = r.i64();
  c.alloc_per_page = r.i64();
  c.unmap_per_page = r.i64();
  c.unmap_base = r.i64();
  c.cpu_minor_fault = r.i64();
  c.gpu_replayable_fault = r.i64();
  c.fault_zero_bandwidth_Bps = r.f64();
  c.managed_fault_batch = r.i64();
  c.migrate_per_page = r.i64();
  c.migration_efficiency = r.f64();
  c.evict_per_block = r.i64();
  c.managed_remote_efficiency = r.f64();
  c.counter_notification = r.i64();
  c.inflight_migration_stall = r.i64();
  c.host_register_base = r.i64();
  c.host_register_per_page = r.i64();
  c.memcpy_base = r.i64();
  c.memcpy_pageable_efficiency = r.f64();
  c.gpu_free_base = r.i64();
  c.ecc_retire = r.i64();
  c.gpu_reset = r.i64();
  c.gpu_flops = r.f64();
  c.cpu_flops = r.f64();

  fault::FaultConfig& f = cfg.faults;
  f.enabled = r.boolean();
  f.seed = r.u64();
  f.frame_alloc_denial_prob = r.f64();
  f.migration_batch_fail_prob = r.f64();
  f.migration_max_retries = r.u32();
  f.migration_retry_backoff = r.i64();
  f.link_degrade.resize(r.count(32));
  for (auto& wnd : f.link_degrade) {
    wnd.start = r.i64();
    wnd.duration = r.i64();
    wnd.bandwidth_factor = r.f64();
    wnd.latency_factor = r.f64();
  }
  f.ecc_events.resize(r.count(16));
  for (auto& e : f.ecc_events) {
    e.time = r.i64();
    e.bytes = r.u64();
  }
  f.gpu_resets.resize(r.count(8));
  for (auto& gr : f.gpu_resets) gr.time = r.i64();
  f.ecc_retirement_budget = r.u64();

  cfg.name = r.str();
  cfg.materialize_backing = r.boolean();
  return cfg;
}

// --- machine state ----------------------------------------------------------

void Snapshotter::save_state(core::System& sys, Writer& w) {
  core::Machine& m = sys.m_;

  // [2] Clock.
  w.i64(m.clock_.now_);

  // [3] EventLog.
  const sim::EventLog& el = m.events_;
  w.boolean(el.enabled_);
  w.u32(el.tenant_);
  w.u32(el.span_);
  w.u32(el.span_seq_);
  w.u64(el.events_.size());
  for (const sim::Event& e : el.events_) {
    w.i64(e.time);
    w.u8(static_cast<std::uint8_t>(e.type));
    w.u64(e.va);
    w.u64(e.bytes);
    w.u32(e.aux);
    w.u32(e.tenant);
    w.u32(e.span);
  }

  // [4] Frame allocators.
  const auto save_fa = [&w](const mem::FrameAllocator& fa) {
    w.u64(fa.capacity_);
    w.u64(fa.used_);
    w.u64(fa.baseline_);
    w.u64(fa.retired_);
    w.u64(fa.total_allocated_);
    w.u64(fa.peak_used_);
  };
  save_fa(m.gpu_fa_);
  save_fa(m.cpu_fa_);

  // [5] NVLink-C2C.
  w.f64(m.c2c_.bw_factor_);
  w.f64(m.c2c_.lat_factor_);
  w.u64(m.c2c_.bytes_[0]);
  w.u64(m.c2c_.bytes_[1]);
  w.u64(m.c2c_.atomics_);

  // [6] Page tables, as their extent representation (runs are already
  // ordered and canonical — maximal, attribute-equal).
  const auto save_pt = [&w](const pagetable::PageTable& pt) {
    w.u64(pt.runs_.size());
    for (const auto& [first_vpn, run] : pt.runs_) {
      w.u64(first_vpn);
      w.u64(run.pages);
      w.u8(static_cast<std::uint8_t>(run.pte.node));
      w.boolean(run.pte.writable);
      w.u32(run.pte.numa_generation);
    }
  };
  save_pt(m.system_pt_);
  save_pt(m.gpu_pt_);

  // [7] TLBs (LRU front-to-back = most to least recent).
  const auto save_tlb = [&w](const pagetable::Tlb& tlb) {
    w.u64(tlb.hits_);
    w.u64(tlb.misses_);
    w.u64(tlb.size());
    tlb.for_each_mru([&w](std::uint64_t vpn, mem::Node node) {
      w.u64(vpn);
      w.u8(static_cast<std::uint8_t>(node));
    });
  };
  save_tlb(m.smmu_.cpu_tlb());
  save_tlb(m.smmu_.ats_tlb());
  save_tlb(m.gmmu_.utlb_gpu());
  save_tlb(m.gmmu_.utlb_sys());

  // [8] Address space, including every VMA's real backing bytes.
  const os::AddressSpace& as = m.as_;
  w.u64(as.next_va_);
  w.u64(as.rss_);
  w.u32(as.current_tenant_);
  w.u64(as.vmas_.size());
  for (const auto& [base, vma] : as.vmas_) {
    w.u64(vma.base);
    w.u64(vma.size);
    w.u8(static_cast<std::uint8_t>(vma.kind));
    w.str(vma.label);
    w.boolean(vma.host_registered);
    w.u32(vma.tenant);
    w.u8(vma.preferred_location
             ? static_cast<std::uint8_t>(*vma.preferred_location) + 1
             : 0);
    w.boolean(vma.read_mostly);
    w.boolean(vma.poisoned);
    w.u64(vma.resident_cpu_bytes);
    w.u64(vma.resident_gpu_bytes);
    // Non-materialized backing (full-scale runs) has no bytes to carry.
    const bool has_data = vma.data != nullptr;
    w.boolean(has_data);
    if (has_data) {
      w.bytes(reinterpret_cast<const std::uint8_t*>(vma.data.get()), vma.size);
    }
  }

  // [9] Machine epoch / tenant.
  w.u64(m.epoch_);
  w.u32(m.tenant_);

  // [10] Metrics registry (slots_ map iterates in exposition order).
  const obs::MetricsRegistry& reg = m.obs_;
  w.u64(reg.slots_.size());
  for (const auto& [key, slot] : reg.slots_) {
    w.u8(static_cast<std::uint8_t>(slot.kind));
    w.str(slot.name);
    w.u64(slot.labels.size());
    for (const obs::Label& l : slot.labels) {
      w.str(l.key);
      w.str(l.value);
    }
    switch (slot.kind) {
      case obs::MetricsRegistry::Kind::kCounter:
        w.u64(reg.counters_[slot.index].value_);
        break;
      case obs::MetricsRegistry::Kind::kGauge:
        w.i64(reg.gauges_[slot.index].value_);
        break;
      case obs::MetricsRegistry::Kind::kHistogram: {
        const obs::Histogram& h = reg.histograms_[slot.index];
        for (std::uint64_t b : h.buckets_) w.u64(b);
        w.u64(h.count_);
        w.u64(h.sum_);
        w.u64(h.min_);
        w.u64(h.max_);
        break;
      }
    }
  }

  // [11] Attribution.
  const tenant::AttributionTable& at = m.attribution_;
  w.u64(at.usage_.size());
  for (const tenant::TenantUsage& u : at.usage_) {
    w.i64(u.resident_cpu_bytes);
    w.i64(u.resident_gpu_bytes);
    w.u64(u.peak_gpu_bytes);
    w.u64(u.c2c_h2d_bytes);
    w.u64(u.c2c_d2h_bytes);
    w.u64(u.cpu_faults);
    w.u64(u.gpu_faults);
    w.u64(u.migrated_h2d_bytes);
    w.u64(u.migrated_d2h_bytes);
    w.u64(u.evictions_suffered);
    w.u64(u.evicted_bytes_suffered);
    w.u64(u.evictions_caused);
  }
  w.u64(at.matrix_.size());
  for (const auto& [pair, cell] : at.matrix_) {
    w.u32(pair.first);
    w.u32(pair.second);
    w.u64(cell.count);
    w.u64(cell.bytes);
  }
  w.u64(at.cross_tenant_evictions_);
  w.u64(at.cross_tenant_evicted_bytes_);

  // [12] System execution state. in_kernel_/in_phase_ are rejected by
  // snapshot(), so phase-local fields need no section.
  w.boolean(sys.ctx_init_);
  w.i64(sys.ctx_charged_);
  w.u64(sys.kernel_seq_);
  std::vector<std::uint64_t> freed{sys.freed_bases_.begin(),
                                   sys.freed_bases_.end()};
  std::sort(freed.begin(), freed.end());
  w.u64(freed.size());
  for (std::uint64_t b : freed) w.u64(b);

  // [13] Access-counter engine.
  const driver::AccessCounterEngine& ac = sys.ac_;
  const auto save_counts =
      [&w](const std::unordered_map<std::uint64_t, std::uint64_t>& counts) {
        const auto entries = sorted_entries(counts);
        w.u64(entries.size());
        for (const auto& [region, count] : entries) {
          w.u64(region);
          w.u64(count);
        }
      };
  save_counts(ac.gpu_counts_);
  save_counts(ac.cpu_counts_);
  w.i64(ac.next_notification_allowed_);
  w.u64(ac.current_kernel_);
  w.u32(ac.fired_this_kernel_);
  w.u64(ac.h2d_);
  w.u64(ac.d2h_);

  // [14] Managed engine. The LRU is written front (MRU) to back with each
  // block's info so restore rebuilds list and map in one pass.
  const driver::ManagedEngine& me = sys.managed_;
  w.u64(me.lru_.size());
  for (std::uint64_t block : me.lru_) {
    const auto& info = me.blocks_.at(block);
    w.u64(block);
    w.u64(info.vma_base);
    w.u64(info.last_kernel);
  }
  {
    const auto entries = sorted_entries(me.vma_state_);
    w.u64(entries.size());
    for (const auto& [base, vs] : entries) {
      w.u64(base);
      w.u64(vs.evicted_bytes);
      w.u64(vs.migrated_blocks);
      w.boolean(vs.remote_mode);
    }
  }
  w.u64(me.prefetch_protected_.size());
  for (std::uint64_t b : me.prefetch_protected_) w.u64(b);
  w.u64(me.replicas_.size());
  for (std::uint64_t b : me.replicas_) w.u64(b);

  // [15] Fault injector. Schedules are rebuilt from the config; only the
  // RNG words and consumption cursors travel.
  const fault::FaultInjector& fi = sys.fi_;
  for (std::uint64_t s : fi.rng_.s_) w.u64(s);
  w.i64(fi.suppress_);
  w.u64(fi.next_window_);
  w.i64(fi.active_window_);
  w.u64(fi.next_ecc_);
  w.u64(fi.next_reset_);
}

void Snapshotter::load_state(core::System& sys, Reader& r,
                             core::System* donor) {
  core::Machine& m = sys.m_;

  // [2] Clock: set directly — observers (profiler, link monitor, fault
  // injector windows) must not fire, the restored sections already contain
  // everything they would have done.
  m.clock_.now_ = r.i64();

  // [3] EventLog (per-type totals recomputed from the stream).
  sim::EventLog& el = m.events_;
  el.enabled_ = r.boolean();
  el.tenant_ = r.u32();
  el.span_ = r.u32();
  el.span_seq_ = r.u32();
  el.events_.clear();
  el.counts_.fill(0);
  el.bytes_.fill(0);
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
    sim::Event e;
    e.time = r.i64();
    e.type = static_cast<sim::EventType>(r.u8());
    e.va = r.u64();
    e.bytes = r.u64();
    e.aux = r.u32();
    e.tenant = r.u32();
    e.span = r.u32();
    const auto t = static_cast<std::size_t>(e.type);
    ++el.counts_[t];
    el.bytes_[t] += e.bytes;
    el.events_.push_back(e);
  }

  // [4] Frame allocators.
  const auto load_fa = [&r](mem::FrameAllocator& fa) {
    fa.capacity_ = r.u64();
    fa.used_ = r.u64();
    fa.baseline_ = r.u64();
    fa.retired_ = r.u64();
    fa.total_allocated_ = r.u64();
    fa.peak_used_ = r.u64();
  };
  load_fa(m.gpu_fa_);
  load_fa(m.cpu_fa_);

  // [5] NVLink-C2C.
  m.c2c_.bw_factor_ = r.f64();
  m.c2c_.lat_factor_ = r.f64();
  m.c2c_.bytes_[0] = r.u64();
  m.c2c_.bytes_[1] = r.u64();
  m.c2c_.atomics_ = r.u64();

  // [6] Page tables: each saved extent goes back in through insert_run.
  const auto load_pt = [&r](pagetable::PageTable& pt) {
    pt.clear();
    for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
      const std::uint64_t first_vpn = r.u64();
      const std::uint64_t pages = r.u64();
      pagetable::Pte pte;
      pte.node = read_node(r);
      pte.writable = r.boolean();
      pte.numa_generation = r.u32();
      pt.insert_run(first_vpn, pages, pte);
    }
  };
  load_pt(m.system_pt_);
  load_pt(m.gpu_pt_);

  // [7] TLBs. hits_/misses_ are set directly — the bound registry counters
  // are restored with the registry section, so going through the public
  // interface would double count. Entries arrive most recent first, so
  // each one is appended at the LRU end.
  const auto load_tlb = [&r](pagetable::Tlb& tlb) {
    tlb.hits_ = r.u64();
    tlb.misses_ = r.u64();
    tlb.flush();
    const std::uint64_t n = r.count(9);  // a u64 VPN and a node byte
    if (n > tlb.capacity()) {
      throw StatusError{Status::kErrorInvalidValue,
                        "checkpoint: TLB holds more entries than its capacity"};
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t vpn = r.u64();
      if (!tlb.append_lru(vpn, read_node(r))) {
        throw StatusError{Status::kErrorInvalidValue,
                          "checkpoint: TLB entry repeats a VPN"};
      }
    }
  };
  load_tlb(m.smmu_.cpu_tlb());
  load_tlb(m.smmu_.ats_tlb());
  load_tlb(m.gmmu_.utlb_gpu());
  load_tlb(m.gmmu_.utlb_sys());

  // [8] Address space. A matching donor VMA hands over its backing array
  // (host pointers held by live app coroutines stay valid); the blob's
  // byte image is then copied in unconditionally, so the contents reflect
  // the checkpoint even when the donor ran past it.
  os::AddressSpace& as = m.as_;
  as.next_va_ = r.u64();
  as.rss_ = r.u64();
  as.current_tenant_ = r.u32();
  as.vmas_.clear();
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
    os::Vma v;
    v.base = r.u64();
    v.size = r.u64();
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(os::AllocKind::kPinnedHost)) {
      throw StatusError{Status::kErrorInvalidValue,
                        "checkpoint: VMA kind byte names no allocation kind"};
    }
    v.kind = static_cast<os::AllocKind>(kind);
    v.label = r.str();
    v.host_registered = r.boolean();
    v.tenant = r.u32();
    // The preferred location is stored as node + 1, with 0 for none.
    const std::uint8_t pref = r.u8();
    if (pref != 0) v.preferred_location = to_node(static_cast<std::uint8_t>(pref - 1));
    v.read_mostly = r.boolean();
    v.poisoned = r.boolean();
    v.resident_cpu_bytes = r.u64();
    v.resident_gpu_bytes = r.u64();
    const bool has_data = r.boolean();
    if (has_data) {
      // The byte run must fit before its backing is allocated.
      if (v.size > r.remaining()) {
        throw std::out_of_range{"chk: VMA backing exceeds checkpoint blob"};
      }
      if (donor != nullptr) {
        os::Vma* dv = donor->m_.as_.find_exact(v.base);
        if (dv != nullptr && dv->size == v.size && dv->data != nullptr) {
          v.data = std::move(dv->data);
        }
      }
      if (v.data == nullptr) v.data = std::make_unique<std::byte[]>(v.size);
      r.bytes_into(reinterpret_cast<std::uint8_t*>(v.data.get()), v.size);
    }
    const std::uint64_t base = v.base;
    as.vmas_.emplace(base, std::move(v));
  }

  // [9] Machine epoch / tenant.
  m.epoch_ = r.u64();
  m.drop_cursors();
  m.tenant_ = r.u32();

  // [10] Metrics registry: find-or-create by (name, labels) — the fresh
  // Machine constructor already registered the memsys families, this
  // overwrites their values and creates anything beyond them.
  obs::MetricsRegistry& reg = m.obs_;
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
    const auto kind = static_cast<obs::MetricsRegistry::Kind>(r.u8());
    std::string name = r.str();
    std::vector<obs::Label> labels(r.count(16));  // two length prefixes
    for (obs::Label& l : labels) {
      l.key = r.str();
      l.value = r.str();
    }
    switch (kind) {
      case obs::MetricsRegistry::Kind::kCounter:
        reg.counter(name, labels).value_ = r.u64();
        break;
      case obs::MetricsRegistry::Kind::kGauge:
        reg.gauge(name, labels).value_ = r.i64();
        break;
      case obs::MetricsRegistry::Kind::kHistogram: {
        obs::Histogram& h = reg.histogram(name, labels);
        for (std::uint64_t& b : h.buckets_) b = r.u64();
        h.count_ = r.u64();
        h.sum_ = r.u64();
        h.min_ = r.u64();
        h.max_ = r.u64();
        break;
      }
    }
  }

  // [11] Attribution.
  tenant::AttributionTable& at = m.attribution_;
  at.usage_.assign(r.count(12 * 8), {});  // twelve 8-byte fields
  for (tenant::TenantUsage& u : at.usage_) {
    u.resident_cpu_bytes = r.i64();
    u.resident_gpu_bytes = r.i64();
    u.peak_gpu_bytes = r.u64();
    u.c2c_h2d_bytes = r.u64();
    u.c2c_d2h_bytes = r.u64();
    u.cpu_faults = r.u64();
    u.gpu_faults = r.u64();
    u.migrated_h2d_bytes = r.u64();
    u.migrated_d2h_bytes = r.u64();
    u.evictions_suffered = r.u64();
    u.evicted_bytes_suffered = r.u64();
    u.evictions_caused = r.u64();
  }
  at.matrix_.clear();
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
    const tenant::TenantId perp = r.u32();
    const tenant::TenantId victim = r.u32();
    tenant::EvictionCell cell;
    cell.count = r.u64();
    cell.bytes = r.u64();
    at.matrix_[{perp, victim}] = cell;
  }
  at.cross_tenant_evictions_ = r.u64();
  at.cross_tenant_evicted_bytes_ = r.u64();

  // [12] System execution state.
  sys.ctx_init_ = r.boolean();
  sys.ctx_charged_ = r.i64();
  sys.in_kernel_ = false;
  sys.in_phase_ = false;
  sys.kernel_seq_ = r.u64();
  sys.freed_bases_.clear();
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
    sys.freed_bases_.insert(r.u64());
  }

  // [13] Access-counter engine.
  driver::AccessCounterEngine& ac = sys.ac_;
  const auto load_counts =
      [&r](std::unordered_map<std::uint64_t, std::uint64_t>& counts) {
        counts.clear();
        for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
          const std::uint64_t region = r.u64();
          counts[region] = r.u64();
        }
      };
  load_counts(ac.gpu_counts_);
  load_counts(ac.cpu_counts_);
  ac.next_notification_allowed_ = r.i64();
  ac.current_kernel_ = r.u64();
  ac.fired_this_kernel_ = r.u32();
  ac.h2d_ = r.u64();
  ac.d2h_ = r.u64();

  // [14] Managed engine.
  driver::ManagedEngine& me = sys.managed_;
  me.lru_.clear();
  me.blocks_.clear();
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
    const std::uint64_t block = r.u64();
    me.lru_.push_back(block);
    auto& info = me.blocks_[block];
    info.lru_it = std::prev(me.lru_.end());
    info.vma_base = r.u64();
    info.last_kernel = r.u64();
  }
  me.vma_state_.clear();
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
    const std::uint64_t base = r.u64();
    auto& vs = me.vma_state_[base];
    vs.evicted_bytes = r.u64();
    vs.migrated_blocks = r.u64();
    vs.remote_mode = r.boolean();
  }
  me.prefetch_protected_.clear();
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
    me.prefetch_protected_.insert(r.u64());
  }
  me.replicas_.clear();
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
    me.replicas_.insert(r.u64());
  }

  // [15] Fault injector. With a donor, the ECC/reset cursors never rewind
  // below the donor's: a scheduled fault the crashed attempt already
  // consumed must not fire again on the replay, or recovery would crash
  // deterministically forever.
  fault::FaultInjector& fi = sys.fi_;
  for (std::uint64_t& s : fi.rng_.s_) s = r.u64();
  fi.suppress_ = static_cast<int>(r.i64());
  fi.next_window_ = r.u64();
  fi.active_window_ = static_cast<std::ptrdiff_t>(r.i64());
  fi.next_ecc_ = r.u64();
  fi.next_reset_ = r.u64();
  if (donor != nullptr) {
    fi.next_ecc_ = std::max(fi.next_ecc_, donor->fi_.next_ecc_);
    fi.next_reset_ = std::max(fi.next_reset_, donor->fi_.next_reset_);
  }

  // [16] Link monitor. Its window series is observation-only and restarts
  // empty, but the monitor was started at construction (time 0, zero byte
  // baselines) and the clock/C2C totals were restored without an advance:
  // realign it so the first post-restore window opens at the cut instead
  // of swallowing the entire pre-checkpoint transfer history.
  if (sys.link_monitor().running()) sys.link_monitor().rebase();
}

// --- public API -------------------------------------------------------------

Blob Snapshotter::snapshot(core::System& sys) {
  if (sys.in_kernel_ || sys.in_phase_) {
    throw StatusError{Status::kErrorInvalidValue,
                             "snapshot inside an open kernel/phase"};
  }
  Writer payload;
  save_config(sys.config(), payload);
  save_state(sys, payload);
  const std::vector<std::uint8_t>& body = payload.data();

  Writer out;
  out.u64(kMagic);
  out.u32(kFormatVersion);
  out.u64(sim::fnv1a(body.data(), body.size(), kDigestSeed));
  out.u64(body.size());
  Blob blob = out.take();
  blob.insert(blob.end(), body.begin(), body.end());
  return blob;
}

std::unique_ptr<core::System> Snapshotter::restore(const Blob& blob,
                                                   core::System* donor) {
  Reader header{blob.data(), blob.size()};
  try {
    if (header.u64() != kMagic) {
      throw StatusError{Status::kErrorInvalidValue,
                               "checkpoint: bad magic"};
    }
    if (header.u32() != kFormatVersion) {
      throw StatusError{Status::kErrorInvalidValue,
                               "checkpoint: unsupported format version"};
    }
    const std::uint64_t digest = header.u64();
    const std::uint64_t size = header.u64();
    if (size != header.remaining()) {
      throw StatusError{Status::kErrorInvalidValue,
                               "checkpoint: payload size mismatch"};
    }
    const std::uint8_t* body = blob.data() + (blob.size() - size);
    if (sim::fnv1a(body, size, kDigestSeed) != digest) {
      throw StatusError{Status::kErrorInvalidValue,
                               "checkpoint: payload digest mismatch"};
    }
    Reader r{body, static_cast<std::size_t>(size)};
    std::unique_ptr<core::System> sys;
    try {
      sys = std::make_unique<core::System>(load_config(r));
    } catch (const std::invalid_argument&) {
      // A page size or TLB capacity the machine's tables cannot hold.
      throw StatusError{Status::kErrorInvalidValue,
                        "checkpoint: configuration cannot build a machine"};
    }
    load_state(*sys, r, donor);
    return sys;
  } catch (const std::out_of_range&) {
    throw StatusError{Status::kErrorInvalidValue,
                             "checkpoint: truncated or corrupt blob"};
  }
}

std::uint64_t Snapshotter::state_digest(core::System& sys) {
  if (sys.in_kernel_ || sys.in_phase_) {
    throw StatusError{Status::kErrorInvalidValue,
                             "state_digest inside an open kernel/phase"};
  }
  Writer payload;
  save_config(sys.config(), payload);
  save_state(sys, payload);
  return sim::fnv1a(payload.data().data(), payload.data().size(),
                    kDigestSeed);
}

std::uint64_t Snapshotter::blob_digest(const Blob& blob) {
  Reader header{blob.data(), blob.size()};
  try {
    if (header.u64() != kMagic) {
      throw StatusError{Status::kErrorInvalidValue,
                               "checkpoint: bad magic"};
    }
    (void)header.u32();
    return header.u64();
  } catch (const std::out_of_range&) {
    throw StatusError{Status::kErrorInvalidValue,
                             "checkpoint: truncated header"};
  }
}

bool Snapshotter::verify(const Blob& blob) noexcept {
  Reader header{blob.data(), blob.size()};
  try {
    if (header.u64() != kMagic) return false;
    if (header.u32() != kFormatVersion) return false;
    const std::uint64_t digest = header.u64();
    const std::uint64_t size = header.u64();
    if (size != header.remaining()) return false;
    const std::uint8_t* body = blob.data() + (blob.size() - size);
    return sim::fnv1a(body, size, kDigestSeed) == digest;
  } catch (const std::out_of_range&) {
    return false;
  }
}

}  // namespace ghum::chk
