#include "chk/snapshot.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>

#include "fault/status.hpp"
#include "sim/fnv.hpp"

/// \file snapshot.cpp
/// Serialization order (one section per subsystem; unordered containers are
/// always written in sorted key order so identical machines produce
/// byte-identical payloads):
///   1. SystemConfig (incl. CostModel and FaultConfig — the blob is
///      self-describing; restore rebuilds the System from it)
///   2. Clock
///   3. EventLog (incl. the machine's current tenant; full event stream)
///   4. FrameAllocators (GPU then CPU)
///   5. NvlinkC2C (traffic counters)
///   6. PageTables (system then GPU; extents in VPN order)
///   7. TLBs (SMMU cpu/ats, GMMU gpu/sys; most recent entry first)
///   8. AddressSpace (VMAs with their real backing bytes, each prefixed by
///      a has-data flag so non-materialized VMAs carry no byte image)
///   9. Machine epoch
///  10. MetricsRegistry (slots in exposition order) — every event counter
///      of the machine and its engines lives here, so no later section
///      repeats a tally
///  11. AttributionTable
///  12. System execution state (context, kernel seq, freed bases)
///  13. AccessCounterEngine
///  14. ManagedEngine (LRU front-to-back, per-VMA driver state)
///  15. FaultInjector (RNG words + schedule cursors)
///
/// Nothing restore can recompute travels (io.hpp lists it); restore()
/// rebuilds it after the sections are read.
///
/// config_fields() and state() name every section once, as templates over
/// the archive, so save and restore cannot disagree on a field's order or
/// width. Sections 6, 7, 10, the LRU of 14 and the VMA records of 8 are
/// not mirrored on restore but rebuilt through their owner's interface;
/// they keep one save and one load overload each, which state() calls in
/// their place.

namespace ghum::chk {

namespace {

/// [1] SystemConfig, CostModel and FaultConfig (\p Cfg is const to save).
template <typename Ar, typename Cfg>
void config_fields(Ar& ar, Cfg& cfg) {
  ar(cfg.system_page_size, cfg.hbm_capacity, cfg.ddr_capacity,
     cfg.gpu_driver_baseline, cfg.access_counter_migration,
     cfg.access_counter_threshold, cfg.counter_region_bytes,
     cfg.counter_min_interval, cfg.counter_migrations_per_kernel,
     cfg.managed_prefetch, cfg.autonuma_balancing, cfg.autonuma_scan_period,
     cfg.cpu_tlb_entries, cfg.ats_tlb_entries, cfg.gpu_utlb_entries,
     cfg.event_log, cfg.profiler_period,
     cfg.profiler_enabled, cfg.link_monitor, cfg.link_monitor_window);

  auto& c = cfg.costs;
  ar(c.context_init, c.kernel_launch, c.malloc_base, c.managed_alloc_base,
     c.gpu_alloc_base, c.alloc_per_page, c.unmap_per_page, c.unmap_base,
     c.cpu_minor_fault, c.gpu_replayable_fault, c.fault_zero_bandwidth_Bps,
     c.managed_fault_batch, c.migrate_per_page, c.migration_efficiency,
     c.evict_per_block, c.managed_remote_efficiency, c.counter_notification,
     c.inflight_migration_stall, c.host_register_base,
     c.host_register_per_page, c.memcpy_base, c.memcpy_pageable_efficiency,
     c.gpu_free_base, c.ecc_retire, c.gpu_reset, c.gpu_flops, c.cpu_flops);

  auto& f = cfg.faults;
  ar(f.enabled, f.seed, f.frame_alloc_denial_prob,
     f.migration_batch_fail_prob, f.migration_max_retries,
     f.migration_retry_backoff);
  ar.seq(f.link_degrade, [&ar](auto& wnd) {
    ar(wnd.start, wnd.duration, wnd.bandwidth_factor, wnd.latency_factor);
  });
  ar.seq(f.ecc_events, [&ar](auto& e) { ar(e.time, e.bytes); });
  ar.seq(f.gpu_resets, [&ar](auto& r) { ar(r.time); });
  ar(f.ecc_retirement_budget, cfg.name, cfg.materialize_backing);
}

/// [8] A VMA record's scalars; its backing bytes follow.
template <typename Ar>
void vma_fields(Ar& ar, os::Vma& v) {
  ar(v.base, v.size, v.kind, v.label, v.host_registered, v.tenant,
     v.preferred_location, v.read_mostly, v.poisoned, v.resident_cpu_bytes,
     v.resident_gpu_bytes);
}

/// Reads \p blob's magic number, refusing an alien one, and its format
/// version; the returned reader stands at the digest stamp. Throws
/// std::out_of_range when the blob ends first.
Reader open_header(const Blob& blob, std::uint32_t& version) {
  Reader header{blob.data(), blob.size()};
  if (header.u64() != kMagic) {
    throw StatusError{Status::kErrorInvalidValue, "checkpoint: bad magic"};
  }
  version = header.u32();
  return header;
}

/// The payload of \p blob, after its header names this format and its
/// size and digest match the payload. Throws StatusError naming the first
/// check that fails, or std::out_of_range when the header is cut short.
Reader checked_payload(const Blob& blob) {
  std::uint32_t version = 0;
  Reader header = open_header(blob, version);
  if (version != kFormatVersion) {
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
  return Reader{body, static_cast<std::size_t>(size)};
}

}  // namespace

// --- machine state ----------------------------------------------------------

template <typename Ar>
void Snapshotter::state(Ar& ar, core::System& sys, core::System* donor) {
  core::Machine& m = sys.m_;

  // [2] Clock: restored directly — observers (profiler, link monitor,
  // fault injector windows) must not fire, the restored sections already
  // contain everything they would have done.
  ar(m.clock_.now_);

  // [3] EventLog; its tenant is the machine's one copy.
  sim::EventLog& el = m.events_;
  ar(el.enabled_, el.tenant_, el.span_seq_);
  ar.seq(el.events_, [&ar](auto& e) {
    ar(e.time, e.type, e.va, e.bytes, e.aux, e.tenant, e.span);
  });

  // [4] Frame allocators (capacity and baseline follow from the config).
  for (mem::FrameAllocator* fa : {&m.gpu_fa_, &m.cpu_fa_}) {
    ar(fa->used_, fa->retired_, fa->total_allocated_, fa->peak_used_);
  }

  // [5] NVLink-C2C (its degrade factors are the open link window's).
  ar(m.c2c_.bytes_[0], m.c2c_.bytes_[1], m.c2c_.atomics_);

  // [6] Page tables.
  page_table(ar, m.system_pt_);
  page_table(ar, m.gpu_pt_);

  // [7] TLBs.
  tlb(ar, m.smmu_.cpu_tlb());
  tlb(ar, m.smmu_.ats_tlb());
  tlb(ar, m.gmmu_.utlb_gpu());
  tlb(ar, m.gmmu_.utlb_sys());

  // [8] Address space.
  os::AddressSpace& as = m.as_;
  ar(as.next_va_);
  vmas(ar, as, donor);

  // [9] Machine epoch.
  ar(m.epoch_);

  // [10] Metrics registry.
  registry(ar, m.obs_);

  // [11] Attribution.
  tenant::AttributionTable& at = m.attribution_;
  ar.seq(at.usage_, [&ar](auto& u) {
    ar(u.resident_cpu_bytes, u.resident_gpu_bytes, u.peak_gpu_bytes,
       u.c2c_h2d_bytes, u.c2c_d2h_bytes, u.cpu_faults, u.gpu_faults,
       u.migrated_h2d_bytes, u.migrated_d2h_bytes, u.evictions_suffered,
       u.evicted_bytes_suffered, u.evictions_caused);
  });
  ar.map(at.matrix_, [&ar](auto& pair, auto& cell) {
    ar(pair.first, pair.second, cell.count, cell.bytes);
  });

  // [12] System execution state. in_kernel_/in_phase_ are rejected by
  // snapshot(), so phase-local fields need no section.
  ar(sys.ctx_init_, sys.kernel_seq_);
  ar.set(sys.freed_bases_);

  // [13] Access-counter engine. Its per-kernel limiter stays behind: the
  // first GPU note after a snapshot names a newer kernel and resets it.
  driver::AccessCounterEngine& ac = sys.ac_;
  const auto region_count = [&ar](auto& region, auto& count) {
    ar(region, count);
  };
  ar.map(ac.gpu_counts_, region_count);
  ar.map(ac.cpu_counts_, region_count);
  ar(ac.next_notification_allowed_, ac.h2d_, ac.d2h_);

  // [14] Managed engine.
  driver::ManagedEngine& me = sys.managed_;
  managed_lru(ar, me);
  ar.map(me.vma_state_, [&ar](auto& base, auto& vs) {
    ar(base, vs.evicted_bytes, vs.migrated_blocks, vs.remote_mode);
  });
  ar.set(me.replicas_);

  // [15] Fault injector. Schedules are rebuilt from the config; only the
  // RNG words and consumption cursors travel.
  fault::FaultInjector& fi = sys.fi_;
  for (std::uint64_t& s : fi.rng_.s_) ar(s);
  ar(fi.next_window_, fi.active_window_, fi.next_ecc_, fi.next_reset_);
}

// --- rebuilt sections -------------------------------------------------------

// [6] Page tables, as their extent representation (runs are already
// ordered and canonical — maximal, attribute-equal). Each saved extent
// goes back in through insert_run.
void Snapshotter::page_table(Writer& w, pagetable::PageTable& pt) {
  w(std::uint64_t{pt.runs_.size()});
  for (const auto& [first_vpn, run] : pt.runs_) {
    w(first_vpn, run.pages, run.pte.node, run.pte.writable,
      run.pte.numa_generation);
  }
}

void Snapshotter::page_table(Reader& r, pagetable::PageTable& pt) {
  pt.clear();
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
    std::uint64_t first_vpn = 0;
    std::uint64_t pages = 0;
    pagetable::Pte pte;
    r(first_vpn, pages, pte.node, pte.writable, pte.numa_generation);
    pt.insert_run(first_vpn, pages, pte);
  }
}

// [7] TLBs, LRU front-to-back (most to least recent).
void Snapshotter::tlb(Writer& w, pagetable::Tlb& tlb) {
  w(std::uint64_t{tlb.size()});
  tlb.for_each_mru([&w](std::uint64_t vpn, mem::Node node) { w(vpn, node); });
}

// Entries arrive most recent first, so each one is appended at the LRU end.
void Snapshotter::tlb(Reader& r, pagetable::Tlb& tlb) {
  tlb.flush();
  const std::uint64_t n = r.count(9);  // a u64 VPN and a node byte
  if (n > tlb.capacity()) {
    throw StatusError{Status::kErrorInvalidValue,
                      "checkpoint: TLB holds more entries than its capacity"};
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t vpn = r.u64();
    if (!tlb.append_lru(vpn, r.node())) {
      throw StatusError{Status::kErrorInvalidValue,
                        "checkpoint: TLB entry repeats a VPN"};
    }
  }
}

// [8] VMAs, including every VMA's real backing bytes.
void Snapshotter::vmas(Writer& w, os::AddressSpace& as, core::System* /*donor*/) {
  w(std::uint64_t{as.vmas_.size()});
  for (auto& [base, vma] : as.vmas_) {
    vma_fields(w, vma);
    // Non-materialized backing (full-scale runs) has no bytes to carry.
    const bool has_data = vma.data != nullptr;
    w(has_data);
    if (has_data) {
      w.bytes(reinterpret_cast<const std::uint8_t*>(vma.data.get()), vma.size);
    }
  }
}

// A matching donor VMA hands over its backing array (host pointers held
// by live app coroutines stay valid); the blob's byte image is then copied
// in unconditionally, so the contents reflect the checkpoint even when the
// donor ran past it.
void Snapshotter::vmas(Reader& r, os::AddressSpace& as, core::System* donor) {
  as.vmas_.clear();
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
    os::Vma v;
    vma_fields(r, v);
    if (r.boolean()) {
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
}

// [10] Metrics registry (slots_ map iterates in exposition order).
template <typename Ar>
void Snapshotter::slot_value(Ar& ar, obs::MetricsRegistry& reg,
                             const obs::MetricsRegistry::Slot& slot) {
  switch (slot.kind) {
    case obs::MetricsRegistry::Kind::kCounter:
      ar(reg.counters_[slot.index].value_);
      break;
    case obs::MetricsRegistry::Kind::kGauge:
      ar(reg.gauges_[slot.index].value_);
      break;
    case obs::MetricsRegistry::Kind::kHistogram: {
      obs::Histogram& h = reg.histograms_[slot.index];
      for (std::uint64_t& b : h.buckets_) ar(b);
      ar(h.count_, h.sum_, h.min_, h.max_);
      break;
    }
  }
}

void Snapshotter::registry(Writer& w, obs::MetricsRegistry& reg) {
  w(std::uint64_t{reg.slots_.size()});
  for (const auto& [key, slot] : reg.slots_) {
    w(static_cast<std::uint8_t>(slot.kind), slot.name,
      std::uint64_t{slot.labels.size()});
    for (const obs::Label& l : slot.labels) w(l.key, l.value);
    slot_value(w, reg, slot);
  }
}

// Find-or-create by (name, labels) — the fresh Machine constructor already
// registered the memsys families, this overwrites their values and
// creates anything beyond them. A kind that differs from it is refused.
void Snapshotter::registry(Reader& r, obs::MetricsRegistry& reg) {
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
    const auto kind = Reader::enumerator(r.u8(), obs::MetricsRegistry::Kind::kHistogram);
    std::string name = r.str();
    std::vector<obs::Label> labels(r.count(16));  // two length prefixes
    for (obs::Label& l : labels) r(l.key, l.value);
    const obs::MetricsRegistry::Slot* slot = nullptr;
    try {
      slot = &reg.slot(name, labels, kind);
    } catch (const std::logic_error&) {
      throw StatusError{Status::kErrorInvalidValue,
                        "checkpoint: metric slot changes its kind"};
    }
    slot_value(r, reg, *slot);
  }
}

// [14] Managed LRU, front (MRU) to back, so restore rebuilds list and
// map in one pass.
void Snapshotter::managed_lru(Writer& w, driver::ManagedEngine& me) {
  w.seq(me.lru_, [&w](std::uint64_t block) { w(block); });
}

void Snapshotter::managed_lru(Reader& r, driver::ManagedEngine& me) {
  me.lru_.clear();
  me.blocks_.clear();
  for (std::uint64_t i = 0, n = r.u64(); i < n; ++i) {
    const std::uint64_t block = r.u64();
    me.lru_.push_back(block);
    if (!me.blocks_.emplace(block, std::prev(me.lru_.end())).second) {
      throw StatusError{Status::kErrorInvalidValue,
                        "checkpoint: managed LRU repeats a block"};
    }
  }
}

// --- public API -------------------------------------------------------------

Writer Snapshotter::payload(core::System& sys, const char* caller) {
  if (sys.in_kernel_ || sys.in_phase_ || sys.m_.events_.current_span() != 0 ||
      sys.fi_.suppressed()) {
    throw StatusError{Status::kErrorInvalidValue,
                      std::string{caller} + " inside an open kernel/phase/span"};
  }
  Writer w;
  config_fields(w, sys.config());
  state(w, sys, nullptr);
  return w;
}

Blob Snapshotter::snapshot(core::System& sys) {
  const Writer w = payload(sys, "snapshot");
  const std::vector<std::uint8_t>& body = w.data();
  Writer out;
  out(kMagic, kFormatVersion, sim::fnv1a(body.data(), body.size(), kDigestSeed),
      std::uint64_t{body.size()});
  Blob blob = out.take();
  blob.insert(blob.end(), body.begin(), body.end());
  return blob;
}

std::unique_ptr<core::System> Snapshotter::restore(const Blob& blob,
                                                   core::System* donor) {
  try {
    Reader r = checked_payload(blob);
    core::SystemConfig cfg;
    config_fields(r, cfg);
    std::unique_ptr<core::System> sys;
    try {
      sys = std::make_unique<core::System>(std::move(cfg));
    } catch (const std::invalid_argument&) {
      // A page size or TLB capacity the machine's tables cannot hold.
      throw StatusError{Status::kErrorInvalidValue,
                        "checkpoint: configuration cannot build a machine"};
    }
    state(r, *sys, donor);
    core::Machine& m = sys->m_;
    for (mem::FrameAllocator* fa : {&m.gpu_fa_, &m.cpu_fa_}) {
      if (fa->retired_ > fa->configured_ || fa->used_ > fa->capacity()) {
        throw StatusError{Status::kErrorInvalidValue,
                          "checkpoint: frames used exceed capacity"};
      }
    }
    fault::FaultInjector& fi = sys->fi_;
    if (fi.active_window_ >= std::ssize(fi.windows_)) {
      throw StatusError{Status::kErrorInvalidValue,
                        "checkpoint: open link window names no window"};
    }
    // Construction may have opened a window at time 0.
    fi.active_window_ >= 0 ? fi.degrade_link() : m.c2c_.clear_degrade();
    m.drop_cursors();
    // With a donor, the ECC/reset cursors never rewind below the donor's:
    // a scheduled fault the crashed attempt already consumed must not fire
    // again on the replay, or recovery would crash deterministically
    // forever.
    if (donor != nullptr) {
      fi.next_ecc_ = std::max(fi.next_ecc_, donor->fi_.next_ecc_);
      fi.next_reset_ = std::max(fi.next_reset_, donor->fi_.next_reset_);
    }
    // The link monitor's window series is observation-only and restarts
    // empty, but the monitor was started at construction (time 0, zero
    // byte baselines) and the clock/C2C totals were restored without an
    // advance: realign it so the first post-restore window opens at the
    // cut instead of swallowing the entire pre-checkpoint transfer history.
    if (sys->link_monitor().running()) sys->link_monitor().rebase();
    return sys;
  } catch (const std::out_of_range&) {
    throw StatusError{Status::kErrorInvalidValue,
                      "checkpoint: truncated or corrupt blob"};
  }
}

std::uint64_t Snapshotter::state_digest(core::System& sys) {
  const Writer w = payload(sys, "state_digest");
  return sim::fnv1a(w.data().data(), w.data().size(), kDigestSeed);
}

std::uint64_t Snapshotter::blob_digest(const Blob& blob) {
  try {
    std::uint32_t version = 0;
    return open_header(blob, version).u64();
  } catch (const std::out_of_range&) {
    throw StatusError{Status::kErrorInvalidValue,
                      "checkpoint: truncated header"};
  }
}

bool Snapshotter::verify(const Blob& blob) noexcept {
  try {
    (void)checked_payload(blob);
    return true;
  } catch (const StatusError&) {
    return false;
  } catch (const std::out_of_range&) {
    return false;
  }
}

}  // namespace ghum::chk
