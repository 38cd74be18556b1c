#include "core/machine.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "fault/fault_injector.hpp"

namespace ghum::core {

void Machine::sync_obs_gauges() {
  const auto i64 = [](std::uint64_t v) { return static_cast<std::int64_t>(v); };
  obs_.gauge("ghum_gpu_used_bytes").set(i64(gpu_used_bytes()));
  // Sums the VMAs' per-VMA resident counters: O(#VMAs), never a page scan.
  obs_.gauge("ghum_cpu_rss_bytes").set(i64(cpu_rss_bytes()));
  obs_.gauge("ghum_frames_free_bytes", {{"node", "gpu"}})
      .set(i64(gpu_fa_.free_bytes()));
  obs_.gauge("ghum_frames_free_bytes", {{"node", "cpu"}})
      .set(i64(cpu_fa_.free_bytes()));
  obs_.gauge("ghum_c2c_bytes", {{"dir", "h2d"}})
      .set(i64(c2c_.bytes_moved(interconnect::Direction::kCpuToGpu)));
  obs_.gauge("ghum_c2c_bytes", {{"dir", "d2h"}})
      .set(i64(c2c_.bytes_moved(interconnect::Direction::kGpuToCpu)));
  obs_.gauge("ghum_c2c_atomics_count").set(i64(c2c_.atomics_issued()));
  // O(1) reads of the extent maps' cached counters — sampling the gauges
  // must never scan residency state (see PageTable::scan_steps).
  obs_.gauge("ghum_pt_runs", {{"pt", "system"}}).set(i64(system_pt_.run_count()));
  obs_.gauge("ghum_pt_runs", {{"pt", "gpu"}}).set(i64(gpu_pt_.run_count()));
  obs_.gauge("ghum_pt_resident_bytes", {{"pt", "system"}, {"node", "cpu"}})
      .set(i64(system_pt_.resident_bytes(mem::Node::kCpu)));
  obs_.gauge("ghum_pt_resident_bytes", {{"pt", "system"}, {"node", "gpu"}})
      .set(i64(system_pt_.resident_bytes(mem::Node::kGpu)));

  // Per-tenant families from the attribution table. Tenant 0 is the
  // single-app / outside-any-quantum bucket.
  for (tenant::TenantId t = 0; t <= attribution_.max_tenant(); ++t) {
    const tenant::TenantUsage& u = attribution_.usage(t);
    const std::vector<obs::Label> lt{{"tenant", std::to_string(t)}};
    auto with = [&](const char* key, const char* value) {
      return std::vector<obs::Label>{{"tenant", std::to_string(t)},
                                     {key, value}};
    };
    obs_.gauge("ghum_tenant_resident_bytes", with("node", "cpu"))
        .set(u.resident_cpu_bytes);
    obs_.gauge("ghum_tenant_resident_bytes", with("node", "gpu"))
        .set(u.resident_gpu_bytes);
    obs_.gauge("ghum_tenant_peak_gpu_bytes", lt).set(i64(u.peak_gpu_bytes));
    obs_.gauge("ghum_tenant_faults_count", with("origin", "cpu")).set(i64(u.cpu_faults));
    obs_.gauge("ghum_tenant_faults_count", with("origin", "gpu")).set(i64(u.gpu_faults));
    obs_.gauge("ghum_tenant_migrated_bytes", with("dir", "h2d"))
        .set(i64(u.migrated_h2d_bytes));
    obs_.gauge("ghum_tenant_migrated_bytes", with("dir", "d2h"))
        .set(i64(u.migrated_d2h_bytes));
    obs_.gauge("ghum_tenant_c2c_bytes", with("dir", "h2d"))
        .set(i64(u.c2c_h2d_bytes));
    obs_.gauge("ghum_tenant_c2c_bytes", with("dir", "d2h"))
        .set(i64(u.c2c_d2h_bytes));
    obs_.gauge("ghum_tenant_evictions_count", with("role", "suffered"))
        .set(i64(u.evictions_suffered));
    obs_.gauge("ghum_tenant_evictions_count", with("role", "caused"))
        .set(i64(u.evictions_caused));
  }
}

void Machine::note_resident(os::Vma& vma, std::int64_t cpu_delta,
                            std::int64_t gpu_delta) {
  as_.note_resident_delta(vma, cpu_delta, gpu_delta);
  attribution_.note_resident_delta(vma.tenant, cpu_delta, gpu_delta);
}

bool Machine::map_system_page(os::Vma& vma, std::uint64_t va, mem::Node node) {
  const std::uint64_t page_va = system_pt_.page_base(va);
  if (system_pt_.lookup(page_va) != nullptr) {
    throw std::logic_error{"map_system_page: page already mapped"};
  }
  const std::uint64_t bytes = system_page_bytes();
  if (fi_ != nullptr && fi_->deny_frame_alloc(node)) return false;
  if (!frames(node).allocate(bytes)) return false;
  system_pt_.map(page_va, pagetable::Pte{.node = node, .writable = true});
  const auto delta = static_cast<std::int64_t>(bytes);
  note_resident(vma, node == mem::Node::kCpu ? delta : 0,
                node == mem::Node::kGpu ? delta : 0);
  bump_epoch();
  return true;
}

bool Machine::move_system_page(os::Vma& vma, std::uint64_t va, mem::Node to) {
  const std::uint64_t page_va = system_pt_.page_base(va);
  const pagetable::Pte* pte = system_pt_.lookup(page_va);
  if (pte == nullptr) throw std::logic_error{"move_system_page: not mapped"};
  const mem::Node from = pte->node;
  if (from == to) return true;
  const std::uint64_t bytes = system_page_bytes();
  if (fi_ != nullptr && fi_->deny_frame_alloc(to)) return false;
  if (!frames(to).allocate(bytes)) return false;
  frames(from).release(bytes);
  system_pt_.set_node(page_va, to);
  const auto delta = static_cast<std::int64_t>(bytes);
  note_resident(vma, to == mem::Node::kCpu ? delta : -delta,
                to == mem::Node::kGpu ? delta : -delta);
  smmu_.invalidate(page_va);
  gmmu_.invalidate_system(page_va);
  bump_epoch();
  return true;
}

Machine::BulkMapResult Machine::map_system_range(os::Vma& vma, std::uint64_t va,
                                                 std::uint64_t pages,
                                                 mem::Node node) {
  const std::uint64_t page = system_page_bytes();
  const std::uint64_t start = system_pt_.page_base(va);
  BulkMapResult r;
  if (pages == 0) return r;
  if (fi_ != nullptr && !fi_->suppressed()) {
    // The injector draws from its RNG on every allocation attempt, so the
    // bulk splice would change the random stream; keep the per-page loop.
    for (std::uint64_t p = 0; p < pages; ++p) {
      const std::uint64_t page_va = start + p * page;
      if (system_pt_.lookup(page_va) != nullptr) continue;
      if (!map_system_page(vma, page_va, node)) {
        r.complete = false;
        break;
      }
      ++r.mapped;
    }
    return r;
  }
  // Collect the holes between mapped runs, then fill each with one splice.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> holes;  // {vpn, pages}
  std::uint64_t cursor = system_pt_.vpn(start);
  const std::uint64_t vpn_end = cursor + pages;
  system_pt_.for_each_run_in_range(
      start, pages,
      [&](std::uint64_t first_vpn, std::uint64_t run_pages, const pagetable::Pte&) {
        if (first_vpn > cursor) holes.emplace_back(cursor, first_vpn - cursor);
        cursor = first_vpn + run_pages;
      });
  if (cursor < vpn_end) holes.emplace_back(cursor, vpn_end - cursor);
  for (const auto& [hole_vpn, hole_pages] : holes) {
    const std::uint64_t avail = frames(node).free_bytes() / page;
    const std::uint64_t take = std::min(hole_pages, avail);
    if (take > 0) {
      if (!frames(node).allocate(take * page)) {
        throw std::logic_error{"map_system_range: frame accounting diverged"};
      }
      system_pt_.map_range(hole_vpn * page, take,
                           pagetable::Pte{.node = node, .writable = true});
      const auto delta = static_cast<std::int64_t>(take * page);
      note_resident(vma, node == mem::Node::kCpu ? delta : 0,
                    node == mem::Node::kGpu ? delta : 0);
      r.mapped += take;
    }
    if (take < hole_pages) {
      r.complete = false;
      break;
    }
  }
  if (r.mapped > 0) bump_epoch();
  return r;
}

Machine::RangePages Machine::unmap_system_range(os::Vma& vma, std::uint64_t va,
                                                std::uint64_t pages) {
  // Unmap never consults the fault injector, so the splice is always safe.
  const std::uint64_t page = system_page_bytes();
  const std::uint64_t start = system_pt_.page_base(va);
  RangePages out;
  if (pages == 0) return out;
  struct Seg {
    std::uint64_t va;
    std::uint64_t bytes;
  };
  std::vector<Seg> segs;
  system_pt_.for_each_run_in_range(
      start, pages,
      [&](std::uint64_t first_vpn, std::uint64_t run_pages,
          const pagetable::Pte& pte) {
        (pte.node == mem::Node::kCpu ? out.cpu : out.gpu) += run_pages;
        segs.push_back(Seg{first_vpn * page, run_pages * page});
      });
  if (out.total() == 0) return out;
  (void)system_pt_.unmap_range(start, pages);
  if (out.cpu > 0) cpu_fa_.release(out.cpu * page);
  if (out.gpu > 0) gpu_fa_.release(out.gpu * page);
  note_resident(vma, -static_cast<std::int64_t>(out.cpu * page),
                -static_cast<std::int64_t>(out.gpu * page));
  // Only previously-mapped pages can hold TLB entries, so shooting down
  // exactly the mapped segments drops the same entries the per-page loop
  // would have.
  for (const Seg& s : segs) {
    smmu_.invalidate_range(s.va, s.bytes);
    gmmu_.invalidate_system_range(s.va, s.bytes);
  }
  bump_epoch();
  return out;
}

Machine::BulkMoveResult Machine::move_system_range(os::Vma& vma, std::uint64_t va,
                                                   std::uint64_t pages,
                                                   mem::Node to,
                                                   std::uint64_t max_pages) {
  const std::uint64_t page = system_page_bytes();
  const std::uint64_t start = system_pt_.page_base(va);
  BulkMoveResult r;
  if (pages == 0 || max_pages == 0) return r;
  if (fi_ != nullptr && !fi_->suppressed()) {
    for (std::uint64_t p = 0; p < pages && r.moved < max_pages; ++p) {
      const std::uint64_t page_va = start + p * page;
      const pagetable::Pte* pte = system_pt_.lookup(page_va);
      if (pte == nullptr || pte->node == to) continue;
      if (!move_system_page(vma, page_va, to)) {
        r.dst_exhausted = true;
        break;
      }
      ++r.moved;
    }
    return r;
  }
  // Collect segments on the wrong node first: mutating the extent map
  // while iterating it would invalidate the walk.
  struct Seg {
    std::uint64_t vpn;
    std::uint64_t pages;
    mem::Node from;
  };
  std::vector<Seg> segs;
  std::uint64_t want_total = 0;
  system_pt_.for_each_run_in_range(
      start, pages,
      [&](std::uint64_t first_vpn, std::uint64_t run_pages,
          const pagetable::Pte& pte) {
        if (pte.node == to || want_total >= max_pages) return;
        const std::uint64_t take = std::min(run_pages, max_pages - want_total);
        segs.push_back(Seg{first_vpn, take, pte.node});
        want_total += take;
      });
  for (const Seg& s : segs) {
    const std::uint64_t avail = frames(to).free_bytes() / page;
    const std::uint64_t take = std::min(s.pages, avail);
    if (take > 0) {
      if (!frames(to).allocate(take * page)) {
        throw std::logic_error{"move_system_range: frame accounting diverged"};
      }
      frames(s.from).release(take * page);
      const std::uint64_t seg_va = s.vpn * page;
      (void)system_pt_.set_node_range(seg_va, take, to);
      const auto delta = static_cast<std::int64_t>(take * page);
      note_resident(vma, to == mem::Node::kCpu ? delta : -delta,
                    to == mem::Node::kGpu ? delta : -delta);
      smmu_.invalidate_range(seg_va, take * page);
      gmmu_.invalidate_system_range(seg_va, take * page);
      r.moved += take;
    }
    if (take < s.pages) {
      r.dst_exhausted = true;
      break;
    }
  }
  if (r.moved > 0) bump_epoch();
  return r;
}

std::uint64_t Machine::gpu_block_bytes(const os::Vma& vma,
                                       std::uint64_t block_va) const {
  const std::uint64_t block_base = gpu_pt_.page_base(block_va);
  return std::min<std::uint64_t>(pagetable::kGpuPageSize, vma.end() - block_base);
}

bool Machine::map_gpu_block(os::Vma& vma, std::uint64_t block_va) {
  const std::uint64_t block_base = gpu_pt_.page_base(block_va);
  if (gpu_pt_.lookup(block_base) != nullptr) {
    throw std::logic_error{"map_gpu_block: block already mapped"};
  }
  const std::uint64_t bytes = gpu_block_bytes(vma, block_base);
  if (fi_ != nullptr && fi_->deny_frame_alloc(mem::Node::kGpu)) return false;
  if (!gpu_fa_.allocate(bytes)) return false;
  gpu_pt_.map(block_base, pagetable::Pte{.node = mem::Node::kGpu, .writable = true});
  note_resident(vma, 0, static_cast<std::int64_t>(bytes));
  bump_epoch();
  return true;
}

void Machine::unmap_gpu_block(os::Vma& vma, std::uint64_t block_va) {
  const std::uint64_t block_base = gpu_pt_.page_base(block_va);
  if (gpu_pt_.lookup(block_base) == nullptr) {
    throw std::logic_error{"unmap_gpu_block: not mapped"};
  }
  const std::uint64_t bytes = gpu_block_bytes(vma, block_base);
  gpu_pt_.unmap(block_base);
  gpu_fa_.release(bytes);
  note_resident(vma, 0, -static_cast<std::int64_t>(bytes));
  gmmu_.invalidate_gpu_table(block_base);
  bump_epoch();
}

}  // namespace ghum::core
