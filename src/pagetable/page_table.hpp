#pragma once

#include <cstdint>
#include <map>

#include "mem/node.hpp"

/// \file page_table.hpp
/// Page tables of the Grace Hopper system (paper Section 2.1.3). Two
/// instances exist:
///  - the *system-wide page table*, located in CPU memory, managed by the
///    OS, used by the SMMU to translate for both CPU and GPU (via ATS).
///    Its page size is the system page size: 4 KiB or 64 KiB on Grace.
///  - the *GPU-exclusive page table*, located in GPU memory, used by the
///    GMMU for cudaMalloc allocations and for managed allocations whose
///    physical location is GPU memory. Its page size is 2 MiB.
///
/// Residency is stored as *extents* (maximal runs of pages with identical
/// attributes), not per-page entries: at the paper's real capacities
/// (96 GB HBM + 480 GB LPDDR5X, Section 3) a dense allocation is millions
/// of 64 KiB pages, and per-page hash entries made the simulator's own
/// wall clock the experiment bottleneck. Runs keep the map size
/// proportional to *fragmentation* (placement boundaries), which the
/// paper's workloads keep small, while per-page semantics are preserved
/// exactly: every query/mutation behaves as if each page had its own PTE.

namespace ghum::chk {
class Snapshotter;
}  // namespace ghum::chk

namespace ghum::pagetable {

struct Pte {
  mem::Node node = mem::Node::kCpu;  ///< tier holding the physical frame
  bool writable = true;
  /// AutoNUMA scanner generation that last hint-faulted this page (only
  /// meaningful when SystemConfig::autonuma_balancing is on).
  std::uint32_t numa_generation = 0;

  [[nodiscard]] friend bool operator==(const Pte&, const Pte&) = default;
};

class PageTable {
 public:
  explicit PageTable(std::uint64_t page_size);

  // The last-run cache points into this object's own map, so a copy would
  // carry an iterator into the original.
  PageTable(const PageTable&) = delete;
  PageTable& operator=(const PageTable&) = delete;

  [[nodiscard]] std::uint64_t page_size() const noexcept { return page_size_; }

  [[nodiscard]] std::uint64_t vpn(std::uint64_t va) const noexcept {
    return va >> page_shift_;
  }
  [[nodiscard]] std::uint64_t page_base(std::uint64_t va) const noexcept {
    return va & ~(page_size_ - 1);
  }

  /// nullptr when the page is not mapped (not present). O(1) when \p va
  /// falls in the run the previous point query found, else O(log n). The
  /// pointer is only valid until the next mutation (runs split/merge under
  /// it).
  [[nodiscard]] const Pte* lookup(std::uint64_t va) const;

  /// Creates or overwrites the entry for the page containing \p va.
  void map(std::uint64_t va, Pte pte);

  /// Removes the entry; returns true if one existed.
  bool unmap(std::uint64_t va);

  /// Changes the resident node of an existing entry.
  void set_node(std::uint64_t va, mem::Node node);

  /// Bumps the AutoNUMA generation of an existing entry (splits its run;
  /// re-coalesces once neighbours catch up to the same generation).
  void set_numa_generation(std::uint64_t va, std::uint32_t generation);

  // --- Bulk splices (single O(log n + runs-touched) operations) ---------

  /// Maps \p pages pages starting at page_base(va) with \p pte in one
  /// splice, overwriting any prior entries in the range. An unmapped range
  /// right after a run with an equal PTE grows that run in place.
  void map_range(std::uint64_t va, std::uint64_t pages, Pte pte);

  /// Unmaps the range; returns how many pages were actually mapped.
  std::uint64_t unmap_range(std::uint64_t va, std::uint64_t pages);

  /// Moves every mapped page in the range to \p node; returns how many
  /// pages changed node (pages already there are untouched).
  std::uint64_t set_node_range(std::uint64_t va, std::uint64_t pages,
                               mem::Node node);

  // --- Queries ----------------------------------------------------------

  [[nodiscard]] std::size_t mapped_pages() const noexcept {
    return static_cast<std::size_t>(total_pages_);
  }

  /// Count of mapped pages resident on \p node. O(1): reads the cached
  /// per-node counter (profiler/report sampling must never scan the map).
  [[nodiscard]] std::size_t resident_pages(mem::Node node) const noexcept {
    return static_cast<std::size_t>(node_pages_[static_cast<std::size_t>(node)]);
  }
  [[nodiscard]] std::uint64_t resident_bytes(mem::Node node) const noexcept {
    return node_pages_[static_cast<std::size_t>(node)] * page_size_;
  }

  /// Mapped pages inside [page_base(va), +pages), any node. O(runs in range).
  [[nodiscard]] std::uint64_t resident_pages_in_range(std::uint64_t va,
                                                      std::uint64_t pages) const;

  /// Number of extents currently stored (fragmentation metric; a dense
  /// resident allocation is one run regardless of its page count).
  [[nodiscard]] std::size_t run_count() const noexcept { return runs_.size(); }

  /// Cumulative count of run-map elements visited by linear walks
  /// (for_each_run / range iteration). Point queries and the cached
  /// residency counters never advance it — tests assert sampling paths
  /// leave it untouched.
  [[nodiscard]] std::uint64_t scan_steps() const noexcept { return scan_steps_; }

  /// End (exclusive) of the residency run starting at \p va: the extent
  /// containing \p va answers "the next N pages are on the same node" in
  /// one O(log n) lookup (no per-page scan). The first page is never
  /// checked — the caller already resolved it — so from an unmapped or
  /// mismatched page the run may still extend across the *next* extent
  /// when it matches \p node. Attribute boundaries (writable, AutoNUMA
  /// generation) terminate the run because extents are attribute-maximal.
  /// Clamped to \p limit (typically the VMA end) only: a dense allocation
  /// of millions of pages publishes its whole run at once. Returns at
  /// least the end of \p va's page.
  [[nodiscard]] std::uint64_t resident_run_end(std::uint64_t va, mem::Node node,
                                               std::uint64_t limit) const;

  /// Ordered iteration over all extents: fn(first_vpn, pages, pte).
  template <typename F>
  void for_each_run(F&& fn) const {
    for (const auto& [first_vpn, run] : runs_) {
      ++scan_steps_;
      fn(first_vpn, run.pages, run.pte);
    }
  }

  /// Ordered iteration over the mapped sub-runs overlapping
  /// [vpn(va), +pages), clipped to the range: fn(first_vpn, pages, pte).
  template <typename F>
  void for_each_run_in_range(std::uint64_t va, std::uint64_t pages, F&& fn) const {
    const std::uint64_t lo = vpn(va);
    const std::uint64_t hi = lo + pages;
    auto it = runs_.upper_bound(lo);
    if (it != runs_.begin()) {
      auto prev = std::prev(it);
      if (prev->first + prev->second.pages > lo) it = prev;
    }
    for (; it != runs_.end() && it->first < hi; ++it) {
      ++scan_steps_;
      const std::uint64_t a = it->first > lo ? it->first : lo;
      const std::uint64_t end = it->first + it->second.pages;
      const std::uint64_t b = end < hi ? end : hi;
      fn(a, b - a, it->second.pte);
    }
  }

  /// Drops every entry (checkpoint restore).
  void clear();

 private:
  struct Run {
    std::uint64_t pages = 0;
    Pte pte;
  };
  using RunMap = std::map<std::uint64_t, Run>;  // keyed by first VPN of run

  /// The run containing \p vpn, or end(). Checks the run the previous hit
  /// found before searching the tree.
  [[nodiscard]] RunMap::const_iterator find_run(std::uint64_t vpn) const;
  [[nodiscard]] RunMap::iterator find_run_mut(std::uint64_t vpn);
  /// Ensures no run straddles \p vpn (splits the containing run in two).
  void split_before(std::uint64_t vpn);
  /// Merges \p it into its predecessor when contiguous with equal
  /// attributes; returns the iterator holding the (possibly merged) run.
  RunMap::iterator merge_left(RunMap::iterator it);
  /// Inserts a run known not to overlap anything, then coalesces.
  void insert_run(std::uint64_t first_vpn, std::uint64_t pages, Pte pte);
  void account(std::uint64_t pages, mem::Node node, bool add) noexcept;

  std::uint64_t page_size_;
  unsigned page_shift_;
  RunMap runs_;
  /// Run the last successful find_run() returned, or end(). A run that
  /// grows, shrinks or rewrites its PTE in place keeps its node, so only
  /// erasing that node (merge_left, unmap_range, clear) resets it.
  mutable RunMap::const_iterator last_ = runs_.end();
  std::uint64_t total_pages_ = 0;
  std::uint64_t node_pages_[2] = {0, 0};
  mutable std::uint64_t scan_steps_ = 0;

  friend class ghum::chk::Snapshotter;
};

/// GPU-exclusive page table page size (constant on Hopper).
inline constexpr std::uint64_t kGpuPageSize = 2ull << 20;

/// Valid Grace system page sizes.
inline constexpr std::uint64_t kSystemPage4K = 4ull << 10;
inline constexpr std::uint64_t kSystemPage64K = 64ull << 10;

}  // namespace ghum::pagetable
