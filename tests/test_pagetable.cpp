#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "pagetable/gmmu.hpp"
#include "pagetable/page_table.hpp"
#include "pagetable/smmu.hpp"
#include "pagetable/tlb.hpp"

namespace ghum::pagetable {
namespace {

TEST(PageTable, RejectsNonPowerOfTwoPageSize) {
  EXPECT_THROW(PageTable{0}, std::invalid_argument);
  EXPECT_THROW(PageTable{3000}, std::invalid_argument);
}

TEST(PageTable, MapLookupUnmap) {
  PageTable pt{kSystemPage4K};
  const std::uint64_t va = 0x1234'5678;
  EXPECT_EQ(pt.lookup(va), nullptr);
  pt.map(va, Pte{.node = mem::Node::kGpu, .writable = true});
  const Pte* pte = pt.lookup(va);
  ASSERT_NE(pte, nullptr);
  EXPECT_EQ(pte->node, mem::Node::kGpu);
  // Any address within the same page resolves to the same entry.
  EXPECT_NE(pt.lookup(pt.page_base(va) + kSystemPage4K - 1), nullptr);
  EXPECT_EQ(pt.lookup(pt.page_base(va) + kSystemPage4K), nullptr);
  EXPECT_TRUE(pt.unmap(va));
  EXPECT_FALSE(pt.unmap(va));
}

TEST(PageTable, SetNodeMovesResidency) {
  PageTable pt{kSystemPage64K};
  pt.map(0x100000, Pte{.node = mem::Node::kCpu, .writable = true});
  pt.set_node(0x100000, mem::Node::kGpu);
  EXPECT_EQ(pt.lookup(0x100000)->node, mem::Node::kGpu);
  EXPECT_THROW(pt.set_node(0x900000, mem::Node::kCpu), std::logic_error);
}

TEST(PageTable, ResidentPageCountsByNode) {
  PageTable pt{kSystemPage4K};
  pt.map(0x0000, Pte{.node = mem::Node::kCpu});
  pt.map(0x1000, Pte{.node = mem::Node::kGpu});
  pt.map(0x2000, Pte{.node = mem::Node::kGpu});
  EXPECT_EQ(pt.mapped_pages(), 3u);
  EXPECT_EQ(pt.resident_pages(mem::Node::kCpu), 1u);
  EXPECT_EQ(pt.resident_pages(mem::Node::kGpu), 2u);
}

TEST(PageTable, ResidentRunEndScansContiguousResidency) {
  PageTable pt{kSystemPage4K};
  // Pages 0-2 on CPU, page 3 on GPU, page 4 unmapped, page 5 on CPU.
  pt.map(0x0000, Pte{.node = mem::Node::kCpu});
  pt.map(0x1000, Pte{.node = mem::Node::kCpu});
  pt.map(0x2000, Pte{.node = mem::Node::kCpu});
  pt.map(0x3000, Pte{.node = mem::Node::kGpu});
  pt.map(0x5000, Pte{.node = mem::Node::kCpu});
  const std::uint64_t limit = 0x10000;
  // Run stops at the first page on a different node...
  EXPECT_EQ(pt.resident_run_end(0x0000, mem::Node::kCpu, limit), 0x3000u);
  // ...starting mid-run still scans forward from the containing page...
  EXPECT_EQ(pt.resident_run_end(0x1800, mem::Node::kCpu, limit), 0x3000u);
  // ...a hole ends the run...
  EXPECT_EQ(pt.resident_run_end(0x3000, mem::Node::kGpu, limit), 0x4000u);
  // ...and the run is clamped by the limit.
  EXPECT_EQ(pt.resident_run_end(0x0000, mem::Node::kCpu, 0x1800), 0x1800u);
  // The first page is never checked (the caller already resolved it), so a
  // scan from the unmapped page 4 still extends across the mapped page 5.
  EXPECT_EQ(pt.resident_run_end(0x4000, mem::Node::kCpu, limit), 0x6000u);
}

TEST(PageTable, ResidentRunEndReturnsALongRunWhole) {
  // One extent of 1000 pages: the lookup returns all of it, with no
  // per-call page cap, and still honors the limit.
  PageTable pt{kSystemPage4K};
  for (std::uint64_t p = 0; p < 1000; ++p) {
    pt.map(p * 0x1000, Pte{.node = mem::Node::kGpu});
  }
  ASSERT_EQ(pt.run_count(), 1u);
  EXPECT_EQ(pt.resident_run_end(0x0000, mem::Node::kGpu, 1ull << 40),
            1000u * 0x1000);
  EXPECT_EQ(pt.resident_run_end(0x5000, mem::Node::kGpu, 1ull << 40),
            1000u * 0x1000);
  EXPECT_EQ(pt.resident_run_end(0x0000, mem::Node::kGpu, 600u * 0x1000),
            600u * 0x1000);
}

TEST(PageTable, AdjacentRunsMergeOnSetNode) {
  PageTable pt{kSystemPage4K};
  // Per-page maps of identical PTEs coalesce into a single extent.
  for (std::uint64_t p = 0; p < 6; ++p) {
    pt.map(p * 0x1000, Pte{.node = mem::Node::kCpu});
  }
  EXPECT_EQ(pt.run_count(), 1u);
  // Moving the middle pages splits the extent in three...
  pt.set_node(0x2000, mem::Node::kGpu);
  pt.set_node(0x3000, mem::Node::kGpu);
  EXPECT_EQ(pt.run_count(), 3u);
  EXPECT_EQ(pt.resident_pages(mem::Node::kGpu), 2u);
  // ...and moving them back re-merges everything into one run.
  pt.set_node(0x2000, mem::Node::kCpu);
  pt.set_node(0x3000, mem::Node::kCpu);
  EXPECT_EQ(pt.run_count(), 1u);
  EXPECT_EQ(pt.resident_pages(mem::Node::kCpu), 6u);
}

TEST(PageTable, MidRunUnmapSplitsExtent) {
  PageTable pt{kSystemPage4K};
  pt.map_range(0x0000, 10, Pte{.node = mem::Node::kCpu});
  EXPECT_EQ(pt.run_count(), 1u);
  EXPECT_TRUE(pt.unmap(0x4000));
  EXPECT_EQ(pt.run_count(), 2u);
  EXPECT_EQ(pt.mapped_pages(), 9u);
  EXPECT_EQ(pt.lookup(0x4000), nullptr);
  ASSERT_NE(pt.lookup(0x3000), nullptr);
  ASSERT_NE(pt.lookup(0x5000), nullptr);
  // Remapping the hole with the same attributes heals the single extent.
  pt.map(0x4000, Pte{.node = mem::Node::kCpu});
  EXPECT_EQ(pt.run_count(), 1u);
  EXPECT_EQ(pt.mapped_pages(), 10u);
}

TEST(PageTable, BulkRangeOpsSpliceWholeExtents) {
  PageTable pt{kSystemPage4K};
  pt.map_range(0x0000, 8, Pte{.node = mem::Node::kCpu});
  // Partial node change reports only the pages that actually moved.
  EXPECT_EQ(pt.set_node_range(0x2000, 4, mem::Node::kGpu), 4u);
  EXPECT_EQ(pt.set_node_range(0x2000, 4, mem::Node::kGpu), 0u);
  EXPECT_EQ(pt.run_count(), 3u);
  // map_range overwrites: re-mapping the whole range back to one PTE value
  // collapses the fragmentation.
  pt.map_range(0x0000, 8, Pte{.node = mem::Node::kCpu});
  EXPECT_EQ(pt.run_count(), 1u);
  // unmap_range over a partially mapped window counts only mapped pages.
  EXPECT_EQ(pt.unmap_range(0x6000, 4), 2u);
  EXPECT_EQ(pt.mapped_pages(), 6u);
}

TEST(PageTable, RunsStraddlingRangeBoundariesAreClipped) {
  PageTable pt{kSystemPage4K};
  pt.map_range(0x0000, 12, Pte{.node = mem::Node::kGpu});
  // Queries over a window inside the run see exactly the window.
  EXPECT_EQ(pt.resident_pages_in_range(0x3000, 4), 4u);
  std::uint64_t seen_pages = 0;
  std::uint64_t first = 0;
  pt.for_each_run_in_range(0x3000, 4,
                           [&](std::uint64_t vpn, std::uint64_t pages, const Pte&) {
                             first = vpn;
                             seen_pages += pages;
                           });
  EXPECT_EQ(first, 3u);
  EXPECT_EQ(seen_pages, 4u);
  // A bulk unmap clipped to the window splits the straddling run in two.
  EXPECT_EQ(pt.unmap_range(0x3000, 4), 4u);
  EXPECT_EQ(pt.run_count(), 2u);
  EXPECT_EQ(pt.mapped_pages(), 8u);
}

TEST(PageTable, WritableMismatchTerminatesResidentRun) {
  PageTable pt{kSystemPage4K};
  pt.map_range(0x0000, 6, Pte{.node = mem::Node::kCpu, .writable = true});
  pt.map(0x3000, Pte{.node = mem::Node::kCpu, .writable = false});
  // Same node throughout, but extents are attribute-maximal: the
  // permission boundary ends the run at page 3.
  EXPECT_EQ(pt.run_count(), 3u);
  EXPECT_EQ(pt.resident_run_end(0x0000, mem::Node::kCpu, 0x10000),
            0x3000u);
  // Restoring write permission re-merges the extent and the run again
  // spans all six pages.
  pt.map(0x3000, Pte{.node = mem::Node::kCpu, .writable = true});
  EXPECT_EQ(pt.run_count(), 1u);
  EXPECT_EQ(pt.resident_run_end(0x0000, mem::Node::kCpu, 0x10000),
            0x6000u);
}

TEST(PageTable, NumaGenerationSplitsAndRemerges) {
  PageTable pt{kSystemPage4K};
  pt.map_range(0x0000, 4, Pte{.node = mem::Node::kCpu});
  // A hint fault bumps one page's generation: the run splits around it.
  pt.set_numa_generation(0x1000, 1);
  EXPECT_EQ(pt.run_count(), 3u);
  EXPECT_EQ(pt.resident_run_end(0x0000, mem::Node::kCpu, 0x10000),
            0x1000u);
  // Once the scanner catches the neighbours up, the extent re-coalesces.
  pt.set_numa_generation(0x0000, 1);
  pt.set_numa_generation(0x2000, 1);
  pt.set_numa_generation(0x3000, 1);
  EXPECT_EQ(pt.run_count(), 1u);
  EXPECT_THROW(pt.set_numa_generation(0x9000, 1), std::logic_error);
}

TEST(PageTable, SamplingDoesNotScanTheMap) {
  PageTable pt{kSystemPage64K};
  pt.map_range(0, 1u << 16, Pte{.node = mem::Node::kCpu});
  pt.set_node_range(0x100000, 16, mem::Node::kGpu);
  const std::uint64_t steps_before = pt.scan_steps();
  // Everything the profiler/report sampling path reads per tick must be
  // O(1) or O(log runs) — never a walk over the run map.
  (void)pt.resident_pages(mem::Node::kCpu);
  (void)pt.resident_pages(mem::Node::kGpu);
  (void)pt.resident_bytes(mem::Node::kGpu);
  (void)pt.mapped_pages();
  (void)pt.run_count();
  (void)pt.lookup(0x200000);
  (void)pt.resident_run_end(0x200000, mem::Node::kCpu, ~0ull);
  EXPECT_EQ(pt.scan_steps(), steps_before);
  // Linear walks do advance the counter (that is what it measures).
  pt.for_each_run([](std::uint64_t, std::uint64_t, const Pte&) {});
  EXPECT_GT(pt.scan_steps(), steps_before);
}

TEST(PageTable, FirstTouchGrowsOneRunInPlace) {
  // Pages first-touched in order extend one run; no step of it walks the map.
  PageTable pt{kSystemPage4K};
  const Pte cpu{.node = mem::Node::kCpu};
  const std::uint64_t steps_before = pt.scan_steps();
  for (std::uint64_t p = 0; p < 512; ++p) pt.map(p * 0x1000, cpu);
  EXPECT_EQ(pt.run_count(), 1u);
  EXPECT_EQ(pt.mapped_pages(), 512u);
  EXPECT_EQ(pt.resident_pages(mem::Node::kCpu), 512u);
  EXPECT_EQ(pt.scan_steps(), steps_before);

  // Filling a one-page gap between two equal runs joins all three.
  PageTable gap{kSystemPage4K};
  gap.map_range(0x0000, 4, cpu);
  gap.map_range(0x5000, 4, cpu);
  ASSERT_EQ(gap.run_count(), 2u);
  gap.map(0x4000, cpu);
  EXPECT_EQ(gap.run_count(), 1u);
  EXPECT_EQ(gap.mapped_pages(), 9u);
  EXPECT_EQ(gap.resident_run_end(0x0000, mem::Node::kCpu, ~0ull), 9u * 0x1000);

  // Between unequal runs the filled page joins its left neighbour only.
  PageTable mixed{kSystemPage4K};
  mixed.map_range(0x0000, 4, cpu);
  mixed.map_range(0x5000, 4, Pte{.node = mem::Node::kGpu});
  mixed.map_range(0xA000, 4, cpu);
  mixed.map(0x4000, cpu);
  EXPECT_EQ(mixed.run_count(), 3u);
  EXPECT_EQ(mixed.resident_run_end(0x0000, mem::Node::kCpu, ~0ull), 5u * 0x1000);
  EXPECT_EQ(mixed.resident_pages(mem::Node::kCpu), 9u);
  EXPECT_EQ(mixed.resident_pages(mem::Node::kGpu), 4u);
}

/// Per-page model of a page table: one entry per mapped VPN.
using PageModel = std::map<std::uint64_t, Pte>;

/// Number of maximal runs of consecutive pages with equal PTEs.
std::size_t model_runs(const PageModel& model) {
  std::size_t runs = 0;
  for (const auto& [vpn, pte] : model) {
    if (!model.contains(vpn - 1) || !(model.at(vpn - 1) == pte)) ++runs;
  }
  return runs;
}

/// End (exclusive VPN) of the maximal equal-PTE run holding \p vpn.
std::uint64_t model_run_end(const PageModel& model, std::uint64_t vpn) {
  const Pte pte = model.at(vpn);
  while (model.contains(vpn + 1) && model.at(vpn + 1) == pte) ++vpn;
  return vpn + 1;
}

TEST(PageTableDifferential, SeededOpsMatchPerPageReference) {
  // A seeded mix of every mutation, on a small window so runs keep
  // splitting, merging, growing in place and vanishing, checked after
  // every operation against one PTE per page. Before each operation a
  // point query lands on or beside the range the operation touches, so
  // the last-run cache often holds a run that the operation erases.
  constexpr std::uint64_t kPage = kSystemPage4K;
  constexpr std::uint64_t kWindow = 96;
  std::mt19937_64 rng{29};
  PageTable pt{kPage};
  PageModel model;
  std::string what;
  const auto check = [&] {
    for (std::uint64_t v = 0; v < kWindow + 32; ++v) {
      const Pte* got = pt.lookup(v * kPage);
      auto it = model.find(v);
      if (it == model.end()) {
        ASSERT_EQ(got, nullptr) << what << ": page " << v;
      } else {
        ASSERT_NE(got, nullptr) << what << ": page " << v;
        ASSERT_EQ(*got, it->second) << what << ": page " << v;
      }
    }
    ASSERT_EQ(pt.run_count(), model_runs(model)) << what;
    ASSERT_EQ(pt.mapped_pages(), model.size()) << what;
    for (const auto node : {mem::Node::kCpu, mem::Node::kGpu}) {
      const auto on_node = static_cast<std::size_t>(
          std::count_if(model.begin(), model.end(),
                        [node](const auto& e) { return e.second.node == node; }));
      ASSERT_EQ(pt.resident_pages(node), on_node) << what;
    }
    // resident_run_end from a random page, against the model's runs.
    const std::uint64_t v = rng() % kWindow;
    const auto node = (rng() & 1) != 0 ? mem::Node::kGpu : mem::Node::kCpu;
    std::uint64_t want = v + 1;
    if (model.contains(v) && model.at(v).node == node) {
      want = model_run_end(model, v);
    } else if (model.contains(v + 1) && model.at(v + 1).node == node) {
      want = model_run_end(model, v + 1);
    }
    ASSERT_EQ(pt.resident_run_end(v * kPage, node, ~0ull), want * kPage)
        << what << ": run end from page " << v;
  };

  // Scripted first: a cached run merged into its left neighbour, then the
  // merged run unmapped whole (no split, so no node is allocated in
  // between); the erased node must not answer for its old pages.
  what = "merge then unmap";
  pt.map_range(0, 4, Pte{.node = mem::Node::kCpu});
  pt.map_range(4 * kPage, 4, Pte{.node = mem::Node::kGpu});
  (void)pt.lookup(5 * kPage);
  EXPECT_EQ(pt.set_node_range(4 * kPage, 4, mem::Node::kCpu), 4u);
  EXPECT_EQ(pt.unmap_range(0, 8), 8u);
  check();
  if (HasFatalFailure()) return;

  const auto draw_pte = [&] {
    return Pte{.node = (rng() & 1) != 0 ? mem::Node::kGpu : mem::Node::kCpu,
               .writable = rng() % 8 != 0,
               .numa_generation = static_cast<std::uint32_t>(rng() % 4 == 0)};
  };
  for (int op = 0; op < 4000; ++op) {
    const std::uint64_t lo = rng() % kWindow;
    const std::uint64_t pages = 1 + rng() % (rng() % 4 == 0 ? 24 : 3);
    const std::uint64_t hi = lo + pages;
    const std::uint64_t probe[] = {lo == 0 ? 0 : lo - 1, lo, hi};
    (void)pt.lookup(probe[rng() % 3] * kPage);
    const std::uint64_t roll = rng() % 100;
    const std::string range = std::to_string(lo) + "+" + std::to_string(pages);
    if (roll < 35) {
      const Pte pte = draw_pte();
      what = "map_range " + range;
      if (pages == 1 && rng() % 2 == 0) {
        pt.map(lo * kPage, pte);
      } else {
        pt.map_range(lo * kPage, pages, pte);
      }
      for (std::uint64_t v = lo; v < hi; ++v) model[v] = pte;
    } else if (roll < 55) {
      what = "unmap_range " + range;
      std::uint64_t removed = 0;
      for (std::uint64_t v = lo; v < hi; ++v) removed += model.erase(v);
      ASSERT_EQ(pt.unmap_range(lo * kPage, pages), removed) << what;
    } else if (roll < 75) {
      const auto node = (rng() & 1) != 0 ? mem::Node::kGpu : mem::Node::kCpu;
      what = "set_node_range " + range;
      std::uint64_t changed = 0;
      for (std::uint64_t v = lo; v < hi; ++v) {
        auto it = model.find(v);
        if (it != model.end() && it->second.node != node) {
          it->second.node = node;
          ++changed;
        }
      }
      ASSERT_EQ(pt.set_node_range(lo * kPage, pages, node), changed) << what;
    } else if (roll < 97) {
      const auto gen = static_cast<std::uint32_t>(rng() % 2);
      what = "set_numa_generation " + std::to_string(lo);
      auto it = model.find(lo);
      if (it == model.end()) {
        EXPECT_THROW(pt.set_numa_generation(lo * kPage, gen), std::logic_error) << what;
      } else {
        it->second.numa_generation = gen;
        pt.set_numa_generation(lo * kPage, gen);
      }
    } else {
      // Rebuild the way checkpoint restore does: clear, then put every
      // saved extent back in VPN order. Between the two the table is
      // empty, also for the run the probe above left cached.
      what = "rebuild";
      struct Extent {
        std::uint64_t first_vpn, pages;
        Pte pte;
      };
      std::vector<Extent> saved;
      pt.for_each_run([&saved](std::uint64_t first_vpn, std::uint64_t n, const Pte& pte) {
        saved.push_back({first_vpn, n, pte});
      });
      pt.clear();
      ASSERT_EQ(pt.run_count(), 0u);
      for (std::uint64_t v = 0; v < kWindow + 32; ++v) {
        ASSERT_EQ(pt.lookup(v * kPage), nullptr) << "cleared table: page " << v;
      }
      for (const Extent& e : saved) pt.map_range(e.first_vpn * kPage, e.pages, e.pte);
    }
    what = "op " + std::to_string(op) + " " + what;
    check();
    if (HasFatalFailure()) return;
  }
}

TEST(PageTable, GraceSupportedPageSizes) {
  // Section 2.1.3: system pages are 4 KiB or 64 KiB; GPU pages are 2 MiB.
  EXPECT_EQ(kSystemPage4K, 4096u);
  EXPECT_EQ(kSystemPage64K, 65536u);
  EXPECT_EQ(kGpuPageSize, 2u << 20);
}

TEST(Tlb, HitRefreshesAndMissCounts) {
  Tlb tlb{2};
  EXPECT_FALSE(tlb.lookup(1).has_value());
  tlb.insert(1, mem::Node::kCpu);
  EXPECT_EQ(tlb.lookup(1), mem::Node::kCpu);
  EXPECT_EQ(tlb.hits(), 1u);
  EXPECT_EQ(tlb.misses(), 1u);
}

TEST(Tlb, LruEvictionOrder) {
  Tlb tlb{2};
  tlb.insert(1, mem::Node::kCpu);
  tlb.insert(2, mem::Node::kCpu);
  ASSERT_TRUE(tlb.lookup(1).has_value());  // 1 becomes MRU
  tlb.insert(3, mem::Node::kCpu);          // evicts 2
  EXPECT_TRUE(tlb.lookup(1).has_value());
  EXPECT_FALSE(tlb.lookup(2).has_value());
  EXPECT_TRUE(tlb.lookup(3).has_value());
}

TEST(Tlb, InvalidateAndFlush) {
  Tlb tlb{8};
  tlb.insert(1, mem::Node::kCpu);
  tlb.insert(2, mem::Node::kGpu);
  tlb.invalidate(1);
  EXPECT_FALSE(tlb.lookup(1).has_value());
  EXPECT_TRUE(tlb.lookup(2).has_value());
  tlb.flush();
  EXPECT_EQ(tlb.size(), 0u);
}

TEST(Tlb, CapacityZeroAlwaysMisses) {
  // Regression: a zero-capacity TLB (no-TLB ablation) used to behave as a
  // size-1 cache because insert() evicted then inserted anyway, so repeat
  // accesses to one page were under-charged their walks.
  Tlb tlb{0};
  EXPECT_FALSE(tlb.lookup(7).has_value());
  tlb.insert(7, mem::Node::kCpu);
  EXPECT_EQ(tlb.size(), 0u);
  EXPECT_FALSE(tlb.lookup(7).has_value());  // the insert must not stick
  tlb.insert(7, mem::Node::kGpu);
  tlb.insert(8, mem::Node::kGpu);
  EXPECT_FALSE(tlb.lookup(7).has_value());
  EXPECT_FALSE(tlb.lookup(8).has_value());
  EXPECT_EQ(tlb.hits(), 0u);
  EXPECT_EQ(tlb.misses(), 4u);
  EXPECT_EQ(tlb.size(), 0u);
}

TEST(Tlb, InsertUpdatesExistingNode) {
  Tlb tlb{4};
  tlb.insert(5, mem::Node::kCpu);
  tlb.insert(5, mem::Node::kGpu);
  EXPECT_EQ(tlb.size(), 1u);
  EXPECT_EQ(tlb.lookup(5), mem::Node::kGpu);
}

/// The std::list + std::unordered_map LRU that pagetable::Tlb replaced,
/// kept as the differential oracle for its recency order and counters.
class ReferenceTlb {
 public:
  explicit ReferenceTlb(std::size_t capacity) : capacity_(capacity) {}

  std::optional<mem::Node> lookup(std::uint64_t vpn) {
    auto it = map_.find(vpn);
    if (it == map_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }

  void insert(std::uint64_t vpn, mem::Node node) {
    if (capacity_ == 0) return;
    auto it = map_.find(vpn);
    if (it != map_.end()) {
      it->second->second = node;
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    if (map_.size() >= capacity_ && !lru_.empty()) {
      map_.erase(lru_.back().first);
      lru_.pop_back();
    }
    lru_.emplace_front(vpn, node);
    map_[vpn] = lru_.begin();
  }

  void invalidate(std::uint64_t vpn) {
    auto it = map_.find(vpn);
    if (it == map_.end()) return;
    lru_.erase(it->second);
    map_.erase(it);
  }

  void invalidate_range(std::uint64_t first, std::uint64_t last) {
    if (first >= last) return;
    for (auto it = lru_.begin(); it != lru_.end();) {
      if (it->first >= first && it->first < last) {
        map_.erase(it->first);
        it = lru_.erase(it);
      } else {
        ++it;
      }
    }
  }

  void flush() {
    lru_.clear();
    map_.clear();
  }

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::vector<std::pair<std::uint64_t, mem::Node>> mru_order() const {
    return {lru_.begin(), lru_.end()};
  }

 private:
  using Entry = std::pair<std::uint64_t, mem::Node>;
  std::size_t capacity_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::uint64_t, std::list<Entry>::iterator> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

std::vector<std::pair<std::uint64_t, mem::Node>> mru_order(const Tlb& tlb) {
  std::vector<std::pair<std::uint64_t, mem::Node>> out;
  tlb.for_each_mru(
      [&out](std::uint64_t vpn, mem::Node node) { out.emplace_back(vpn, node); });
  return out;
}

TEST(TlbDifferential, SeededMixMatchesListAndMapReference) {
  // A fill phase (mostly inserts) takes each TLB through every index
  // growth step up to its capacity and into eviction; a churn phase then
  // adds single and range invalidations (empty, partial and whole-range)
  // and flushes. The VPN range is twice the capacity, so the TLB keeps
  // refilling and evicting. Everything observable is compared after
  // every operation.
  for (const std::size_t cap : {0u, 1u, 2u, 3u, 17u, 1536u, 4096u}) {
    for (const std::uint64_t stride : {1u, 32u}) {
      std::mt19937_64 rng{cap * 131 + stride};
      Tlb tlb{cap};
      ReferenceTlb ref{cap};
      const std::uint64_t span = 2 * cap + 16;
      const std::uint64_t base = (rng() >> 20) * stride;
      const auto draw_vpn = [&] { return base + (rng() % span) * stride; };
      const std::size_t fill_ops = 3 * cap + 64;
      const std::size_t total_ops = fill_ops + 4 * cap + 2000;
      std::size_t max_size = 0;
      for (std::size_t op = 0; op < total_ops; ++op) {
        const std::uint64_t roll = rng() % 1000;
        const bool churn = op >= fill_ops;
        const auto node = (rng() & 1) != 0 ? mem::Node::kGpu : mem::Node::kCpu;
        std::string what;
        if (roll < (churn ? 380u : 300u)) {
          const std::uint64_t vpn = draw_vpn();
          what = "lookup " + std::to_string(vpn);
          ASSERT_EQ(tlb.lookup(vpn), ref.lookup(vpn)) << what;
        } else if (roll < (churn ? 760u : 900u)) {
          const std::uint64_t vpn = draw_vpn();
          what = "insert " + std::to_string(vpn);
          tlb.insert(vpn, node);
          ref.insert(vpn, node);
        } else if (roll < (churn ? 880u : 950u)) {
          const std::uint64_t vpn = draw_vpn();
          what = "invalidate " + std::to_string(vpn);
          tlb.invalidate(vpn);
          ref.invalidate(vpn);
        } else if (roll < 998 || !churn) {
          // Empty (first >= last), partial (narrower or wider than the
          // TLB's fill), and, in the churn phase, the whole VPN range.
          std::uint64_t first = draw_vpn();
          std::uint64_t last = first;
          const std::uint64_t kind = rng() % 16;
          if (kind < 3) {
            last = first - (kind == 0 ? 0 : rng() % 8 * stride);
          } else if (kind < 15 || !churn) {
            last = first + (1 + rng() % (churn ? span / 2 : 8)) * stride;
          } else {
            first = base;
            last = base + span * stride;
          }
          what = "invalidate_range " + std::to_string(first) + " " +
                 std::to_string(last);
          tlb.invalidate_range(first, last);
          ref.invalidate_range(first, last);
        } else {
          what = "flush";
          tlb.flush();
          ref.flush();
        }
        ASSERT_EQ(tlb.hits(), ref.hits()) << what;
        ASSERT_EQ(tlb.misses(), ref.misses()) << what;
        ASSERT_EQ(tlb.size(), ref.size()) << what;
        ASSERT_EQ(mru_order(tlb), ref.mru_order())
            << "capacity " << cap << " stride " << stride << " op " << op << ": "
            << what;
        max_size = std::max(max_size, tlb.size());
      }
      EXPECT_EQ(max_size, cap) << "the mix never filled capacity " << cap;
    }
  }
}

TEST(TlbDifferential, SequentialStreamsMatchReference) {
  // The seeded mix builds a streak of fresh in-order misses as long as
  // the capacity, and so reaches the streaming window, only at the
  // smallest capacities. Here each TLB streams past its capacity, then
  // every operation is tried at the window's edges (hi = the next VPN of
  // the stream, lo = hi - capacity): once in the window, and once more
  // after half a capacity of further streaming, when an operation that
  // left the window has a partial streak on the list. The stream then
  // resumes and re-enters the window. Counters and size are compared
  // after every operation; the full MRU order after every edge operation
  // and, past 17 entries, every 256th and the last streamed page.
  for (const std::size_t cap : {1u, 2u, 3u, 17u, 1536u, 4096u}) {
    Tlb tlb{cap};
    ReferenceTlb ref{cap};
    std::uint64_t hi = 1u << 20;
    std::string what;
    const auto node_of = [](std::uint64_t vpn) {
      return vpn % 3 == 0 ? mem::Node::kGpu : mem::Node::kCpu;
    };
    const auto check = [&](bool order) {
      ASSERT_EQ(tlb.hits(), ref.hits()) << "capacity " << cap << ": " << what;
      ASSERT_EQ(tlb.misses(), ref.misses()) << "capacity " << cap << ": " << what;
      ASSERT_EQ(tlb.size(), ref.size()) << "capacity " << cap << ": " << what;
      if (order) {
        ASSERT_EQ(mru_order(tlb), ref.mru_order()) << "capacity " << cap << ": " << what;
      }
    };
    // A translation's miss path: lookup, then insert on a miss.
    const auto stream = [&](std::size_t n) {
      for (std::size_t step = 0; step < n; ++step, ++hi) {
        what = "stream " + std::to_string(hi);
        ASSERT_EQ(tlb.lookup(hi), ref.lookup(hi)) << what;
        tlb.insert(hi, node_of(hi));
        ref.insert(hi, node_of(hi));
        check(cap <= 17 || step % 256 == 0 || step + 1 == n);
        if (::testing::Test::HasFatalFailure()) return;
      }
    };
    const auto lookup = [&](std::uint64_t vpn) {
      what = "lookup " + std::to_string(vpn);
      ASSERT_EQ(tlb.lookup(vpn), ref.lookup(vpn)) << what;
    };
    const auto insert = [&](std::uint64_t vpn) {
      what = "insert " + std::to_string(vpn);
      const mem::Node node = mem::other(node_of(vpn));
      tlb.insert(vpn, node);
      ref.insert(vpn, node);
    };
    const auto invalidate = [&](std::uint64_t vpn) {
      what = "invalidate " + std::to_string(vpn);
      tlb.invalidate(vpn);
      ref.invalidate(vpn);
    };
    const auto invalidate_range = [&](std::uint64_t first, std::uint64_t last) {
      what = "invalidate_range " + std::to_string(first) + " " + std::to_string(last);
      tlb.invalidate_range(first, last);
      ref.invalidate_range(first, last);
    };
    const auto flush = [&] {
      what = "flush";
      tlb.flush();
      ref.flush();
    };
    // Each edge operation, as a function of the stream's next VPN.
    const std::vector<std::function<void(std::uint64_t)>> edge_ops = {
        [&](std::uint64_t h) { lookup(h - 1); },
        [&](std::uint64_t h) { lookup(h - cap); },
        [&](std::uint64_t h) { lookup(h - 1 - cap / 2); },
        [&](std::uint64_t h) { lookup(h); },
        [&](std::uint64_t h) { lookup(h - cap - 1); },
        [&](std::uint64_t h) { lookup(h + 5); },
        [&](std::uint64_t h) { insert(h); },
        [&](std::uint64_t h) { insert(h - 1); },
        [&](std::uint64_t h) { insert(h - 1 - cap / 2); },
        [&](std::uint64_t h) { insert(h - cap); },
        [&](std::uint64_t h) { insert(h - cap - 1); },
        [&](std::uint64_t h) { insert(h + 7); },
        [&](std::uint64_t h) { invalidate(h - 1); },
        [&](std::uint64_t h) { invalidate(h - cap); },
        [&](std::uint64_t h) { invalidate(h - 1 - cap / 2); },
        [&](std::uint64_t h) { invalidate(h); },
        [&](std::uint64_t h) { invalidate(h - cap - 1); },
        [&](std::uint64_t h) { invalidate_range(h - cap + 1, h - 1); },  // inside
        [&](std::uint64_t h) { invalidate_range(h - cap - 3, h - cap + 2); },
        [&](std::uint64_t h) { invalidate_range(h - 2, h + 4); },
        [&](std::uint64_t h) { invalidate_range(h, h + 10); },       // disjoint
        [&](std::uint64_t h) { invalidate_range(h - cap - 10, h - cap); },
        [&](std::uint64_t h) { invalidate_range(h - 1, h - 1); },    // empty
        [&](std::uint64_t h) { invalidate_range(h - 1, h - 3); },    // reversed
        [&](std::uint64_t h) { invalidate_range(h - cap - 1, h + 1); },  // all
        [&](std::uint64_t) { flush(); },
    };
    stream(cap + 3);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    for (const auto& op : edge_ops) {
      op(hi);
      check(true);
      stream(cap / 2);
      op(hi);
      check(true);
      stream(cap + 2);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
    }
    EXPECT_EQ(tlb.size(), cap);
  }
}

class SmmuTest : public ::testing::Test {
 protected:
  PageTable pt{kSystemPage64K};
  Smmu smmu{pt, SmmuCosts{}, 16, 16};
};

TEST_F(SmmuTest, UnmappedPageFaultsWithWalkCost) {
  const Translation t = smmu.translate_cpu(0x10000);
  EXPECT_FALSE(t.present);
  EXPECT_EQ(t.cost, smmu.costs().walk);
}

TEST_F(SmmuTest, MappedPageHitsTlbSecondTime) {
  pt.map(0x10000, Pte{.node = mem::Node::kCpu});
  const Translation t1 = smmu.translate_cpu(0x10000);
  EXPECT_TRUE(t1.present);
  EXPECT_FALSE(t1.tlb_hit);
  const Translation t2 = smmu.translate_cpu(0x10000 + 100);
  EXPECT_TRUE(t2.tlb_hit);
  EXPECT_EQ(t2.cost, 0);
}

TEST_F(SmmuTest, AtsRequestCostsC2CRoundTrip) {
  pt.map(0x20000, Pte{.node = mem::Node::kCpu});
  const Translation t = smmu.translate_ats(0x20000);
  EXPECT_TRUE(t.present);
  EXPECT_EQ(t.cost, smmu.costs().ats_round_trip + smmu.costs().walk);
  // Cached in the ATS TLB afterwards.
  EXPECT_TRUE(smmu.translate_ats(0x20000).tlb_hit);
}

TEST_F(SmmuTest, InvalidateDropsBothTlbs) {
  pt.map(0x30000, Pte{.node = mem::Node::kGpu});
  (void)smmu.translate_cpu(0x30000);
  (void)smmu.translate_ats(0x30000);
  smmu.invalidate(0x30000);
  EXPECT_FALSE(smmu.translate_cpu(0x30000).tlb_hit);
  EXPECT_FALSE(smmu.translate_ats(0x30000).tlb_hit);
}

class GmmuTest : public ::testing::Test {
 protected:
  PageTable sys_pt{kSystemPage64K};
  PageTable gpu_pt{kGpuPageSize};
  Smmu smmu{sys_pt, SmmuCosts{}, 16, 16};
  Gmmu gmmu{gpu_pt, smmu, GmmuCosts{}, 16, 16};
};

TEST_F(GmmuTest, GpuTableMissIsManagedFault) {
  const GpuTranslation t = gmmu.translate_gpu_table(0x200000);
  EXPECT_EQ(t.outcome, GpuXlatOutcome::kManagedFault);
}

TEST_F(GmmuTest, GpuTableHitAfterMap) {
  gpu_pt.map(0x200000, Pte{.node = mem::Node::kGpu});
  const GpuTranslation t1 = gmmu.translate_gpu_table(0x200000);
  EXPECT_EQ(t1.outcome, GpuXlatOutcome::kResident);
  EXPECT_FALSE(t1.tlb_hit);
  // Whole 2 MiB block served by one uTLB entry.
  const GpuTranslation t2 = gmmu.translate_gpu_table(0x200000 + (1 << 20));
  EXPECT_TRUE(t2.tlb_hit);
}

TEST_F(GmmuTest, SystemPathFirstTouchThenAtsCached) {
  const GpuTranslation t0 = gmmu.translate_system(0x40000);
  EXPECT_EQ(t0.outcome, GpuXlatOutcome::kSystemFirstTouch);
  sys_pt.map(0x40000, Pte{.node = mem::Node::kCpu});
  const GpuTranslation t1 = gmmu.translate_system(0x40000);
  EXPECT_EQ(t1.outcome, GpuXlatOutcome::kResident);
  EXPECT_FALSE(t1.tlb_hit);
  EXPECT_TRUE(gmmu.translate_system(0x40000 + 64).tlb_hit);
}

TEST_F(GmmuTest, SystemInvalidationForcesNewAtsRequest) {
  sys_pt.map(0x40000, Pte{.node = mem::Node::kCpu});
  (void)gmmu.translate_system(0x40000);
  gmmu.invalidate_system(0x40000);
  EXPECT_FALSE(gmmu.translate_system(0x40000).tlb_hit);
}

}  // namespace
}  // namespace ghum::pagetable
