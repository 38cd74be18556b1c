#include "pagetable/page_table.hpp"

#include <bit>
#include <stdexcept>

namespace ghum::pagetable {

PageTable::PageTable(std::uint64_t page_size) : page_size_(page_size) {
  if (page_size == 0 || !std::has_single_bit(page_size)) {
    throw std::invalid_argument{"PageTable: page size must be a power of two"};
  }
  page_shift_ = static_cast<unsigned>(std::countr_zero(page_size));
}

PageTable::RunMap::const_iterator PageTable::find_run(std::uint64_t vpn) const {
  if (last_ != runs_.end() && vpn - last_->first < last_->second.pages) return last_;
  auto it = runs_.upper_bound(vpn);
  if (it == runs_.begin()) return runs_.end();
  --it;
  if (vpn >= it->first + it->second.pages) return runs_.end();
  last_ = it;
  return it;
}

PageTable::RunMap::iterator PageTable::find_run_mut(std::uint64_t vpn) {
  auto it = runs_.upper_bound(vpn);
  if (it == runs_.begin()) return runs_.end();
  --it;
  return vpn < it->first + it->second.pages ? it : runs_.end();
}

void PageTable::account(std::uint64_t pages, mem::Node node, bool add) noexcept {
  auto& per_node = node_pages_[static_cast<std::size_t>(node)];
  if (add) {
    total_pages_ += pages;
    per_node += pages;
  } else {
    total_pages_ -= pages;
    per_node -= pages;
  }
}

void PageTable::split_before(std::uint64_t vpn) {
  auto it = find_run_mut(vpn);
  if (it == runs_.end() || it->first == vpn) return;
  const std::uint64_t head = vpn - it->first;
  const Run tail{it->second.pages - head, it->second.pte};
  it->second.pages = head;
  runs_.emplace_hint(std::next(it), vpn, tail);
}

PageTable::RunMap::iterator PageTable::merge_left(RunMap::iterator it) {
  if (it == runs_.begin()) return it;
  auto prev = std::prev(it);
  if (prev->first + prev->second.pages != it->first ||
      !(prev->second.pte == it->second.pte)) {
    return it;
  }
  prev->second.pages += it->second.pages;
  if (last_ == it) last_ = runs_.end();
  runs_.erase(it);
  return prev;
}

void PageTable::insert_run(std::uint64_t first_vpn, std::uint64_t pages, Pte pte) {
  if (pages == 0) return;
  auto [it, inserted] = runs_.emplace(first_vpn, Run{pages, pte});
  if (!inserted) throw std::logic_error{"PageTable: overlapping run insert"};
  account(pages, pte.node, /*add=*/true);
  it = merge_left(it);
  auto next = std::next(it);
  if (next != runs_.end()) merge_left(next);
}

const Pte* PageTable::lookup(std::uint64_t va) const {
  auto it = find_run(vpn(va));
  return it == runs_.end() ? nullptr : &it->second.pte;
}

void PageTable::map(std::uint64_t va, Pte pte) { map_range(va, 1, pte); }

bool PageTable::unmap(std::uint64_t va) { return unmap_range(va, 1) > 0; }

void PageTable::set_node(std::uint64_t va, mem::Node node) {
  if (lookup(va) == nullptr) {
    throw std::logic_error{"PageTable::set_node: page not mapped"};
  }
  (void)set_node_range(va, 1, node);
}

void PageTable::set_numa_generation(std::uint64_t va, std::uint32_t generation) {
  const std::uint64_t v = vpn(va);
  if (find_run(v) == runs_.end()) {
    throw std::logic_error{"PageTable::set_numa_generation: page not mapped"};
  }
  split_before(v);
  split_before(v + 1);
  auto it = runs_.find(v);
  it->second.pte.numa_generation = generation;
  it = merge_left(it);
  auto next = std::next(it);
  if (next != runs_.end()) merge_left(next);
}

void PageTable::map_range(std::uint64_t va, std::uint64_t pages, Pte pte) {
  if (pages == 0) return;
  const std::uint64_t lo = vpn(va);
  const std::uint64_t hi = lo + pages;
  // First touch: the range is unmapped and the run ending at its first
  // page carries the same PTE, so that run grows in place (one lookup, no
  // split, no node allocation) and absorbs an equal run it now touches.
  auto next = runs_.lower_bound(lo);
  if (next != runs_.begin() && (next == runs_.end() || next->first >= hi)) {
    auto prev = std::prev(next);
    if (prev->first + prev->second.pages == lo && prev->second.pte == pte) {
      prev->second.pages += pages;
      account(pages, pte.node, /*add=*/true);
      if (next != runs_.end()) (void)merge_left(next);
      return;
    }
  }
  (void)unmap_range(va, pages);  // overwrite semantics
  insert_run(lo, pages, pte);
}

std::uint64_t PageTable::unmap_range(std::uint64_t va, std::uint64_t pages) {
  if (pages == 0) return 0;
  const std::uint64_t lo = vpn(va);
  const std::uint64_t hi = lo + pages;
  split_before(lo);
  split_before(hi);
  auto it = runs_.lower_bound(lo);
  std::uint64_t removed = 0;
  while (it != runs_.end() && it->first < hi) {
    removed += it->second.pages;
    account(it->second.pages, it->second.pte.node, /*add=*/false);
    if (last_ == it) last_ = runs_.end();
    it = runs_.erase(it);
  }
  return removed;
}

std::uint64_t PageTable::set_node_range(std::uint64_t va, std::uint64_t pages,
                                        mem::Node node) {
  if (pages == 0) return 0;
  const std::uint64_t lo = vpn(va);
  const std::uint64_t hi = lo + pages;
  split_before(lo);
  split_before(hi);
  std::uint64_t changed = 0;
  auto it = runs_.lower_bound(lo);
  while (it != runs_.end() && it->first < hi) {
    if (it->second.pte.node != node) {
      account(it->second.pages, it->second.pte.node, /*add=*/false);
      it->second.pte.node = node;
      account(it->second.pages, node, /*add=*/true);
      changed += it->second.pages;
    }
    it = merge_left(it);
    ++it;
  }
  // Re-join the run starting exactly at hi with its (possibly rewritten)
  // left neighbour, undoing the split when attributes still match.
  if (it != runs_.end() && it->first == hi) (void)merge_left(it);
  return changed;
}

std::uint64_t PageTable::resident_pages_in_range(std::uint64_t va,
                                                 std::uint64_t pages) const {
  std::uint64_t n = 0;
  for_each_run_in_range(va, pages,
                        [&n](std::uint64_t, std::uint64_t run_pages, const Pte&) {
                          n += run_pages;
                        });
  return n;
}

std::uint64_t PageTable::resident_run_end(std::uint64_t va, mem::Node node,
                                          std::uint64_t limit) const {
  const std::uint64_t v = vpn(va);
  std::uint64_t end_vpn = v + 1;
  auto it = find_run(v);
  if (it != runs_.end() && it->second.pte.node == node) {
    end_vpn = it->first + it->second.pages;
  } else {
    // The anchor page was already resolved by the caller, so its own
    // state is irrelevant; extend across the next extent when contiguous.
    auto next = find_run(v + 1);
    if (next != runs_.end() && next->second.pte.node == node) {
      end_vpn = next->first + next->second.pages;
    }
  }
  std::uint64_t end = end_vpn << page_shift_;
  const std::uint64_t floor = page_base(va) + page_size_;
  if (end < floor) end = floor;
  return end < limit ? end : limit;
}

void PageTable::clear() {
  runs_.clear();
  last_ = runs_.end();
  total_pages_ = 0;
  node_pages_[0] = node_pages_[1] = 0;
}

}  // namespace ghum::pagetable
