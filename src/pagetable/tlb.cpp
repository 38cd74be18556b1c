#include "pagetable/tlb.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace ghum::pagetable {

namespace {

/// Smallest index table: 16 slots hold 8 entries at the ½ load bound.
constexpr std::size_t kMinSlots = 16;

}  // namespace

Tlb::Tlb(std::size_t capacity) : capacity_(capacity) {
  if (capacity >= kNil) {
    throw std::invalid_argument{"Tlb: capacity exceeds 32-bit entry links"};
  }
}

std::size_t Tlb::home(std::uint64_t vpn) const noexcept {
  // Fibonacci hashing: the top bits of vpn * 2^64/phi spread the dense,
  // sequential VPNs of a sweep evenly over the table.
  return static_cast<std::size_t>((vpn * 0x9e3779b97f4a7c15ull) >> shift_);
}

std::size_t Tlb::slot_of(std::uint64_t vpn) const noexcept {
  const std::size_t mask = index_.size() - 1;
  std::size_t s = home(vpn);
  while (index_[s] != kNil && entries_[index_[s]].vpn != vpn) s = (s + 1) & mask;
  return s;
}

std::uint32_t Tlb::find(std::uint64_t vpn) const noexcept {
  if (size_ == 0) return kNil;
  return index_[slot_of(vpn)];
}

void Tlb::erase_slot(std::size_t hole) noexcept {
  // Pull back every later entry of the probe cluster whose home slot lies
  // cyclically at or before the hole, so lookups never need tombstones.
  const std::size_t mask = index_.size() - 1;
  for (std::size_t j = (hole + 1) & mask; index_[j] != kNil; j = (j + 1) & mask) {
    if (((j - home(entries_[index_[j]].vpn)) & mask) >= ((j - hole) & mask)) {
      index_[hole] = index_[j];
      hole = j;
    }
  }
  index_[hole] = kNil;
}

void Tlb::grow_index() {
  const std::size_t slots = std::max(kMinSlots, 2 * index_.size());
  index_.assign(slots, kNil);
  shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
  for (std::uint32_t i = head_; i != kNil; i = entries_[i].next) {
    index_[slot_of(entries_[i].vpn)] = i;
  }
}

void Tlb::unlink(std::uint32_t i) noexcept {
  const Entry& e = entries_[i];
  (e.prev == kNil ? head_ : entries_[e.prev].next) = e.next;
  (e.next == kNil ? tail_ : entries_[e.next].prev) = e.prev;
}

void Tlb::to_front(std::uint32_t i) noexcept {
  if (i == head_) return;
  unlink(i);
  push_front(i);
  streak_ = 1;
  streak_end_ = entries_[i].vpn + 1;
}

void Tlb::push_front(std::uint32_t i) noexcept {
  entries_[i].prev = kNil;
  entries_[i].next = head_;
  (head_ == kNil ? tail_ : entries_[head_].prev) = i;
  head_ = i;
}

void Tlb::push_back(std::uint32_t i) noexcept {
  entries_[i].prev = tail_;
  entries_[i].next = kNil;
  (tail_ == kNil ? head_ : entries_[tail_].next) = i;
  tail_ = i;
}

std::uint32_t Tlb::emplace(std::uint64_t vpn, mem::Node node) {
  if (2 * (size_ + 1) > index_.size()) grow_index();
  std::uint32_t i = free_;
  if (i != kNil) {
    free_ = entries_[i].next;
    entries_[i] = Entry{vpn, kNil, kNil, node};
  } else {
    // Doubling, but never past the capacity.
    if (entries_.size() == entries_.capacity()) {
      const std::size_t grown = std::max(kMinSlots / 2, 2 * entries_.size());
      entries_.reserve(std::min(capacity_, grown));
    }
    i = static_cast<std::uint32_t>(entries_.size());
    entries_.push_back(Entry{vpn, kNil, kNil, node});
  }
  index_[slot_of(vpn)] = i;
  ++size_;
  return i;
}

void Tlb::remove(std::uint32_t i) noexcept {
  // Removing a streak entry cuts the streak to the entries above it.
  const std::uint64_t above = streak_end_ - 1 - entries_[i].vpn;
  if (above < streak_) streak_ = above;
  erase_slot(slot_of(entries_[i].vpn));
  unlink(i);
  entries_[i].next = free_;
  free_ = i;
  --size_;
}

void Tlb::enter_window() {
  ring_.resize(capacity_);
  lo_ = streak_end_ - capacity_;
  lo_slot_ = 0;
  std::size_t k = capacity_;
  for (std::uint32_t i = head_; i != kNil; i = entries_[i].next) ring_[--k] = entries_[i].node;
  windowed_ = true;
}

void Tlb::leave_window() {
  flush();
  for (std::size_t k = capacity_; k-- > 0;) push_back(emplace(lo_ + k, ring_[ring_slot(k)]));
  streak_ = capacity_;
  streak_end_ = lo_ + capacity_;
}

std::optional<mem::Node> Tlb::lookup(std::uint64_t vpn) {
  if (windowed_) {
    const std::uint64_t k = vpn - lo_;
    if (k >= capacity_) {
      misses_->inc();
      return std::nullopt;
    }
    // A hit on the most recent entry reorders nothing.
    if (k == capacity_ - 1) {
      hits_->inc();
      return ring_[ring_slot(k)];
    }
    leave_window();
  }
  const std::uint32_t i = find(vpn);
  if (i == kNil) {
    misses_->inc();
    return std::nullopt;
  }
  hits_->inc();
  to_front(i);
  return entries_[i].node;
}

void Tlb::insert(std::uint64_t vpn, mem::Node node) {
  // A zero-capacity TLB caches nothing (no-TLB ablation); the
  // evict-then-insert below needs at least one slot.
  if (capacity_ == 0) return;
  if (windowed_) {
    const std::uint64_t k = vpn - lo_;
    if (k == capacity_) {
      // The next VPN evicts lo_ and takes its slot.
      ring_[lo_slot_] = node;
      lo_slot_ = ring_slot(1);
      ++lo_;
      return;
    }
    if (k == capacity_ - 1) {
      ring_[ring_slot(k)] = node;
      return;
    }
    leave_window();
  }
  if (const std::uint32_t i = find(vpn); i != kNil) {
    entries_[i].node = node;
    to_front(i);
    return;
  }
  // Full: the evicted LRU entry's slot is the one emplace() takes back.
  if (size_ >= capacity_) remove(tail_);
  push_front(emplace(vpn, node));
  streak_ = streak_ != 0 && vpn == streak_end_ ? streak_ + 1 : 1;
  streak_end_ = vpn + 1;
  if (streak_ == capacity_) enter_window();
}

void Tlb::invalidate(std::uint64_t vpn) {
  if (windowed_) {
    if (vpn - lo_ >= capacity_) return;
    leave_window();
  }
  if (const std::uint32_t i = find(vpn); i != kNil) remove(i);
}

void Tlb::invalidate_range(std::uint64_t first, std::uint64_t last) {
  if (first >= last || size_ == 0) return;
  if (windowed_) {
    // Two ranges overlap iff either one holds the other's first VPN.
    if (first - lo_ >= capacity_ && lo_ - first >= last - first) return;
    leave_window();
  }
  // Removing a set of entries leaves the survivors' order unchanged, so
  // probing each VPN and walking the list give the same TLB.
  if (last - first < size_) {
    for (std::uint64_t vpn = first; vpn != last; ++vpn) invalidate(vpn);
    return;
  }
  for (std::uint32_t i = head_; i != kNil;) {
    const std::uint32_t next = entries_[i].next;
    if (entries_[i].vpn >= first && entries_[i].vpn < last) remove(i);
    i = next;
  }
}

void Tlb::flush() {
  windowed_ = false;
  entries_.clear();
  std::fill(index_.begin(), index_.end(), kNil);
  head_ = tail_ = free_ = kNil;
  size_ = 0;
  streak_ = 0;
}

bool Tlb::append_lru(std::uint64_t vpn, mem::Node node) {
  if (windowed_) leave_window();
  if (find(vpn) != kNil) return false;
  push_back(emplace(vpn, node));
  return true;
}

}  // namespace ghum::pagetable
