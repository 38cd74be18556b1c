#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "mem/node.hpp"
#include "obs/metrics.hpp"

/// \file tlb.hpp
/// A fully-associative LRU translation lookaside buffer. Grace Hopper has
/// several translation caches (CPU core TLBs, SMMU TLBs/TBU, GPU uTLBs);
/// we model each as one capacity-bounded LRU cache keyed by virtual page
/// number. A TLB hit avoids the page-walk cost; migration and unmapping
/// invalidate entries (TLB shootdown costs are charged by the cost model).
///
/// Layout (DESIGN.md Section 7, "Flat TLBs"): the entries live in one
/// array, doubly linked into the LRU list by 32-bit indices, and an
/// open-addressed table of entry indices finds them by VPN. Both arrays
/// grow on demand up to the capacity, so a miss allocates nothing once the
/// TLB has filled.
///
/// Streaming window: once a full TLB holds nothing but one unbroken run of
/// fresh, in-order misses, its LRU list is exactly the VPN range
/// [lo, lo + capacity), most recent last. The TLB then keeps only that
/// range and a ring of nodes, and a sequential sweep's lookups, inserts
/// and evictions are O(1) range compares. Any other change first rebuilds
/// the list from the range.

namespace ghum::chk {
class Snapshotter;
}  // namespace ghum::chk

namespace ghum::pagetable {

class Tlb {
 public:
  /// Throws std::invalid_argument if \p capacity does not fit the 32-bit
  /// entry links.
  explicit Tlb(std::size_t capacity);

  // The counter pointers may point into the TLB itself.
  Tlb(const Tlb&) = delete;
  Tlb& operator=(const Tlb&) = delete;

  /// Looks up a VPN; refreshes LRU position on hit.
  [[nodiscard]] std::optional<mem::Node> lookup(std::uint64_t vpn);

  /// Inserts (or refreshes) a translation, evicting LRU when full.
  void insert(std::uint64_t vpn, mem::Node node);

  /// Invalidates one VPN (no-op if absent).
  void invalidate(std::uint64_t vpn);

  /// Invalidates every cached VPN in [first, last). Costs
  /// O(min(last - first, size())), so bulk unmap / migration splices never
  /// pay per page beyond the bounded TLB.
  void invalidate_range(std::uint64_t first, std::uint64_t last);

  /// Invalidates everything (full shootdown).
  void flush();

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_->value(); }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_->value(); }

  /// Calls \p visit(vpn, node) for every entry, most recent first.
  template <typename F>
  void for_each_mru(F&& visit) const {
    if (windowed_) {
      for (std::size_t k = capacity_; k-- > 0;) visit(lo_ + k, ring_[ring_slot(k)]);
      return;
    }
    for (std::uint32_t i = head_; i != kNil; i = entries_[i].next) {
      visit(entries_[i].vpn, entries_[i].node);
    }
  }

  /// Counts hits and misses in \p hits and \p misses (core::Machine binds
  /// its registry's ghum_tlb_* counters at construction); until bound, in
  /// a pair of the TLB's own.
  void bind_metrics(obs::Counter* hits, obs::Counter* misses) noexcept {
    hits_ = hits;
    misses_ = misses;
  }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  struct Entry {
    std::uint64_t vpn;
    std::uint32_t prev;  ///< towards the MRU end; free slots: unused
    std::uint32_t next;  ///< towards the LRU end; free slots: next free
    mem::Node node;
  };

  /// First index slot probed for \p vpn.
  [[nodiscard]] std::size_t home(std::uint64_t vpn) const noexcept;
  /// Index slot holding \p vpn, or the empty slot where it would go.
  [[nodiscard]] std::size_t slot_of(std::uint64_t vpn) const noexcept;
  /// Entry index of \p vpn, or kNil.
  [[nodiscard]] std::uint32_t find(std::uint64_t vpn) const noexcept;
  /// Empties index slot \p hole by backward-shift deletion.
  void erase_slot(std::size_t hole) noexcept;
  /// Doubles the index (at least kMinSlots) and reinserts every entry.
  void grow_index();
  void unlink(std::uint32_t i) noexcept;
  /// Makes linked entry \p i the most recent.
  void to_front(std::uint32_t i) noexcept;
  void push_front(std::uint32_t i) noexcept;
  void push_back(std::uint32_t i) noexcept;
  /// Takes a free or fresh entry for a VPN known to be absent, sets it and
  /// indexes it; the caller links it into the list.
  std::uint32_t emplace(std::uint64_t vpn, mem::Node node);
  /// Unindexes, unlinks and frees entry \p i.
  void remove(std::uint32_t i) noexcept;

  /// Ring slot of window VPN lo_ + \p k (k < capacity_).
  [[nodiscard]] std::size_t ring_slot(std::size_t k) const noexcept {
    const std::size_t s = lo_slot_ + k;
    return s < capacity_ ? s : s - capacity_;
  }
  /// Switches a full TLB whose list is the streak to the window.
  void enter_window();
  /// Rebuilds the list and index from the window, in the same order.
  void leave_window();

  /// Restores one checkpointed entry at the LRU end; the caller has kept
  /// the entry count within capacity(). Returns false (and changes
  /// nothing) if the TLB already holds \p vpn.
  [[nodiscard]] bool append_lru(std::uint64_t vpn, mem::Node node);

  std::size_t capacity_;
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> index_;  ///< entry indices; kNil = empty slot
  unsigned shift_ = 64;               ///< 64 - log2(index_.size())
  std::uint32_t head_ = kNil;         ///< most recent
  std::uint32_t tail_ = kNil;         ///< least recent
  std::uint32_t free_ = kNil;         ///< free-list head, linked by next
  std::size_t size_ = 0;
  /// List mode: the streak_ most recent entries are the VPNs
  /// streak_end_ - 1, streak_end_ - 2, ... in that order.
  std::size_t streak_ = 0;
  std::uint64_t streak_end_ = 0;
  /// Window mode: the TLB is full and holds exactly [lo_, lo_ + capacity_),
  /// most recent last; VPN lo_ + k's node is ring_[ring_slot(k)], and
  /// entries_ and index_ are stale until leave_window().
  bool windowed_ = false;
  std::uint64_t lo_ = 0;
  std::size_t lo_slot_ = 0;
  std::vector<mem::Node> ring_;
  obs::Counter own_hits_;
  obs::Counter own_misses_;
  obs::Counter* hits_ = &own_hits_;
  obs::Counter* misses_ = &own_misses_;

  // Restore appends entries.
  friend class ghum::chk::Snapshotter;
};

}  // namespace ghum::pagetable
