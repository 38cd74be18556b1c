#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/system.hpp"

/// \file span.hpp
/// Instrumented typed accessor: application kernels read and write real
/// data through Span<T> while every access is charged to the simulated
/// memory system. A per-span *page cursor* caches the System::resolve()
/// result for the page currently being traversed, and a *line cursor*
/// remembers the cacheline last marked in that page. An access inside
/// that line is already counted in the line bitmap, so the per-access fast
/// path is one compare and one element-counter increment; entering another
/// line marks the bitmap, and leaving the page (or any migration, pushed
/// to the span as an epoch bump by core::Machine) re-resolves and flushes
/// the aggregated counts through System::commit().
///
/// The line bitmap counts *unique* cachelines touched per page visit,
/// modeling L1/L2 coalescing: dense sweeps are charged their raw byte
/// volume, while sparse/irregular patterns are charged whole cachelines —
/// the read-amplification effect the paper attributes to irregular access
/// patterns.
///
/// Spans must not outlive the kernel/phase they are used in: create them
/// inside the launch body (they flush on destruction). A span registers
/// its line cursor with the System's machine for its whole lifetime, so it
/// must never outlive that System.

namespace ghum::runtime {

template <typename T>
class Span {
 public:
  Span(core::System& sys, const core::Buffer& buf, mem::Node origin,
       std::uint64_t elem_offset = 0, std::uint64_t count = ~0ull)
      : sys_(&sys), origin_(origin), batched_(sys.config().batched_access) {
    // Checked before any pointer arithmetic: an offset past the buffer
    // would otherwise wrap the element count and let load/store run off
    // the host image.
    const std::uint64_t total = buf.bytes / sizeof(T);
    if (elem_offset > total) {
      throw std::out_of_range{"Span: element offset past the end of the buffer"};
    }
    const std::uint64_t avail = total - elem_offset;
    if (count != ~0ull && count > avail) {
      throw std::out_of_range{"Span: element range past the end of the buffer"};
    }
    va_ = buf.va + elem_offset * sizeof(T);
    ptr_ = reinterpret_cast<T*>(buf.host) + elem_offset;
    n_ = count == ~0ull ? avail : count;
    sys.machine().attach(cursor_);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& o) = delete;
  Span& operator=(Span&&) = delete;

  ~Span() {
    flush();
    sys_->machine().detach(cursor_);
  }

  [[nodiscard]] std::size_t size() const noexcept { return n_; }

  /// Accounted read.
  [[nodiscard]] T load(std::size_t i) {
    touch(i, /*write=*/false);
    return ptr_[i];
  }

  /// Accounted *dependent* read (pointer chase): the next instruction
  /// needs this value, so the access serializes on the full tier latency
  /// instead of pipelining with its neighbours. Use for linked-list /
  /// index-chain traversals.
  [[nodiscard]] T load_chased(std::size_t i) {
    touch(i, /*write=*/false);
    sys_->charge_dependent_access(view_);
    return ptr_[i];
  }

  /// Accounted write.
  void store(std::size_t i, T v) {
    touch(i, /*write=*/true);
    ptr_[i] = v;
  }

  /// Accounted contiguous read of \p count elements starting at \p i:
  /// charged exactly like count individual load() calls (same bytes, lines
  /// and commit boundaries), but accounted page-at-a-time with bulk
  /// bitmap arithmetic. Returns the raw elements for the caller to read.
  /// Only monotone single-pass loops should use this — the per-element
  /// accessors remain the general path.
  [[nodiscard]] const T* load_run(std::size_t i, std::size_t count) {
    account_run(i, count, /*write=*/false);
    return ptr_ + i;
  }

  /// Accounted contiguous write of \p count elements starting at \p i
  /// (bulk analogue of store(); see load_run()). Returns the destination
  /// elements for the caller to fill.
  [[nodiscard]] T* store_run(std::size_t i, std::size_t count) {
    account_run(i, count, /*write=*/true);
    return ptr_ + i;
  }

  /// Accounted read-modify-write access.
  [[nodiscard]] T& mutate(std::size_t i) {
    touch(i, false);
    touch(i, true);
    return ptr_[i];
  }

  /// Remote-capable atomic op on element \p i (cost of a C2C atomic when
  /// the data is on the other side of the link).
  T atomic_exchange(std::size_t i, T v) {
    touch(i, true);
    if (view_.node != origin_) {
      flush();
      sys_->clock().advance(sys_->machine().c2c().atomic_op());
    }
    T old = ptr_[i];
    ptr_[i] = v;
    return old;
  }

  /// Unaccounted escape hatch (reference checking in tests only).
  [[nodiscard]] const T* raw() const noexcept { return ptr_; }

  /// Pushes pending aggregated accesses into the memory model.
  void flush() {
    commit_pending();
    // Invalidate so the next access re-resolves.
    view_.page_base = 1;
    view_.page_end = 0;
    view_.run_end = 0;
    cursor_.line_len = 0;
  }

 private:
  void touch(std::size_t i, bool write) {
    const std::uint64_t addr = va_ + i * sizeof(T);
    if (addr - cursor_.line_base >= cursor_.line_len) enter_line(addr);
    ++(write ? pend_nw_ : pend_nr_);
  }

  /// Slow half of touch(): re-resolves when \p addr left the page view or
  /// the epoch moved, then marks the line holding \p addr in the bitmap and
  /// points the line cursor at it.
  [[gnu::noinline]] void enter_line(std::uint64_t addr) {
    if (addr < view_.page_base || addr >= view_.page_end ||
        sys_->epoch() != view_.epoch) {
      reenter(addr);
    }
    const std::uint64_t line = (addr - view_.page_base) >> line_shift_;
    std::uint64_t& word = bitmap_[line >> 6];
    const std::uint64_t bit = 1ull << (line & 63);
    if ((word & bit) == 0) {
      word |= bit;
      ++pend_lines_;
    }
    cursor_.line_base = view_.page_base + (line << line_shift_);
    cursor_.line_len =
        std::min<std::uint64_t>(view_.line_size, view_.page_end - cursor_.line_base);
  }

  /// Commits the pending element counts of the current page visit. Every
  /// access moves sizeof(T) bytes, so element counts carry the byte and
  /// access totals exactly.
  void commit_pending() {
    if ((pend_nr_ | pend_nw_) != 0) {
      sys_->commit(view_, pend_nr_ * sizeof(T), pend_nw_ * sizeof(T), pend_lines_,
                   pend_nr_ + pend_nw_);
      pend_nr_ = pend_nw_ = pend_lines_ = 0;
    }
  }

  void reenter(std::uint64_t addr) {
    cursor_.line_len = 0;
    commit_pending();
    if (!batched_ || !sys_->advance_view(view_, addr)) {
      view_ = sys_->resolve(addr, origin_);
    }
    line_shift_ = static_cast<unsigned>(std::countr_zero(
        static_cast<std::uint64_t>(view_.line_size)));
    const std::uint64_t lines =
        ((view_.page_end - view_.page_base) + view_.line_size - 1) / view_.line_size;
    bitmap_.assign((lines + 63) / 64, 0);
  }

  /// Accounts \p count accesses starting at element \p i exactly like a
  /// per-element touch() loop: same page visits (=> same commit
  /// boundaries, faults and translation charges at the same simulated
  /// times), same unique-line counts, same raw bytes. With batching off —
  /// or elements wider than a cacheline, where bulk start-address line
  /// marking would diverge — it *is* that loop.
  void account_run(std::size_t i, std::size_t count, bool write) {
    if (!batched_) {
      for (std::size_t k = 0; k < count; ++k) touch(i + k, write);
      return;
    }
    const std::size_t end = i + count;
    std::size_t k = i;
    while (k < end) {
      const std::uint64_t addr = va_ + k * sizeof(T);
      if (addr < view_.page_base || addr >= view_.page_end ||
          sys_->epoch() != view_.epoch) {
        reenter(addr);
      }
      // Elements are attributed to the page containing their *start*
      // address (touch() semantics), so one straddling the page boundary
      // still belongs to this chunk.
      const std::uint64_t room = view_.page_end - addr;
      std::size_t fit = static_cast<std::size_t>((room + sizeof(T) - 1) / sizeof(T));
      if (fit > end - k) fit = end - k;
      if (sizeof(T) > view_.line_size) {
        // Wide elements can skip lines between consecutive starts; the
        // scalar path marks exactly the start lines.
        for (std::size_t e = 0; e < fit; ++e) touch(k + e, write);
        k += fit;
        continue;
      }
      // Element stride <= line size: the start addresses hit every line in
      // [first, last], so marking that range word-wise counts exactly the
      // lines a touch() loop would.
      const std::uint64_t first = (addr - view_.page_base) >> line_shift_;
      const std::uint64_t last =
          (addr + (fit - 1) * sizeof(T) - view_.page_base) >> line_shift_;
      for (std::uint64_t w = first >> 6; w <= (last >> 6); ++w) {
        const std::uint64_t lo = w << 6;
        std::uint64_t mask = ~0ull;
        if (first > lo) mask &= ~0ull << (first - lo);
        if (last < lo + 63) mask &= ~0ull >> (63 - (last - lo));
        std::uint64_t& word = bitmap_[w];
        pend_lines_ += static_cast<std::uint64_t>(std::popcount(mask & ~word));
        word |= mask;
      }
      (write ? pend_nw_ : pend_nr_) += fit;
      k += fit;
    }
  }

  core::System* sys_;
  mem::Node origin_;
  std::uint64_t va_ = 0;
  T* ptr_ = nullptr;
  bool batched_;
  std::size_t n_ = 0;

  core::LineCursor cursor_{};  // starts empty: the first access resolves
  core::PageView view_{};      // starts invalid (page_base=1 > page_end=0)
  unsigned line_shift_ = 6;
  std::vector<std::uint64_t> bitmap_;
  std::uint64_t pend_nr_ = 0;  ///< elements read in this page visit
  std::uint64_t pend_nw_ = 0;  ///< elements written in this page visit
  std::uint64_t pend_lines_ = 0;
};

}  // namespace ghum::runtime
