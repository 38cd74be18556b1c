#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <tuple>
#include <type_traits>
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
/// Loops that advance several affine streams together (a stencil row, a
/// DP tile row) account them with account(): it batches every iteration in
/// which no stream would leave its page view, and runs the per-element
/// touch() of each stream, in argument order, for the iterations where one
/// would. The System sees the same resolve/advance_view/commit calls with
/// the same arguments as the per-element loop, and the loop body then runs
/// on raw pointers (DESIGN.md Section 7).
///
/// Spans must not outlive the kernel/phase they are used in: create them
/// inside the launch body (they flush on destruction). A span registers
/// its line cursor with the System's machine for its whole lifetime, so it
/// must never outlive that System.

namespace ghum::runtime {

template <typename T>
class Span;

template <typename T, bool Write>
class AffineStream;

/// Accounts iterations [0, n) of a loop whose body accesses element
/// base + c of every stream in iteration c, in argument order — exactly
/// as the per-element load()/store() calls of that loop would, page visit
/// for page visit. Returns the raw pointer to element base of each stream
/// (const for reads()), for the loop body to run on. Throws
/// std::out_of_range, before accounting anything, if some stream's range
/// [base, base + n) does not lie inside its span.
///
/// List the streams in the order the per-element loop accesses them: when
/// two of them cross a page in the same iteration, that order is the order
/// of their commits and faults.
template <typename... S>
std::tuple<typename S::Pointer...> account(std::size_t n, S... s);

/// One operand of account(): the loop reads (or writes) element base + c
/// of a Span in iteration c. Made by Span::reads()/Span::writes(); it
/// accounts nothing and gives no access to the data by itself.
template <typename T, bool Write>
class AffineStream {
 public:
  using Pointer = std::conditional_t<Write, T*, const T*>;

 private:
  static constexpr bool kWrite = Write;

  AffineStream(Span<T>& span, std::size_t base) noexcept : span_(&span), base_(base) {}

  Span<T>* span_;
  std::size_t base_;

  friend class Span<T>;
  template <typename... S>
  friend std::tuple<typename S::Pointer...> account(std::size_t n, S... s);
};

template <typename T>
class Span {
 public:
  Span(core::System& sys, const core::Buffer& buf, mem::Node origin,
       std::uint64_t elem_offset = 0, std::uint64_t count = ~0ull)
      : sys_(&sys), origin_(origin) {
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

  /// Stream operands for account(): element base + c is read (written) in
  /// iteration c.
  [[nodiscard]] AffineStream<T, false> reads(std::size_t base) noexcept { return {*this, base}; }
  [[nodiscard]] AffineStream<T, true> writes(std::size_t base) noexcept { return {*this, base}; }

  /// Accounted contiguous read of \p count elements starting at \p i:
  /// account() of one stream. Returns the raw elements for the caller to
  /// read.
  [[nodiscard]] const T* load_run(std::size_t i, std::size_t count) {
    return std::get<0>(account(count, reads(i)));
  }

  /// Accounted contiguous write of \p count elements starting at \p i
  /// (bulk analogue of store(); see load_run()). Returns the destination
  /// elements for the caller to fill.
  [[nodiscard]] T* store_run(std::size_t i, std::size_t count) {
    return std::get<0>(account(count, writes(i)));
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

  /// Unaccounted pointer to element 0. Reads through it charge nothing:
  /// use it for elements whose access load() has already accounted (qvsim's
  /// per-group gate path reads a group through it after four loads), and
  /// for reference checks in tests.
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
    if (!sys_->advance_view(view_, addr)) view_ = sys_->resolve(addr, origin_);
    line_shift_ = static_cast<unsigned>(std::countr_zero(
        static_cast<std::uint64_t>(view_.line_size)));
    const std::uint64_t lines =
        ((view_.page_end - view_.page_base) + view_.line_size - 1) / view_.line_size;
    bitmap_.assign((lines + 63) / 64, 0);
  }

  /// account()'s range check, once per stream per call: the loop body
  /// reads or writes [base, base + count) through a raw pointer.
  void check_stream(std::size_t base, std::size_t count) const {
    if (base > n_ || count > n_ - base) {
      throw std::out_of_range{"Span: stream range past the end of the span"};
    }
  }

  /// How many elements from \p i on touch() would account without calling
  /// into System: those whose start address lies in the current page view,
  /// at the current epoch (enter_line()'s test). Elements are attributed to
  /// the page holding their start, so one straddling the page end still
  /// counts. Zero for elements wider than a line, whose starts can skip
  /// lines; those keep the per-element path.
  [[nodiscard]] std::size_t room(std::size_t i) const noexcept {
    const std::uint64_t addr = va_ + i * sizeof(T);
    if (sizeof(T) > view_.line_size || addr < view_.page_base ||
        addr >= view_.page_end || sys_->epoch() != view_.epoch) {
      return 0;
    }
    return static_cast<std::size_t>((view_.page_end - addr + sizeof(T) - 1) / sizeof(T));
  }

  /// Accounts elements [i, i + count), with count <= room(i), as touch()
  /// would: the element stride is at most a line, so their starts hit every
  /// line in [first, last], and marking that range word-wise adds exactly
  /// the lines a touch() loop would. Line marking is a set union, so the
  /// streams of one account() call may mark in any order.
  void mark(std::size_t i, std::size_t count, bool write) noexcept {
    const std::uint64_t addr = va_ + i * sizeof(T);
    const std::uint64_t first = (addr - view_.page_base) >> line_shift_;
    const std::uint64_t last =
        (addr + (count - 1) * sizeof(T) - view_.page_base) >> line_shift_;
    for (std::uint64_t w = first >> 6; w <= (last >> 6); ++w) {
      const std::uint64_t lo = w << 6;
      std::uint64_t mask = ~0ull;
      if (first > lo) mask &= ~0ull << (first - lo);
      if (last < lo + 63) mask &= ~0ull >> (63 - (last - lo));
      std::uint64_t& word = bitmap_[w];
      pend_lines_ += static_cast<std::uint64_t>(std::popcount(mask & ~word));
      word |= mask;
    }
    (write ? pend_nw_ : pend_nr_) += count;
  }

  template <typename... S>
  friend std::tuple<typename S::Pointer...> account(std::size_t n, S... s);

  core::System* sys_;
  mem::Node origin_;
  std::uint64_t va_ = 0;
  T* ptr_ = nullptr;
  std::size_t n_ = 0;

  core::LineCursor cursor_{};  // starts empty: the first access resolves
  core::PageView view_{};      // starts invalid (page_base=1 > page_end=0)
  unsigned line_shift_ = 6;
  std::vector<std::uint64_t> bitmap_;
  std::uint64_t pend_nr_ = 0;  ///< elements read in this page visit
  std::uint64_t pend_nw_ = 0;  ///< elements written in this page visit
  std::uint64_t pend_lines_ = 0;
};

template <typename... S>
std::tuple<typename S::Pointer...> account(std::size_t n, S... s) {
  (s.span_->check_stream(s.base_, n), ...);
  for (std::size_t c = 0; c < n;) {
    std::size_t room = n - c;
    ((room = std::min(room, s.span_->room(s.base_ + c))), ...);
    if (room == 0) {
      // Some stream would call into System: this iteration's accesses run
      // one by one, in program order.
      (s.span_->touch(s.base_ + c, S::kWrite), ...);
      ++c;
    } else {
      (s.span_->mark(s.base_ + c, room, S::kWrite), ...);
      c += room;
    }
  }
  return {static_cast<typename S::Pointer>(s.span_->ptr_ + s.base_)...};
}

}  // namespace ghum::runtime
