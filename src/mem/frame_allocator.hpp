#pragma once

#include <cstdint>

#include "mem/node.hpp"

/// \file frame_allocator.hpp
/// Physical-frame accounting for one NUMA node. The simulator does not model
/// physical addresses (data lives in one host backing buffer per virtual
/// allocation); what matters for the paper's experiments is *how many bytes
/// are resident on which tier*, which drives residency decisions
/// (first-touch placement, oversubscription fallbacks, eviction pressure)
/// and the memory-profiler time series (paper Figures 4 and 5).

namespace ghum::chk {
class Snapshotter;
}  // namespace ghum::chk

namespace ghum::mem {

class FrameAllocator {
 public:
  FrameAllocator(Node node, std::uint64_t capacity_bytes)
      : node_(node), configured_(capacity_bytes) {}

  [[nodiscard]] Node node() const noexcept { return node_; }
  /// The configured capacity less the retired frames.
  [[nodiscard]] std::uint64_t capacity() const noexcept { return configured_ - retired_; }
  [[nodiscard]] std::uint64_t used() const noexcept { return used_; }
  [[nodiscard]] std::uint64_t free_bytes() const noexcept { return capacity() - used_; }

  /// A permanently resident baseline (the ~600 MB GPU-driver footprint the
  /// paper's profiler observes via nvidia-smi, scaled). Counts toward used().
  void reserve_baseline(std::uint64_t bytes);
  [[nodiscard]] std::uint64_t baseline() const noexcept { return baseline_; }

  /// Tries to claim \p bytes of frames; returns false when the node is full.
  [[nodiscard]] bool allocate(std::uint64_t bytes);
  void release(std::uint64_t bytes);

  /// Permanently retires free frames (uncorrectable ECC): capacity shrinks
  /// by the returned amount, bounded by what is currently free. Callers
  /// that must retire in-use frames first vacate them (remap/evict the
  /// resident pages) and then retire. peak_used() is re-clamped to the
  /// shrunken capacity so utilization ratios stay <= 1 after retirement.
  std::uint64_t retire(std::uint64_t bytes);
  [[nodiscard]] std::uint64_t retired_bytes() const noexcept { return retired_; }

  /// Lifetime counters for reporting.
  [[nodiscard]] std::uint64_t total_allocated() const noexcept { return total_allocated_; }
  [[nodiscard]] std::uint64_t peak_used() const noexcept { return peak_used_; }

 private:
  Node node_;
  std::uint64_t configured_;
  std::uint64_t used_ = 0;
  std::uint64_t baseline_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t total_allocated_ = 0;
  std::uint64_t peak_used_ = 0;

  /// used_ <= capacity() must hold after every mutation; free_bytes() and
  /// peak_used() are derived from it and silently corrupt reports if it
  /// ever breaks (e.g. a retire() racing a stale free_bytes() reading).
  void check_invariant() const;

  friend class ghum::chk::Snapshotter;
};

}  // namespace ghum::mem
