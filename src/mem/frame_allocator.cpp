#include "mem/frame_allocator.hpp"

#include <algorithm>
#include <stdexcept>

namespace ghum::mem {

void FrameAllocator::check_invariant() const {
  if (used_ > capacity()) {
    throw std::logic_error{"FrameAllocator: used exceeds capacity"};
  }
}

void FrameAllocator::reserve_baseline(std::uint64_t bytes) {
  if (!allocate(bytes)) {
    throw std::runtime_error{"FrameAllocator: baseline exceeds capacity"};
  }
  baseline_ += bytes;
}

bool FrameAllocator::allocate(std::uint64_t bytes) {
  // Compare against the remaining headroom: `used_ + bytes > capacity()`
  // wraps for huge requests and would admit them.
  if (bytes > free_bytes()) return false;
  used_ += bytes;
  total_allocated_ += bytes;
  if (used_ > peak_used_) peak_used_ = used_;
  check_invariant();
  return true;
}

std::uint64_t FrameAllocator::retire(std::uint64_t bytes) {
  const std::uint64_t take = std::min(bytes, free_bytes());
  retired_ += take;
  if (peak_used_ > capacity()) peak_used_ = capacity();
  check_invariant();
  return take;
}

void FrameAllocator::release(std::uint64_t bytes) {
  if (bytes > used_) throw std::logic_error{"FrameAllocator: release underflow"};
  used_ -= bytes;
  check_invariant();
}

}  // namespace ghum::mem
