#pragma once

#include "core/machine.hpp"

/// \file page_fault.hpp
/// OS page-fault policy for the system page table (paper Section 2.2).
/// First-touch placement: the faulting page is mapped on the node the
/// access originated from. A CPU first-touch is an ordinary minor fault;
/// a GPU first-touch arrives as a *replayable* SMMU fault that a CPU core
/// handles before the GPU access is replayed — substantially more
/// expensive, which is the root cause of the slow GPU-side initialization
/// with system memory (paper Sections 5.1.2 and 5.2).

namespace ghum::os {

class PageFaultHandler {
 public:
  explicit PageFaultHandler(core::Machine& m) : m_(&m) {}

  /// Handles a first-touch fault at \p va from \p origin: places the page
  /// per first-touch policy (falling back to the other node when the
  /// preferred node is out of frames), charges the fault-handling and
  /// page-clearing time, and logs the event. Returns the placed node.
  mem::Node first_touch(Vma& vma, std::uint64_t va, mem::Node origin);

  /// cudaHostRegister-style PTE pre-population of a whole VMA on the CPU
  /// (the Section 5.1.2 optimization for GPU-initialized applications).
  /// Pages already present are skipped. Charges registration costs.
  /// Returns false when CPU frames ran out part-way: already-populated
  /// pages stay mapped, the rest keep faulting on demand, and the VMA is
  /// not marked host_registered.
  bool host_register(Vma& vma);

  /// Number of first-touch faults handled, by origin (a read of the
  /// ghum_faults_total counter).
  [[nodiscard]] std::uint64_t faults(mem::Node origin) const noexcept {
    const obs::MemSysMetrics& met = m_->metrics();
    return (origin == mem::Node::kCpu ? met.faults_cpu_first_touch
                                      : met.faults_gpu_first_touch)
        ->value();
  }

 private:
  core::Machine* m_;
};

}  // namespace ghum::os
