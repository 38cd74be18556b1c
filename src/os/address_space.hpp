#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "mem/node.hpp"
#include "tenant/tenant_id.hpp"

/// \file address_space.hpp
/// The process virtual address space: VMA bookkeeping plus the *real* host
/// backing storage for every allocation. Simulated virtual addresses are
/// plain 64-bit integers handed out by a bump allocator; each VMA owns a
/// host buffer so application kernels compute real, testable results while
/// the memory system charges simulated costs.

namespace ghum::chk {
class Snapshotter;
}  // namespace ghum::chk

namespace ghum::os {

/// Allocation categories of paper Table 1.
enum class AllocKind : std::uint8_t {
  kSystem,      ///< malloc(): system page table, CPU or GPU resident
  kManaged,     ///< cudaMallocManaged(): system PT or GPU PT by location
  kGpuOnly,     ///< cudaMalloc(): GPU page table, GPU memory only
  kPinnedHost,  ///< cudaMallocHost()/numa_alloc_onnode(): CPU memory only
};

[[nodiscard]] std::string_view to_string(AllocKind k) noexcept;

struct Vma {
  std::uint64_t base = 0;
  std::uint64_t size = 0;
  AllocKind kind = AllocKind::kSystem;
  std::string label;

  /// cudaHostRegister()-style pre-population was applied.
  bool host_registered = false;

  /// Tenant that created this allocation (kNoTenant outside co-scheduling).
  /// Eviction attribution reads this to identify the victim's owner.
  tenant::TenantId tenant = tenant::kNoTenant;

  /// cudaMemAdvise state. kSetPreferredLocation overrides first-touch
  /// placement and resists migration (both counter-based and on-demand);
  /// kSetReadMostly enables read duplication for managed ranges.
  std::optional<mem::Node> preferred_location;
  bool read_mostly = false;

  /// Residency accounting, maintained by the Machine's transition helpers.
  std::uint64_t resident_cpu_bytes = 0;
  std::uint64_t resident_gpu_bytes = 0;

  /// A GPU channel reset killed the context while this allocation had
  /// device-resident state: its contents are lost and every subsequent
  /// access throws StatusError{kErrorGpuReset}. Only free_buffer (and the
  /// recovery scrub built on it) accepts a poisoned VMA.
  bool poisoned = false;

  /// Real backing storage, zero-filled: create() value-initializes it and
  /// checkpoint restore allocates it the same way before copying the saved
  /// bytes in. The first-touch zeroing itself is modeled in time only.
  std::unique_ptr<std::byte[]> data;

  [[nodiscard]] std::uint64_t end() const noexcept { return base + size; }
  [[nodiscard]] bool contains(std::uint64_t va) const noexcept {
    return va >= base && va < end();
  }
  [[nodiscard]] std::byte* host_ptr(std::uint64_t va) noexcept {
    return data.get() + (va - base);
  }
};

class AddressSpace {
 public:
  /// Creates a VMA of \p size bytes aligned to \p alignment (power of two),
  /// owned by \p tenant. The VA range includes a trailing guard gap so
  /// adjacent VMAs never share a page at any supported page size.
  Vma& create(std::uint64_t size, AllocKind kind, std::uint64_t alignment,
              std::string label, tenant::TenantId tenant);

  /// Destroys the VMA starting at \p base (throws if absent).
  void destroy(std::uint64_t base);

  /// VMA containing \p va, or nullptr.
  [[nodiscard]] Vma* find(std::uint64_t va);
  [[nodiscard]] const Vma* find(std::uint64_t va) const;

  /// VMA whose base is exactly \p base, or nullptr.
  [[nodiscard]] Vma* find_exact(std::uint64_t base);

  [[nodiscard]] std::size_t vma_count() const noexcept { return vmas_.size(); }

  /// Sum of resident bytes on the CPU across all VMAs — the process RSS
  /// as the paper's profiler reads from /proc/<pid>/smaps_rollup.
  [[nodiscard]] std::uint64_t rss_bytes() const noexcept {
    std::uint64_t rss = 0;
    for (const auto& [base, vma] : vmas_) rss += vma.resident_cpu_bytes;
    return rss;
  }

  /// Residency aggregates are maintained through these (Machine calls them
  /// whenever pages are mapped/unmapped/migrated).
  void note_resident_delta(Vma& vma, std::int64_t cpu_delta, std::int64_t gpu_delta);

  /// Whether create() allocates host backing for new VMAs (set once by
  /// core::Machine from SystemConfig::materialize_backing). When off,
  /// Vma::data stays null and only page-granular accounting is simulated.
  void set_materialize(bool m) noexcept { materialize_ = m; }
  [[nodiscard]] bool materialize() const noexcept { return materialize_; }

  /// Iteration support (ordered by base address).
  [[nodiscard]] auto begin() const { return vmas_.begin(); }
  [[nodiscard]] auto end() const { return vmas_.end(); }
  [[nodiscard]] auto begin() { return vmas_.begin(); }
  [[nodiscard]] auto end() { return vmas_.end(); }

 private:
  static constexpr std::uint64_t kVaStart = 0x10'0000'0000ull;
  static constexpr std::uint64_t kGuard = 2ull << 20;  ///< max page size gap

  std::map<std::uint64_t, Vma> vmas_;  // keyed by base
  std::uint64_t next_va_ = kVaStart;
  bool materialize_ = true;

  friend class ghum::chk::Snapshotter;
};

}  // namespace ghum::os
