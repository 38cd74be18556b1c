#pragma once

#include "core/machine.hpp"

/// \file migration_engine.hpp
/// Costed page-copy mechanics shared by every migration path: the
/// access-counter migrations of system memory (Section 2.2.1), the
/// on-demand migrations and evictions of managed memory (Section 2.3.1),
/// and explicit prefetches (Section 2.3.2). Data movement itself is
/// bookkeeping (application bytes live in one host buffer); what this
/// engine produces is simulated time and C2C traffic.

namespace ghum::driver {

class MigrationEngine {
 public:
  explicit MigrationEngine(core::Machine& m) : m_(&m) {}

  /// Time to copy \p bytes across the link in \p dir at migration
  /// efficiency (also records the traffic on the link).
  [[nodiscard]] sim::Picos copy_time(interconnect::Direction dir, std::uint64_t bytes);

  /// Same, at full link bandwidth (explicit memcpy / prefetch quality).
  [[nodiscard]] sim::Picos bulk_copy_time(interconnect::Direction dir,
                                          std::uint64_t bytes);

  /// Moves CPU-resident *system* pages inside [base, base+len) to the GPU,
  /// up to \p max_bytes, stopping early when GPU frames run out. Charges
  /// copy time plus per-page driver overhead. Returns bytes moved.
  std::uint64_t migrate_system_range_to_gpu(os::Vma& vma, std::uint64_t base,
                                            std::uint64_t len, std::uint64_t max_bytes);

  /// Symmetric GPU->CPU path (used by tests and the NUMA-balance ablation;
  /// the paper observes no GPU->CPU counter migrations in practice).
  std::uint64_t migrate_system_range_to_cpu(os::Vma& vma, std::uint64_t base,
                                            std::uint64_t len, std::uint64_t max_bytes);

  /// Fault-injection gate for one migration batch. Without an injector this
  /// is free and always succeeds. With one, each attempt may be failed by
  /// the injector (copy-engine/channel error); failed attempts charge an
  /// exponentially growing simulated backoff and retry, up to
  /// faults.migration_max_retries. Returns false when the batch is aborted
  /// (caller degrades: page stays put, access served remotely).
  [[nodiscard]] bool batch_with_retry(std::uint64_t va = 0);

 private:
  std::uint64_t migrate_system_range(os::Vma& vma, std::uint64_t base,
                                     std::uint64_t len, std::uint64_t max_bytes,
                                     mem::Node to);

  core::Machine* m_;
};

}  // namespace ghum::driver
