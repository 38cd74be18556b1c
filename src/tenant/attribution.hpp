#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "tenant/tenant_id.hpp"

/// \file attribution.hpp
/// Per-tenant resource accounting, maintained by the Machine's residency
/// transition helpers and the driver/OS policy layers. Single-app runs pay
/// nothing but a few counter increments on tenant 0; multi-tenant runs get
/// the paper-style shared-resource story the single-app code can never
/// exhibit: whose pages occupy each tier, who faulted, who migrated what,
/// and — the headline — who evicted whom under HBM pressure.

namespace ghum::chk {
class Snapshotter;
}  // namespace ghum::chk

namespace ghum::tenant {

/// Running usage of one tenant. Resident counters are signed deltas (they
/// go down when pages unmap); traffic counters only grow.
struct TenantUsage {
  std::int64_t resident_cpu_bytes = 0;
  std::int64_t resident_gpu_bytes = 0;
  std::uint64_t peak_gpu_bytes = 0;
  std::uint64_t c2c_h2d_bytes = 0;
  std::uint64_t c2c_d2h_bytes = 0;
  std::uint64_t cpu_faults = 0;        ///< CPU-origin first-touch/minor faults
  std::uint64_t gpu_faults = 0;        ///< GPU-origin replayable + managed faults
  std::uint64_t migrated_h2d_bytes = 0;
  std::uint64_t migrated_d2h_bytes = 0;
  std::uint64_t evictions_suffered = 0;       ///< this tenant's blocks evicted
  std::uint64_t evicted_bytes_suffered = 0;
  std::uint64_t evictions_caused = 0;         ///< evictions this tenant's demand forced
};

/// Who-evicted-whom: one cell of the cross-tenant eviction matrix.
struct EvictionCell {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

class AttributionTable {
 public:
  void note_resident_delta(TenantId t, std::int64_t cpu_delta,
                           std::int64_t gpu_delta);
  void note_c2c(TenantId t, bool h2d, std::uint64_t bytes);
  void note_fault(TenantId t, bool gpu_origin);
  void note_migration(TenantId t, bool h2d, std::uint64_t bytes);
  /// One evicted block: \p perpetrator is the tenant whose demand needed the
  /// room, \p victim the tenant owning the evicted block (they coincide when
  /// a tenant thrashes against itself).
  void note_eviction(TenantId perpetrator, TenantId victim, std::uint64_t bytes);

  /// Usage of \p t (a zero record when the tenant never touched anything).
  [[nodiscard]] const TenantUsage& usage(TenantId t) const;

  /// Eviction-matrix cell perpetrator -> victim.
  [[nodiscard]] EvictionCell evictions(TenantId perpetrator, TenantId victim) const;

  /// Evictions where the perpetrator and victim differ — the cross-tenant
  /// interference signal (the matrix's off-diagonal sum).
  [[nodiscard]] EvictionCell cross_tenant() const noexcept;

  /// Largest tenant id seen (0 when attribution never fired).
  [[nodiscard]] TenantId max_tenant() const noexcept {
    return usage_.empty() ? 0 : static_cast<TenantId>(usage_.size() - 1);
  }

  /// Human-readable per-tenant usage plus the who-evicted-whom matrix.
  [[nodiscard]] std::string to_table() const;

 private:
  TenantUsage& grow(TenantId t);

  std::vector<TenantUsage> usage_;  // index = tenant id
  std::map<std::pair<TenantId, TenantId>, EvictionCell> matrix_;  // (perp, victim)

  friend class ghum::chk::Snapshotter;
};

}  // namespace ghum::tenant
