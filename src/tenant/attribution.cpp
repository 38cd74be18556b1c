#include "tenant/attribution.hpp"

#include <algorithm>
#include <sstream>

namespace ghum::tenant {

TenantUsage& AttributionTable::grow(TenantId t) {
  if (usage_.size() <= t) usage_.resize(static_cast<std::size_t>(t) + 1);
  return usage_[t];
}

void AttributionTable::note_resident_delta(TenantId t, std::int64_t cpu_delta,
                                           std::int64_t gpu_delta) {
  TenantUsage& u = grow(t);
  u.resident_cpu_bytes += cpu_delta;
  u.resident_gpu_bytes += gpu_delta;
  u.peak_gpu_bytes = std::max<std::uint64_t>(
      u.peak_gpu_bytes,
      u.resident_gpu_bytes > 0 ? static_cast<std::uint64_t>(u.resident_gpu_bytes) : 0);
}

void AttributionTable::note_c2c(TenantId t, bool h2d, std::uint64_t bytes) {
  TenantUsage& u = grow(t);
  (h2d ? u.c2c_h2d_bytes : u.c2c_d2h_bytes) += bytes;
}

void AttributionTable::note_fault(TenantId t, bool gpu_origin) {
  TenantUsage& u = grow(t);
  ++(gpu_origin ? u.gpu_faults : u.cpu_faults);
}

void AttributionTable::note_migration(TenantId t, bool h2d, std::uint64_t bytes) {
  TenantUsage& u = grow(t);
  (h2d ? u.migrated_h2d_bytes : u.migrated_d2h_bytes) += bytes;
}

void AttributionTable::note_eviction(TenantId perpetrator, TenantId victim,
                                     std::uint64_t bytes) {
  TenantUsage& v = grow(victim);
  ++v.evictions_suffered;
  v.evicted_bytes_suffered += bytes;
  ++grow(perpetrator).evictions_caused;
  EvictionCell& cell = matrix_[{perpetrator, victim}];
  ++cell.count;
  cell.bytes += bytes;
}

EvictionCell AttributionTable::cross_tenant() const noexcept {
  EvictionCell sum;
  for (const auto& [key, cell] : matrix_) {
    if (key.first == key.second) continue;
    sum.count += cell.count;
    sum.bytes += cell.bytes;
  }
  return sum;
}

const TenantUsage& AttributionTable::usage(TenantId t) const {
  static const TenantUsage kZero{};
  return t < usage_.size() ? usage_[t] : kZero;
}

EvictionCell AttributionTable::evictions(TenantId perpetrator, TenantId victim) const {
  const auto it = matrix_.find({perpetrator, victim});
  return it != matrix_.end() ? it->second : EvictionCell{};
}

std::string AttributionTable::to_table() const {
  std::ostringstream out;
  out << "tenant  res_cpu_B  res_gpu_B  peak_gpu_B  c2c_h2d_B  c2c_d2h_B  "
         "faults(cpu/gpu)  mig_h2d_B  mig_d2h_B  evict(suffered/caused)\n";
  for (std::size_t t = 0; t < usage_.size(); ++t) {
    const TenantUsage& u = usage_[t];
    out << t << "  " << u.resident_cpu_bytes << "  " << u.resident_gpu_bytes
        << "  " << u.peak_gpu_bytes << "  " << u.c2c_h2d_bytes << "  "
        << u.c2c_d2h_bytes << "  " << u.cpu_faults << "/" << u.gpu_faults << "  "
        << u.migrated_h2d_bytes << "  " << u.migrated_d2h_bytes << "  "
        << u.evictions_suffered << "/" << u.evictions_caused << "\n";
  }
  if (!matrix_.empty()) {
    out << "evictions (perpetrator -> victim): count bytes\n";
    for (const auto& [key, cell] : matrix_) {
      out << "  " << key.first << " -> " << key.second << ": " << cell.count
          << " " << cell.bytes << "\n";
    }
  }
  return out.str();
}

}  // namespace ghum::tenant
