#include "os/address_space.hpp"

#include <bit>
#include <stdexcept>

namespace ghum::os {

std::string_view to_string(AllocKind k) noexcept {
  switch (k) {
    case AllocKind::kSystem: return "system";
    case AllocKind::kManaged: return "managed";
    case AllocKind::kGpuOnly: return "gpu_only";
    case AllocKind::kPinnedHost: return "pinned_host";
  }
  return "unknown";
}

Vma& AddressSpace::create(std::uint64_t size, AllocKind kind,
                          std::uint64_t alignment, std::string label,
                          tenant::TenantId tenant) {
  if (size == 0) throw std::invalid_argument{"AddressSpace::create: zero size"};
  if (alignment == 0 || !std::has_single_bit(alignment)) {
    throw std::invalid_argument{"AddressSpace::create: bad alignment"};
  }
  const std::uint64_t base = (next_va_ + alignment - 1) & ~(alignment - 1);
  next_va_ = base + size + kGuard;

  Vma vma;
  vma.base = base;
  vma.size = size;
  vma.kind = kind;
  vma.label = std::move(label);
  vma.tenant = tenant;
  if (materialize_) vma.data = std::make_unique<std::byte[]>(size);

  auto [it, inserted] = vmas_.emplace(base, std::move(vma));
  if (!inserted) throw std::logic_error{"AddressSpace::create: VA collision"};
  return it->second;
}

void AddressSpace::destroy(std::uint64_t base) {
  auto it = vmas_.find(base);
  if (it == vmas_.end()) throw std::invalid_argument{"AddressSpace::destroy: no such VMA"};
  vmas_.erase(it);
}

Vma* AddressSpace::find(std::uint64_t va) {
  auto it = vmas_.upper_bound(va);
  if (it == vmas_.begin()) return nullptr;
  --it;
  return it->second.contains(va) ? &it->second : nullptr;
}

const Vma* AddressSpace::find(std::uint64_t va) const {
  auto it = vmas_.upper_bound(va);
  if (it == vmas_.begin()) return nullptr;
  --it;
  return it->second.contains(va) ? &it->second : nullptr;
}

Vma* AddressSpace::find_exact(std::uint64_t base) {
  auto it = vmas_.find(base);
  return it == vmas_.end() ? nullptr : &it->second;
}

void AddressSpace::note_resident_delta(Vma& vma, std::int64_t cpu_delta,
                                       std::int64_t gpu_delta) {
  vma.resident_cpu_bytes = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(vma.resident_cpu_bytes) + cpu_delta);
  vma.resident_gpu_bytes = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(vma.resident_gpu_bytes) + gpu_delta);
}

}  // namespace ghum::os
