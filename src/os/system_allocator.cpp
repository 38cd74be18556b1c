#include "os/system_allocator.hpp"

#include <algorithm>
#include <stdexcept>

#include "fault/status.hpp"

namespace ghum::os {

Vma& SystemAllocator::allocate(std::uint64_t bytes, std::string label) {
  const auto& costs = m_->config().costs;
  const std::uint64_t page = m_->system_pt().page_size();
  const std::uint64_t pages = (bytes + page - 1) / page;
  Vma& vma = m_->address_space().create(bytes, AllocKind::kSystem,
                                        std::max<std::uint64_t>(page, 64 << 10),
                                        std::move(label), m_->current_tenant());
  m_->clock().advance(costs.malloc_base +
                      costs.alloc_per_page * static_cast<sim::Picos>(pages));
  m_->events().record(sim::EventType::kAllocation, vma.base, bytes,
                      static_cast<std::uint32_t>(vma.kind));
  return vma;
}

Vma& SystemAllocator::allocate_pinned(std::uint64_t bytes, std::string label) {
  const auto& costs = m_->config().costs;
  const std::uint64_t page = m_->system_pt().page_size();
  Vma& vma = m_->address_space().create(bytes, AllocKind::kPinnedHost,
                                        std::max<std::uint64_t>(page, 64 << 10),
                                        std::move(label), m_->current_tenant());
  m_->clock().advance(costs.malloc_base);
  // Pinned memory is populated and locked at allocation time. mlock is
  // all-or-nothing: on exhaustion the partially populated VMA is unwound
  // and the allocation fails cleanly (no leaked frames or VA range).
  const std::uint64_t pages = (bytes + page - 1) / page;
  const auto r = m_->map_system_range(vma, vma.base, pages, mem::Node::kCpu);
  if (!r.complete) {
    (void)m_->unmap_system_range(vma, vma.base, pages);
    m_->address_space().destroy(vma.base);
    throw StatusError{Status::kErrorMemoryAllocation,
                      "allocate_pinned: CPU memory exhausted"};
  }
  const sim::Picos zero = sim::transfer_time(page, costs.fault_zero_bandwidth_Bps);
  m_->clock().advance((costs.host_register_per_page + zero) *
                      static_cast<sim::Picos>(r.mapped));
  return vma;
}

void SystemAllocator::deallocate(Vma& vma) {
  const auto& costs = m_->config().costs;
  const std::uint64_t page = m_->system_pt().page_size();
  const std::uint64_t pages = (vma.size + page - 1) / page;
  const std::uint64_t torn_down =
      m_->unmap_system_range(vma, vma.base, pages).total();
  m_->clock().advance(costs.unmap_base +
                      costs.unmap_per_page * static_cast<sim::Picos>(torn_down));
  if (vma.resident_gpu_bytes != 0 || vma.resident_cpu_bytes != 0) {
    throw std::logic_error{"SystemAllocator::deallocate: residual residency"};
  }
  m_->events().record(sim::EventType::kDeallocation, vma.base, vma.size);
  m_->metrics().deallocated_pages->inc(torn_down);
  m_->address_space().destroy(vma.base);
}

}  // namespace ghum::os
