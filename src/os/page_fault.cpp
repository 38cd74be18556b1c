#include "os/page_fault.hpp"

#include <stdexcept>

#include "fault/fault_injector.hpp"
#include "fault/status.hpp"

namespace ghum::os {

mem::Node PageFaultHandler::first_touch(Vma& vma, std::uint64_t va,
                                        mem::Node origin) {
  // The fault is a causal root: fallback placements (and, for managed
  // callers, migrations) it triggers inherit its span.
  sim::SpanScope span{m_->events()};
  const sim::Picos fault_start = m_->clock().now();
  const auto& costs = m_->config().costs;
  // cudaMemAdvise(kSetPreferredLocation) overrides first-touch placement
  // for system allocations; managed ranges handle advice in the driver
  // (their GPU-side residency lives in the GPU page table, not here).
  mem::Node placed = vma.kind == AllocKind::kSystem
                         ? vma.preferred_location.value_or(origin)
                         : origin;
  if (!m_->map_system_page(vma, va, placed)) {
    // Preferred node exhausted (or the allocation was transiently denied by
    // fault injection): the OS falls back to the other node rather than
    // failing the fault. For GPU first-touch under oversubscription this
    // leaves the page CPU-resident, accessed remotely over C2C — system
    // memory never evicts (paper Section 7). The fallback attempt is the
    // resilience response, so injection is suppressed for it.
    placed = mem::other(placed);
    fault::FaultInjector::ScopedSuppress guard{m_->fault_injector()};
    if (!m_->map_system_page(vma, va, placed)) {
      m_->metrics().oom_events->inc();
      m_->metrics().oom_page_fault->inc();
      m_->events().record(sim::EventType::kOutOfMemory,
                          m_->system_pt().page_base(va), m_->system_page_bytes());
      throw StatusError{Status::kErrorOutOfMemory,
                        "PageFaultHandler: out of physical memory on both nodes"};
    }
    m_->metrics().fallback_placements->inc();
    m_->events().record(sim::EventType::kFallbackPlacement,
                        m_->system_pt().page_base(va), m_->system_page_bytes(),
                        static_cast<std::uint32_t>(placed));
  }

  m_->attribution().note_fault(vma.tenant, origin == mem::Node::kGpu);
  const sim::Picos handle = origin == mem::Node::kCpu ? costs.cpu_minor_fault
                                                      : costs.gpu_replayable_fault;
  const sim::Picos zero =
      sim::transfer_time(m_->system_page_bytes(), costs.fault_zero_bandwidth_Bps);
  m_->clock().advance(handle + zero);

  m_->events().record(origin == mem::Node::kCpu
                          ? sim::EventType::kCpuFirstTouchFault
                          : sim::EventType::kGpuFirstTouchFault,
                      m_->system_pt().page_base(va), m_->system_page_bytes());
  auto& met = m_->metrics();
  if (origin == mem::Node::kCpu) {
    met.faults_cpu_first_touch->inc();
    met.fault_latency_cpu_first_touch->observe(
        static_cast<std::uint64_t>(m_->clock().now() - fault_start));
  } else {
    met.faults_gpu_first_touch->inc();
    met.fault_latency_gpu_first_touch->observe(
        static_cast<std::uint64_t>(m_->clock().now() - fault_start));
  }
  return placed;
}

bool PageFaultHandler::host_register(Vma& vma) {
  const auto& costs = m_->config().costs;
  const std::uint64_t page = m_->system_pt().page_size();
  m_->clock().advance(costs.host_register_base);

  const std::uint64_t pages = (vma.size + page - 1) / page;
  const auto r = m_->map_system_range(vma, vma.base, pages, mem::Node::kCpu);
  const std::uint64_t populated = r.mapped;
  const bool complete = r.complete;
  if (!complete) {
    // CPU frames exhausted (or an injected transient denial): population
    // stopped. Pages mapped so far stay mapped — the remainder of the
    // range keeps faulting on demand, which is slower but correct.
    // Registration is only recorded on full success.
    m_->metrics().host_register_partials->inc();
  }
  const sim::Picos zero = sim::transfer_time(page, costs.fault_zero_bandwidth_Bps);
  m_->clock().advance((costs.host_register_per_page + zero) *
                      static_cast<sim::Picos>(populated));
  if (complete) vma.host_registered = true;

  m_->events().record(sim::EventType::kHostRegister, vma.base, populated * page,
                      complete ? 0u : 1u);
  m_->metrics().host_registers->inc();
  m_->metrics().host_registered_pages->inc(populated);
  return complete;
}

}  // namespace ghum::os
