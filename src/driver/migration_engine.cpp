#include "driver/migration_engine.hpp"

#include <algorithm>

#include "fault/fault_injector.hpp"

namespace ghum::driver {

bool MigrationEngine::batch_with_retry(std::uint64_t va) {
  fault::FaultInjector* fi = m_->fault_injector();
  if (fi == nullptr) return true;
  const auto& fcfg = m_->config().faults;
  sim::Picos backoff = fcfg.migration_retry_backoff;
  for (std::uint32_t attempt = 0; attempt <= fcfg.migration_max_retries; ++attempt) {
    if (!fi->fail_migration_batch()) {
      // Depth 0 (clean first try) is not observed: the histogram answers
      // "when the batch path degraded, how deep did backoff go".
      if (attempt > 0) m_->metrics().migration_retry_depth->observe(attempt);
      return true;
    }
    if (attempt == fcfg.migration_max_retries) break;
    m_->clock().advance(backoff);
    backoff *= 2;
    m_->metrics().migration_retries->inc();
    m_->events().record(sim::EventType::kFaultMigrationRetry, va, 0, attempt + 1);
  }
  m_->metrics().migration_aborts->inc();
  m_->metrics().migration_retry_depth->observe(
      static_cast<std::uint64_t>(fcfg.migration_max_retries) + 1);
  m_->events().record(sim::EventType::kFaultMigrationAbort, va, 0,
                      fcfg.migration_max_retries);
  return false;
}

sim::Picos MigrationEngine::copy_time(interconnect::Direction dir,
                                      std::uint64_t bytes) {
  const sim::Picos raw = m_->c2c().transfer(dir, bytes);
  const double eff = m_->config().costs.migration_efficiency;
  return static_cast<sim::Picos>(static_cast<double>(raw) / eff);
}

sim::Picos MigrationEngine::bulk_copy_time(interconnect::Direction dir,
                                           std::uint64_t bytes) {
  return m_->c2c().transfer(dir, bytes);
}

std::uint64_t MigrationEngine::migrate_system_range_to_gpu(os::Vma& vma,
                                                           std::uint64_t base,
                                                           std::uint64_t len,
                                                           std::uint64_t max_bytes) {
  return migrate_system_range(vma, base, len, max_bytes, mem::Node::kGpu);
}

std::uint64_t MigrationEngine::migrate_system_range_to_cpu(os::Vma& vma,
                                                           std::uint64_t base,
                                                           std::uint64_t len,
                                                           std::uint64_t max_bytes) {
  return migrate_system_range(vma, base, len, max_bytes, mem::Node::kCpu);
}

std::uint64_t MigrationEngine::migrate_system_range(os::Vma& vma, std::uint64_t base,
                                                    std::uint64_t len,
                                                    std::uint64_t max_bytes,
                                                    mem::Node to) {
  if (!batch_with_retry(base)) return 0;
  const auto& costs = m_->config().costs;
  const std::uint64_t page = m_->system_pt().page_size();
  const std::uint64_t start = m_->system_pt().page_base(std::max(base, vma.base));
  const std::uint64_t stop = std::min(base + len, vma.end());

  if (start >= stop) return 0;
  const std::uint64_t span_pages = (stop - start + page - 1) / page;
  // The byte budget was checked before each page, so it admits whole pages
  // up to its ceiling.
  const std::uint64_t budget =
      max_bytes / page + (max_bytes % page != 0 ? 1 : 0);
  const auto r = m_->move_system_range(vma, start, span_pages, to, budget);
  const std::uint64_t pages = r.moved;
  const std::uint64_t moved = pages * page;
  if (moved == 0) return 0;

  const auto dir = to == mem::Node::kGpu ? interconnect::Direction::kCpuToGpu
                                         : interconnect::Direction::kGpuToCpu;
  const sim::Picos dt =
      copy_time(dir, moved) + costs.migrate_per_page * static_cast<sim::Picos>(pages);
  m_->clock().advance(dt);
  m_->attribution().note_migration(vma.tenant, to == mem::Node::kGpu, moved);
  auto& met = m_->metrics();
  if (to == mem::Node::kGpu) {
    met.system_migrated_bytes_h2d->inc(moved);
    met.migrations_h2d->inc();
    met.migrated_bytes_h2d->inc(moved);
    met.migration_batch_bytes_h2d->observe(moved);
    met.migration_latency_h2d->observe(static_cast<std::uint64_t>(dt));
  } else {
    met.system_migrated_bytes_d2h->inc(moved);
    met.migrations_d2h->inc();
    met.migrated_bytes_d2h->inc(moved);
    met.migration_batch_bytes_d2h->observe(moved);
    met.migration_latency_d2h->observe(static_cast<std::uint64_t>(dt));
  }

  m_->events().record(to == mem::Node::kGpu ? sim::EventType::kMigrationH2D
                                             : sim::EventType::kMigrationD2H,
                      start, moved);
  return moved;
}

}  // namespace ghum::driver
