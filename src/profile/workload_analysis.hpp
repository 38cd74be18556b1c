#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "cache/kernel_traffic.hpp"

/// \file workload_analysis.hpp
/// Collection of per-kernel traffic records — the simulator's analogue of
/// Nsight Compute's Memory Workload Analysis (paper Section 3.2). Benches
/// for Figures 10 and 12 read their per-iteration GPU-memory and
/// NVLink-C2C volumes from here.

namespace ghum::profile {

class WorkloadAnalysis {
 public:
  void add(cache::KernelRecord record) { records_.push_back(std::move(record)); }

  [[nodiscard]] const std::vector<cache::KernelRecord>& records() const noexcept {
    return records_;
  }

  /// All records whose kernel name contains \p needle, in launch order.
  [[nodiscard]] std::vector<const cache::KernelRecord*> matching(
      std::string_view needle) const;

  /// Aggregate traffic across all records matching \p needle.
  [[nodiscard]] cache::KernelTraffic total(std::string_view needle) const;

  void clear() { records_.clear(); }

  /// Pretty table (name, duration, HBM/C2C/L1L2 volumes) for reports.
  [[nodiscard]] std::string to_table() const;

 private:
  std::vector<cache::KernelRecord> records_;
};

}  // namespace ghum::profile
