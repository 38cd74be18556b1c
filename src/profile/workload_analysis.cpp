#include "profile/workload_analysis.hpp"

#include <iomanip>
#include <sstream>

namespace ghum::profile {

std::vector<const cache::KernelRecord*> WorkloadAnalysis::matching(
    std::string_view needle) const {
  std::vector<const cache::KernelRecord*> out;
  for (const auto& r : records_) {
    if (r.name.find(needle) != std::string::npos) out.push_back(&r);
  }
  return out;
}

cache::KernelTraffic WorkloadAnalysis::total(std::string_view needle) const {
  cache::KernelTraffic t;
  for (const auto* r : matching(needle)) t += r->traffic;
  return t;
}

std::string WorkloadAnalysis::to_table() const {
  std::ostringstream out;
  out << std::left << std::setw(28) << "kernel" << std::right << std::setw(12)
      << "time_us" << std::setw(12) << "hbm_mib" << std::setw(12) << "c2c_mib"
      << std::setw(12) << "l1l2_mib" << std::setw(10) << "faults" << '\n';
  for (const auto& r : records_) {
    out << std::left << std::setw(28) << r.name << std::right << std::setw(12)
        << std::fixed << std::setprecision(1) << sim::to_microseconds(r.duration)
        << std::setw(12) << std::setprecision(2)
        << static_cast<double>(r.traffic.gpu_local_bytes()) / (1 << 20)
        << std::setw(12)
        << static_cast<double>(r.traffic.gpu_remote_bytes()) / (1 << 20)
        << std::setw(12) << static_cast<double>(r.traffic.l1l2_bytes) / (1 << 20)
        << std::setw(10)
        << r.traffic.gpu_first_touch_faults + r.traffic.managed_faults << '\n';
  }
  return out.str();
}

}  // namespace ghum::profile
