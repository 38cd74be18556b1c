#pragma once

#include <cstdint>
#include <string>

#include "sim/time.hpp"

/// \file kernel_traffic.hpp
/// Per-kernel memory traffic accounting — the simulator's equivalent of the
/// Memory Workload Analysis section in Nvidia Nsight Compute, which the
/// paper uses to quantify traffic over NVLink-C2C, system memory, and GPU
/// global memory per kernel launch (Section 3.2; Figures 10 and 12).
///
/// The L1<->L2 volume aggregates every byte the SMs pulled through the GPU
/// cache hierarchy regardless of where it came from; dividing it by kernel
/// duration gives the "data rate being fed to the GPU for computation" the
/// paper reads off Figure 12.

namespace ghum::cache {

struct KernelTraffic {
  // GPU-origin traffic, split by where the data lived.
  std::uint64_t hbm_read_bytes = 0;    ///< from local GPU memory
  std::uint64_t hbm_write_bytes = 0;
  std::uint64_t c2c_read_bytes = 0;    ///< remote reads over NVLink-C2C
  std::uint64_t c2c_write_bytes = 0;   ///< remote writes over NVLink-C2C
  // CPU-origin traffic while this kernel/phase was active (host threads).
  std::uint64_t ddr_read_bytes = 0;
  std::uint64_t ddr_write_bytes = 0;
  std::uint64_t cpu_remote_read_bytes = 0;   ///< CPU reads of GPU memory
  std::uint64_t cpu_remote_write_bytes = 0;  ///< CPU writes to GPU memory

  std::uint64_t l1l2_bytes = 0;   ///< all GPU-origin bytes through L1/L2
  std::uint64_t gpu_accesses = 0; ///< individual load/store operations
  std::uint64_t migration_h2d_bytes = 0;  ///< driver migrations during kernel
  std::uint64_t migration_d2h_bytes = 0;

  std::uint64_t gpu_first_touch_faults = 0;
  std::uint64_t managed_faults = 0;

  [[nodiscard]] std::uint64_t gpu_local_bytes() const noexcept {
    return hbm_read_bytes + hbm_write_bytes;
  }
  [[nodiscard]] std::uint64_t gpu_remote_bytes() const noexcept {
    return c2c_read_bytes + c2c_write_bytes;
  }

  KernelTraffic& operator+=(const KernelTraffic& o);
  bool operator==(const KernelTraffic&) const = default;
};

/// One record per kernel launch (or named host phase).
struct KernelRecord {
  std::string name;
  std::uint64_t kernel_id = 0;
  std::uint32_t tenant = 0;  ///< tenant active during this launch (0 = none)
  sim::Picos start = 0;
  sim::Picos duration = 0;
  KernelTraffic traffic;

  /// Achieved L1<->L2 throughput in bytes/second.
  [[nodiscard]] double l1l2_throughput_Bps() const {
    const double s = sim::to_seconds(duration);
    return s > 0 ? static_cast<double>(traffic.l1l2_bytes) / s : 0.0;
  }
};

}  // namespace ghum::cache
