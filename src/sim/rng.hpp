#pragma once

#include <bit>
#include <cstdint>

/// \file rng.hpp
/// Deterministic pseudo-random generator (xoshiro256**). Workload
/// generators (graphs, images, quantum circuits) must be reproducible
/// across platforms and standard-library versions, so we do not use
/// std::mt19937 / std::uniform_*_distribution anywhere. The draws are
/// inline: workload generators call them once per element.

namespace ghum::chk {
class Snapshotter;
}  // namespace ghum::chk

namespace ghum::sim {

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept;

  /// Uniform 64-bit value.
  std::uint64_t next_u64() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Uniform in [0, bound) without modulo bias (bound must be > 0).
  std::uint64_t next_below(std::uint64_t bound) noexcept {
    // Lemire's multiply-shift rejection method.
    std::uint64_t x = next_u64();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = -bound % bound;
      while (lo < threshold) {
        x = next_u64();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double next_double(double lo, double hi) noexcept {
    return lo + (hi - lo) * next_double();
  }

  /// Inter-arrival gap of an open-loop arrival process with the given mean:
  /// uniform in [0, 2*mean], i.e. mean spacing \p mean with bounded jitter.
  /// Pure integer arithmetic (no libm), so the generated arrival schedule
  /// is bit-identical across platforms and standard-library versions —
  /// the property every fleet reproducibility gate leans on.
  std::uint64_t next_interarrival(std::uint64_t mean) noexcept {
    return mean == 0 ? 0 : next_below(2 * mean + 1);
  }

 private:
  static std::uint64_t splitmix64(std::uint64_t& x) noexcept;
  std::uint64_t s_[4]{};

  // Checkpoint restore reinstates the exact generator state so continued
  // probability draws match the uninterrupted run draw for draw.
  friend class ghum::chk::Snapshotter;
};

}  // namespace ghum::sim
