#pragma once

#include <cstddef>
#include <cstdint>

/// \file fnv.hpp
/// 64-bit FNV-1a: the one hash behind every simulated digest, payload
/// checksum and checkpoint stamp. Words are folded byte by byte, least
/// significant first, so a digest does not depend on host endianness.

namespace ghum::sim {

inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

/// Folds the eight little-endian bytes of \p v into \p h.
constexpr void fnv_mix(std::uint64_t& h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
}

/// FNV-1a of \p size bytes at \p data, continuing from \p h.
[[nodiscard]] inline std::uint64_t fnv1a(const void* data, std::size_t size,
                                         std::uint64_t h = kFnvOffset) noexcept {
  const auto* b = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    h ^= b[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace ghum::sim
