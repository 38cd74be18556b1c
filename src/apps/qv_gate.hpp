#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>

#include "apps/qvsim.hpp"

/// \file qv_gate.hpp
/// The two-qubit gate body that qvsim's in-memory kernel (qv.gate), its
/// chunk-exchange kernel (qv.gate.chunked) and its host reference share.
///
/// apply_gate() copies the gate's unitary, its qubit positions and the
/// masks and offsets derived from them into a local GateOperands, once per
/// gate. The loop stores amp_t values, and a store through an amp_t may
/// alias the unitary of any GateSpec, so a loop that reads its operands
/// through a GateSpec reference re-reads all sixteen matrix entries and
/// p/q on every group of four amplitudes. A local whose address never
/// escapes aliases nothing, so the compiler is free to keep or reorder
/// those loads and to schedule work across groups. The arithmetic is the
/// same std::complex expression as before, so every amplitude is
/// bit-identical.

namespace ghum::apps {

/// One gate's operands, held by value for one sweep over the statevector.
struct GateOperands {
  explicit GateOperands(const GateSpec& g) noexcept
      : u(g.u),
        p(g.p),
        q(g.q),
        low_mask((1ull << g.p) - 1),
        mid_mask((1ull << (g.q - 1 - g.p)) - 1),
        off01(1ull << g.p),
        off10(1ull << g.q),
        off11(off01 | off10) {}

  /// Statevector index of the |00> amplitude of group \p grp: the group
  /// index with zero bits inserted at positions p and q.
  [[nodiscard]] std::uint64_t base(std::uint64_t grp) const noexcept {
    return (grp & low_mask) | (((grp >> p) & mid_mask) << (p + 1)) |
           ((grp >> (q - 1)) << (q + 1));
  }

  /// a <- U a for one group's amplitudes |00>, |01>, |10>, |11> (bit p is
  /// the low one).
  void apply(amp_t (&a)[4]) const noexcept {
    const amp_t b0 = u[0] * a[0] + u[1] * a[1] + u[2] * a[2] + u[3] * a[3];
    const amp_t b1 = u[4] * a[0] + u[5] * a[1] + u[6] * a[2] + u[7] * a[3];
    const amp_t b2 = u[8] * a[0] + u[9] * a[1] + u[10] * a[2] + u[11] * a[3];
    const amp_t b3 = u[12] * a[0] + u[13] * a[1] + u[14] * a[2] + u[15] * a[3];
    a[0] = b0;
    a[1] = b1;
    a[2] = b2;
    a[3] = b3;
  }

  std::array<amp_t, 16> u;
  std::uint32_t p;
  std::uint32_t q;
  std::uint64_t low_mask;
  std::uint64_t mid_mask;
  std::uint64_t off01;  ///< index offsets of |01>, |10> and |11> from |00>
  std::uint64_t off10;
  std::uint64_t off11;
};

/// Applies \p g to the amplitude groups [first, last). Each group loads its
/// four amplitudes, |00> to |11>, through amps.load(j, i), and stores the
/// results back in the same order through amps.store(j, i, v), where i is
/// the statevector index and j the member's position in the group.
template <typename Amps>
void apply_gate(const GateSpec& g, std::uint64_t first, std::uint64_t last, Amps& amps) {
  const GateOperands op{g};
  for (std::uint64_t grp = first; grp < last; ++grp) {
    const std::uint64_t i00 = op.base(grp);
    // Spelled out rather than looped, so that each member's lane is known
    // at compile time and the group stays in registers.
    amp_t a[4] = {amps.load(0, i00), amps.load(1, i00 | op.off01),
                  amps.load(2, i00 | op.off10), amps.load(3, i00 | op.off11)};
    op.apply(a);
    amps.store(0, i00, a[0]);
    amps.store(1, i00 | op.off01, a[1]);
    amps.store(2, i00 | op.off10, a[2]);
    amps.store(3, i00 | op.off11, a[3]);
  }
}

/// Unaccounted host memory, in the load/store shape of runtime::Span.
struct RawLane {
  amp_t* data;
  [[nodiscard]] amp_t load(std::uint64_t i) const noexcept { return data[i]; }
  void store(std::uint64_t i, amp_t v) const noexcept { data[i] = v; }
};

/// A statevector read through one lane per group member: the in-memory
/// kernel gives each member a Span of its own, so that each keeps its own
/// page cursor; the reference passes one RawLane four times.
template <typename Lane>
struct LaneAmps {
  Lane* lane[4];
  [[nodiscard]] amp_t load(int j, std::uint64_t i) { return lane[j]->load(i); }
  void store(int j, std::uint64_t i, amp_t v) { lane[j]->store(i, v); }
};

/// How the chunk-exchange pipeline splits one gate over chunks of 2^c
/// amplitudes. The gate's k qubits at or above c couple 2^k chunks into a
/// chunk group, staged together; the others leave 2^free_low amplitude
/// groups inside each chunk group.
class ChunkGroups {
 public:
  ChunkGroups(const GateSpec& g, std::uint32_t qubits, std::uint32_t c) noexcept {
    if (g.p >= c) hb_[k_++] = g.p - c;
    if (g.q >= c) hb_[k_++] = g.q - c;
    free_low_ = c - (2 - k_);
    count_ = 1ull << (qubits - c - k_);
  }

  /// Chunks per chunk group: 1, 2 or 4.
  [[nodiscard]] std::uint32_t members() const noexcept { return 1u << k_; }
  /// Number of chunk groups.
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// Amplitude groups per chunk group.
  [[nodiscard]] std::uint64_t amp_groups() const noexcept { return 1ull << free_low_; }
  /// First amplitude group of chunk group \p ghigh; its groups are
  /// contiguous.
  [[nodiscard]] std::uint64_t first_group(std::uint64_t ghigh) const noexcept {
    return ghigh << free_low_;
  }

  /// Chunk ids of the members of chunk group \p ghigh.
  [[nodiscard]] std::array<std::uint64_t, 4> member_chunks(std::uint64_t ghigh) const noexcept {
    // Chunk index with zeros at the coupled bit positions.
    std::uint64_t base_chunk = ghigh;
    for (std::uint32_t b = 0; b < k_; ++b) {
      const std::uint64_t low = base_chunk & ((1ull << hb_[b]) - 1);
      base_chunk = ((base_chunk >> hb_[b]) << (hb_[b] + 1)) | low;
    }
    std::array<std::uint64_t, 4> out{};
    for (std::uint32_t m = 0; m < members(); ++m) {
      std::uint64_t idx = base_chunk;
      if (k_ >= 1 && (m & 1u)) idx |= 1ull << hb_[0];
      if (k_ >= 2 && (m & 2u)) idx |= 1ull << hb_[1];
      out[m] = idx;
    }
    return out;
  }

 private:
  std::uint32_t hb_[2] = {0, 0};  ///< coupled bit positions in the chunk id
  std::uint32_t k_ = 0;
  std::uint32_t free_low_ = 0;
  std::uint64_t count_ = 0;
};

/// A statevector read through the staged members of one chunk group:
/// amplitude i lives in chunk i >> c, at offset i mod 2^c of that chunk's
/// lane.
template <typename Lane>
struct ChunkAmps {
  Lane* slot;                          ///< one lane per member
  std::array<std::uint64_t, 4> chunk;  ///< the members' chunk ids
  std::uint32_t members;
  std::uint32_t c;
  Lane* at[4] = {};  ///< the lane each group member was loaded from

  [[nodiscard]] amp_t load(int j, std::uint64_t i) {
    at[j] = &slot_of(i >> c);
    return at[j]->load(i & ((1ull << c) - 1));
  }
  void store(int j, std::uint64_t i, amp_t v) { at[j]->store(i & ((1ull << c) - 1), v); }

 private:
  Lane& slot_of(std::uint64_t id) {
    for (std::uint32_t m = 0; m < members; ++m) {
      if (chunk[m] == id) return slot[m];
    }
    throw std::logic_error{"qv chunked: index outside staged chunks"};
  }
};

}  // namespace ghum::apps
