#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <tuple>
#include <type_traits>

#include "apps/qvsim.hpp"
#include "runtime/span.hpp"

/// \file qv_gate.hpp
/// The two-qubit gate body that qvsim's in-memory kernel (qv.gate), its
/// chunk-exchange kernel (qv.gate.chunked) and its host reference share.
///
/// apply_gate() copies the gate's unitary, its qubit positions and the
/// masks and offsets derived from them into a local GateOperands, once per
/// gate. A local whose address never escapes aliases nothing, so the
/// compiler keeps those operands out of the way of the amplitude stores.
///
/// The arithmetic works on one amplitude per 16-byte vector, (re, im),
/// loaded straight from the statevector. Each product u * x is
/// (ur, ur) * x + (-ui, ui) * swap(x), i.e. (ur*ar - ui*ai, ur*ai + ui*ar):
/// the products and sums std::complex computes whenever its result is not
/// NaN, so every amplitude is bit-identical to the std::complex form,
/// without its Annex G NaN recovery (__muldc3). -std=c++20 keeps
/// floating-point contraction off, and baseline x86-64 has no FMA.
///
/// Groups grp, grp + 1, ... differ only in their bits below p until those
/// bits wrap, so over such a run each group member's amplitudes are
/// contiguous. The in-memory kernel accounts a run of at least
/// LaneAmps::kMinRun groups with one runtime::account() call whose eight
/// streams are the four members' reads, then their writes, as each group
/// touches them; shorter runs, and the chunk-exchange kernel, account
/// group by group through load()/store() in that same order.

namespace ghum::apps {

/// One gate's operands, held by value for one sweep over the statevector.
struct GateOperands {
  /// One amplitude (real, imaginary), or one unitary entry broadcast
  /// against it, in one 16-byte vector.
  using Pair = double __attribute__((vector_size(16)));

  explicit GateOperands(const GateSpec& g) noexcept
      : p(g.p),
        q(g.q),
        low_mask((1ull << g.p) - 1),
        mid_mask((1ull << (g.q - 1 - g.p)) - 1),
        off01(1ull << g.p),
        off10(1ull << g.q),
        off11(off01 | off10) {
    for (std::size_t k = 0; k < g.u.size(); ++k) {
      re[k] = Pair{g.u[k].real(), g.u[k].real()};
      im[k] = Pair{-g.u[k].imag(), g.u[k].imag()};
    }
  }

  /// Statevector index of the |00> amplitude of group \p grp: the group
  /// index with zero bits inserted at positions p and q.
  [[nodiscard]] std::uint64_t base(std::uint64_t grp) const noexcept {
    return (grp & low_mask) | (((grp >> p) & mid_mask) << (p + 1)) |
           ((grp >> (q - 1)) << (q + 1));
  }

  /// y <- U x for one group: x[j] and y[j] point at the group's |00>,
  /// |01>, |10> and |11> amplitudes (bit p is the low one). Reads all four
  /// before writing any, so x and y may be the same pointers. Inlined into
  /// each loop, so that the pointer arrays stay in registers.
  [[gnu::always_inline]] void apply(const amp_t* const* x, amp_t* const* y) const noexcept {
    const Pair a[4] = {load(x[0]), load(x[1]), load(x[2]), load(x[3])};
    const Pair s[4] = {swap(a[0]), swap(a[1]), swap(a[2]), swap(a[3])};
    store(y[0], row(0, a, s));
    store(y[1], row(4, a, s));
    store(y[2], row(8, a, s));
    store(y[3], row(12, a, s));
  }

  Pair re[16];  ///< (ur, ur) of each row-major unitary entry
  Pair im[16];  ///< (-ui, ui) of each entry
  std::uint32_t p;
  std::uint32_t q;
  std::uint64_t low_mask;
  std::uint64_t mid_mask;
  std::uint64_t off01;  ///< index offsets of |01>, |10> and |11> from |00>
  std::uint64_t off10;
  std::uint64_t off11;

 private:
  /// std::complex<double> is laid out as double[2] ([complex.numbers]).
  static Pair load(const amp_t* x) noexcept {
    Pair v;
    std::memcpy(&v, reinterpret_cast<const double*>(x), sizeof(Pair));
    return v;
  }
  static void store(amp_t* y, Pair v) noexcept {
    std::memcpy(reinterpret_cast<double*>(y), &v, sizeof(Pair));
  }
  static Pair swap(Pair v) noexcept { return __builtin_shufflevector(v, v, 1, 0); }

  /// The row whose entries start at \p k, summed left to right as the
  /// std::complex expression u0*a0 + u1*a1 + u2*a2 + u3*a3 is.
  Pair row(int k, const Pair (&a)[4], const Pair (&s)[4]) const noexcept {
    return (((re[k] * a[0] + im[k] * s[0]) + (re[k + 1] * a[1] + im[k + 1] * s[1])) +
            (re[k + 2] * a[2] + im[k + 2] * s[2])) +
           (re[k + 3] * a[3] + im[k + 3] * s[3]);
  }
};

/// Applies \p g to the amplitude groups [first, last). Each group reads its
/// four amplitudes, |00> to |11>, through amps.load(j, i), which accounts
/// the read and returns where the amplitude lies, and writes the results in
/// the same order through amps.store(j, i, v), where i is the statevector
/// index and j the member's position in the group. An Amps with a run()
/// member takes runs of at least Amps::kMinRun groups in one call instead:
/// run(i00, op, len) accounts len groups from the one whose |00> amplitude
/// is i00, as len rounds of those loads and stores would, and returns the
/// four members' first amplitudes, which the gate then updates in place.
template <typename Amps>
void apply_gate(const GateSpec& g, std::uint64_t first, std::uint64_t last, Amps& amps) {
  const GateOperands op{g};
  for (std::uint64_t grp = first; grp < last;) {
    const std::uint64_t len = std::min(last - grp, op.off01 - (grp & op.low_mask));
    if constexpr (requires { amps.run(grp, op, len); }) {
      if (len >= Amps::kMinRun) {
        const std::array<amp_t*, 4> m = amps.run(op.base(grp), op, len);
        for (std::uint64_t k = 0; k < len; ++k) {
          amp_t* const a[4] = {m[0] + k, m[1] + k, m[2] + k, m[3] + k};
          op.apply(a, a);
        }
        grp += len;
        continue;
      }
    }
    for (const std::uint64_t end = grp + len; grp < end; ++grp) {
      const std::uint64_t i = op.base(grp);
      // Spelled out rather than looped, so that each member's lane is known
      // at compile time; a braced list is evaluated left to right.
      const amp_t* const x[4] = {amps.load(0, i), amps.load(1, i | op.off01),
                                 amps.load(2, i | op.off10), amps.load(3, i | op.off11)};
      amp_t b[4];
      amp_t* const y[4] = {b, b + 1, b + 2, b + 3};
      op.apply(x, y);
      amps.store(0, i, b[0]);
      amps.store(1, i | op.off01, b[1]);
      amps.store(2, i | op.off10, b[2]);
      amps.store(3, i | op.off11, b[3]);
    }
  }
}

/// Unaccounted host memory.
struct RawLane {
  amp_t* data;
};

/// A lane's accounted read of amplitude \p i, and where that amplitude lies.
inline const amp_t* lane_load(RawLane& l, std::uint64_t i) noexcept { return l.data + i; }
inline const amp_t* lane_load(runtime::Span<amp_t>& s, std::uint64_t i) {
  (void)s.load(i);
  return s.raw() + i;
}

/// A lane's accounted write of amplitude \p i.
inline void lane_store(RawLane& l, std::uint64_t i, const amp_t& v) noexcept { l.data[i] = v; }
inline void lane_store(runtime::Span<amp_t>& s, std::uint64_t i, const amp_t& v) {
  s.store(i, v);
}

/// A statevector read through one lane per group member: the in-memory
/// kernel gives each member a Span of its own, so that each keeps its own
/// page cursor; the reference passes one RawLane four times.
template <typename Lane>
struct LaneAmps {
  /// Shorter runs go group by group: one account() call of eight streams
  /// costs more set-up than a few groups' per-element accesses.
  static constexpr std::uint64_t kMinRun = 8;

  Lane* lane[4];

  [[nodiscard]] const amp_t* load(int j, std::uint64_t i) { return lane_load(*lane[j], i); }
  void store(int j, std::uint64_t i, const amp_t& v) { lane_store(*lane[j], i, v); }

  /// Accounts \p len groups from the one whose |00> amplitude is \p i00:
  /// every group reads its members |00> to |11>, then writes them.
  [[nodiscard]] std::array<amp_t*, 4> run(std::uint64_t i00, const GateOperands& op,
                                          std::uint64_t len) {
    const std::uint64_t i01 = i00 | op.off01;
    const std::uint64_t i10 = i00 | op.off10;
    const std::uint64_t i11 = i00 | op.off11;
    if constexpr (std::is_same_v<Lane, RawLane>) {
      return {lane[0]->data + i00, lane[1]->data + i01, lane[2]->data + i10,
              lane[3]->data + i11};
    } else {
      const auto w = runtime::account(
          len, lane[0]->reads(i00), lane[1]->reads(i01), lane[2]->reads(i10),
          lane[3]->reads(i11), lane[0]->writes(i00), lane[1]->writes(i01),
          lane[2]->writes(i10), lane[3]->writes(i11));
      return {std::get<4>(w), std::get<5>(w), std::get<6>(w), std::get<7>(w)};
    }
  }
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

  [[nodiscard]] const amp_t* load(int j, std::uint64_t i) {
    at[j] = &slot_of(i >> c);
    return lane_load(*at[j], i & ((1ull << c) - 1));
  }
  void store(int j, std::uint64_t i, const amp_t& v) {
    lane_store(*at[j], i & ((1ull << c) - 1), v);
  }

 private:
  Lane& slot_of(std::uint64_t id) {
    for (std::uint32_t m = 0; m < members; ++m) {
      if (chunk[m] == id) return slot[m];
    }
    throw std::logic_error{"qv chunked: index outside staged chunks"};
  }
};

}  // namespace ghum::apps
