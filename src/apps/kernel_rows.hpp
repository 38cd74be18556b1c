#pragma once

#include <cstddef>
#include <cstdint>

/// \file kernel_rows.hpp
/// One row of each stencil/DP kernel body: srad's srad1 and srad2, hotspot's
/// step and pathfinder's relaxation. The kernels account a row's streams
/// with runtime::account() first and then run the row here, on the raw
/// pointers it handed back.
///
/// Each row function is out of line and takes __restrict pointers, so the
/// compiler needs no alias checks between its streams. It computes the
/// first and the last column, whose neighbours are clamped, on their own;
/// the interior runs as a main loop whose trip count is a multiple of 16,
/// then a scalar remainder, both through the same cell expression. GCC's
/// -O2 vectorizer, which will not add alias checks or an epilogue of its
/// own, vectorizes such a main loop. Every cell keeps the scalar
/// expression and operand order of the per-column loop it replaces, and
/// without floating-point contraction each lane computes exactly what that
/// loop computed (DESIGN.md Section 7, "Kernel rows").

namespace ghum::apps {

// HotSpot thermal constants (Rodinia defaults, folded).
inline constexpr float kHotspotCap = 0.5f;
inline constexpr float kHotspotRxInv = 0.1f;
inline constexpr float kHotspotRyInv = 0.1f;
inline constexpr float kHotspotRzInv = 0.0333f;
inline constexpr float kHotspotAmb = 80.0f;

/// One HotSpot cell: temperature \p c with its four neighbours and power \p p.
[[nodiscard]] inline float hotspot_cell(float c, float n, float s, float w, float e,
                                        float p) noexcept {
  const float delta =
      kHotspotCap * (p + (n + s - 2.0f * c) * kHotspotRyInv +
                     (w + e - 2.0f * c) * kHotspotRxInv + (kHotspotAmb - c) * kHotspotRzInv);
  return c + delta;
}

/// srad1 on one row of \p cols pixels: the four directional derivatives
/// and the clamped diffusion coefficient of every pixel. \p j is the row,
/// \p jn and \p js the rows north and south of it (the row itself at the
/// image edge); the west of column 0 and the east of the last column are
/// the pixel itself. A zero-variance image (\p q0sqr == 0) gives every
/// coefficient its limit as q0sqr -> 0+, which is 1.
void srad1_row(const float* __restrict j, const float* __restrict jn,
               const float* __restrict js, float* __restrict dn, float* __restrict ds,
               float* __restrict dw, float* __restrict de, float* __restrict coef,
               std::size_t cols, float q0sqr) noexcept;

/// srad2 on one row: j[c] += step * div of the coefficient-weighted
/// derivatives. \p c is the row's coefficients, \p cs those of the row south
/// of it; the east of the last column is the pixel's own coefficient.
void srad2_row(const float* __restrict c, const float* __restrict cs,
               const float* __restrict ds, const float* __restrict dn,
               const float* __restrict de, const float* __restrict dw, float* __restrict j,
               std::size_t cols, float step) noexcept;

/// One HotSpot step on one row: \p t is the row's temperatures, \p tn and
/// \p ts the rows north and south of it, \p p its power; writes \p out.
/// The west of column 0 and the east of the last column are the cell itself.
void hotspot_row(const float* __restrict t, const float* __restrict tn,
                 const float* __restrict ts, const float* __restrict p,
                 float* __restrict out, std::size_t cols) noexcept;

/// One pathfinder DP row: out[c] = wall[c] plus the least of prev[c - 1],
/// prev[c] and prev[c + 1], the out-of-row neighbours clamped to the row.
void pathfinder_row(const int* __restrict prev, const int* __restrict wall,
                    int* __restrict out, std::size_t cols) noexcept;

}  // namespace ghum::apps
