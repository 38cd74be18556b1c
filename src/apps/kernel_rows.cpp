#include "apps/kernel_rows.hpp"

#include <algorithm>

namespace ghum::apps {

namespace {

/// Columns [1, cols - 1) of a row, through cell(c, west, east) with the
/// neighbours read from \p row: a main loop over a multiple of 16 columns,
/// which the vectorizer takes as it stands, then the rest one by one.
template <typename T, typename Cell>
[[gnu::always_inline]] inline void interior(const T* __restrict row, std::size_t cols,
                                            Cell cell) {
  const std::size_t blocked = (cols - 2) & ~std::size_t{15};
  for (std::size_t i = 0; i < blocked; ++i) cell(i + 1, row[i], row[i + 2]);
  for (std::size_t c = blocked + 1; c < cols - 1; ++c) cell(c, row[c - 1], row[c + 1]);
}

/// A row of \p cols columns: column 0 with its west clamped, the interior,
/// and the last column with its east clamped.
template <typename T, typename Cell>
[[gnu::always_inline]] inline void clamped_row(const T* __restrict row, std::size_t cols,
                                               Cell cell) {
  if (cols == 1) {
    cell(0, row[0], row[0]);
    return;
  }
  cell(0, row[0], row[1]);
  interior(row, cols, cell);
  cell(cols - 1, row[cols - 2], row[cols - 1]);
}

}  // namespace

void srad1_row(const float* __restrict j, const float* __restrict jn,
               const float* __restrict js, float* __restrict dn, float* __restrict ds,
               float* __restrict dw, float* __restrict de, float* __restrict coef,
               std::size_t cols, float q0sqr) noexcept {
  clamped_row(j, cols, [=](std::size_t cc, float west, float east) {
    const float c = j[cc];
    const float vdn = jn[cc] - c;
    const float vds = js[cc] - c;
    const float vdw = west - c;
    const float vde = east - c;
    dn[cc] = vdn;
    ds[cc] = vds;
    dw[cc] = vdw;
    de[cc] = vde;
    const float g2 = (vdn * vdn + vds * vds + vdw * vdw + vde * vde) / (c * c);
    const float l = (vdn + vds + vdw + vde) / c;
    const float num = 0.5f * g2 - (1.0f / 16.0f) * l * l;
    const float den = 1.0f + 0.25f * l;
    const float qsqr = num / (den * den);
    const float k = 1.0f / (1.0f + (qsqr - q0sqr) / (q0sqr * (1.0f + q0sqr)));
    coef[cc] = k < 0.0f ? 0.0f : (k > 1.0f ? 1.0f : k);
  });
  // Zero variance makes the formula 0/0; its limit is 1. Set once per row,
  // not tested per cell, so the loop above stays vectorizable.
  if (q0sqr == 0.0f) std::fill_n(coef, cols, 1.0f);
}

void srad2_row(const float* __restrict c, const float* __restrict cs,
               const float* __restrict ds, const float* __restrict dn,
               const float* __restrict de, const float* __restrict dw, float* __restrict j,
               std::size_t cols, float step) noexcept {
  clamped_row(c, cols, [=](std::size_t cc, float /*west*/, float c_east) {
    const float c_here = c[cc];
    const float div = cs[cc] * ds[cc] + c_here * dn[cc] + c_east * de[cc] + c_here * dw[cc];
    j[cc] = j[cc] + step * div;
  });
}

void hotspot_row(const float* __restrict t, const float* __restrict tn,
                 const float* __restrict ts, const float* __restrict p,
                 float* __restrict out, std::size_t cols) noexcept {
  clamped_row(t, cols, [=](std::size_t c, float west, float east) {
    out[c] = hotspot_cell(t[c], tn[c], ts[c], west, east, p[c]);
  });
}

void pathfinder_row(const int* __restrict prev, const int* __restrict wall,
                    int* __restrict out, std::size_t cols) noexcept {
  clamped_row(prev, cols, [=](std::size_t c, int left, int right) {
    // Value selects, not std::min of references: the vectorizer takes
    // these as selects, where std::min leaves control flow in the loop.
    const int centre = prev[c];
    const int lc = centre < left ? centre : left;
    out[c] = wall[c] + (right < lc ? right : lc);
  });
}

}  // namespace ghum::apps
