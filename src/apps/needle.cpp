#include "apps/needle.hpp"

#include <algorithm>
#include <vector>

namespace ghum::apps {

namespace {

constexpr std::uint32_t kTile = 16;

/// Rodinia uses the BLOSUM62 matrix over random sequences; a deterministic
/// per-cell hash preserves the data-dependent access behaviour without
/// carrying the table around.
int similarity(std::uint32_t i, std::uint32_t j, std::uint64_t seed) {
  std::uint64_t x = (std::uint64_t{i} << 32) ^ j ^ seed;
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return static_cast<int>(x % 21) - 10;  // BLOSUM-like range [-10, 10]
}

}  // namespace

AppReport run_needle(runtime::Runtime& rt, MemMode mode, const NeedleConfig& cfg) {
  return drive(needle_steps(rt, mode, cfg));
}

AppCoro needle_steps(runtime::Runtime& rt, MemMode mode, NeedleConfig cfg) {
  if (cfg.n == 0 || cfg.n % kTile != 0) {
    throw std::invalid_argument{"needle: n must be a positive multiple of 16"};
  }
  const std::uint32_t dim = cfg.n + 1;
  const std::uint64_t cells = std::uint64_t{dim} * dim;

  AppReport report;
  report.app = "needle";
  report.mode = mode;
  PhaseTimer timer{rt};

  UnifiedBuffer score =
      UnifiedBuffer::create(rt, mode, cells * sizeof(int), "needle.score");
  UnifiedBuffer ref =
      UnifiedBuffer::create(rt, mode, cells * sizeof(int), "needle.ref");
  report.times.alloc_s = timer.lap();
  co_yield 0;

  rt.host_phase("needle.cpu_init", static_cast<double>(cells) * 3, [&] {
    auto s = rt.host_span<int>(score.host());
    auto r = rt.host_span<int>(ref.host());
    // Rodinia zeroes the whole score matrix on the CPU before setting the
    // boundary conditions, then fills the reference matrix — so every page
    // of both buffers is CPU-first-touched.
    for (std::uint32_t i = 0; i < dim; ++i) {
      const std::uint64_t row = std::uint64_t{i} * dim;
      int* srow = s.store_run(row, dim);
      int* rrow = r.store_run(row, dim);
      std::fill_n(srow, dim, 0);
      for (std::uint32_t j = 0; j < dim; ++j) {
        rrow[j] = i == 0 || j == 0 ? 0 : similarity(i, j, cfg.seed);
      }
      s.store(row, -static_cast<int>(i) * cfg.penalty);
    }
    for (std::uint32_t j = 0; j < dim; ++j) {
      s.store(j, -static_cast<int>(j) * cfg.penalty);
    }
  });
  report.times.cpu_init_s = timer.lap();
  co_yield 0;

  score.h2d(rt);
  ref.h2d(rt);
  const std::uint32_t tiles = cfg.n / kTile;
  // Wavefront over tile anti-diagonals: forward sweep covers the full
  // matrix (Rodinia splits the same traversal into two kernel families).
  for (std::uint32_t d = 0; d < 2 * tiles - 1; ++d) {
    const std::uint32_t tlo = d < tiles ? 0 : d - tiles + 1;
    const std::uint32_t thi = std::min(d, tiles - 1);
    const double work = static_cast<double>(thi - tlo + 1) * kTile * kTile * 6;
    auto record = rt.launch("needle.diag", work, [&] {
      auto north = rt.device_span<int>(score.device());
      auto out = rt.device_span<int>(score.device());
      auto edge = rt.device_span<int>(score.device());
      auto sim_m = rt.device_span<int>(ref.device());
      for (std::uint32_t ti = tlo; ti <= thi; ++ti) {
        const std::uint32_t tj = d - ti;
        // Tile spans rows [1 + ti*kTile, ...), cols [1 + tj*kTile, ...).
        for (std::uint32_t r = 1 + ti * kTile; r < 1 + (ti + 1) * kTile; ++r) {
          const std::uint64_t row = std::uint64_t{r} * dim;
          const std::uint64_t prow = row - dim;
          const std::uint32_t c0 = 1 + tj * kTile;
          // Boundary loads for the sliding window, then per column the
          // north cell, the similarity and the store.
          int nw = north.load(prow + c0 - 1);
          int west = edge.load(row + c0 - 1);
          const auto [up, sim_v, dst] = runtime::account(
              kTile, north.reads(prow + c0), sim_m.reads(row + c0), out.writes(row + c0));
          for (std::uint32_t c = 0; c < kTile; ++c) {
            const int v = std::max(std::max(up[c] - cfg.penalty, west - cfg.penalty),
                                   nw + sim_v[c]);
            dst[c] = v;
            nw = up[c];
            west = v;
          }
        }
      }
    });
    report.compute_traffic += record.traffic;
    co_yield 0;
  }
  rt.device_synchronize();
  score.d2h(rt);
  report.times.compute_s = timer.lap();
  co_yield 0;

  {
    Digest dg;
    const auto* data = reinterpret_cast<const int*>(score.host().host);
    // Alignment score plus a sparse sample of the DP matrix.
    dg.add_u64(static_cast<std::uint64_t>(data[cells - 1]));
    for (std::uint64_t i = 0; i < cells; i += 4099) {
      dg.add_u64(static_cast<std::uint64_t>(data[i]));
    }
    report.checksum = dg.value();
  }

  timer.lap();
  score.free(rt);
  ref.free(rt);
  report.times.dealloc_s = timer.lap();
  report.times.context_s = timer.context_s();
  co_return report;
}

std::uint64_t needle_reference_checksum(const NeedleConfig& cfg) {
  const std::uint32_t dim = cfg.n + 1;
  const std::uint64_t cells = std::uint64_t{dim} * dim;
  std::vector<int> s(cells), r(cells);
  for (std::uint32_t i = 0; i < dim; ++i) {
    const std::uint64_t row = std::uint64_t{i} * dim;
    for (std::uint32_t j = 0; j < dim; ++j) {
      r[row + j] = i == 0 || j == 0 ? 0 : similarity(i, j, cfg.seed);
    }
    s[row] = -static_cast<int>(i) * cfg.penalty;
  }
  for (std::uint32_t j = 0; j < dim; ++j) s[j] = -static_cast<int>(j) * cfg.penalty;

  for (std::uint32_t i = 1; i < dim; ++i) {
    const std::uint64_t row = std::uint64_t{i} * dim;
    for (std::uint32_t j = 1; j < dim; ++j) {
      s[row + j] = std::max(std::max(s[row - dim + j] - cfg.penalty,
                                     s[row + j - 1] - cfg.penalty),
                            s[row - dim + j - 1] + r[row + j]);
    }
  }
  Digest dg;
  dg.add_u64(static_cast<std::uint64_t>(s[cells - 1]));
  for (std::uint64_t i = 0; i < cells; i += 4099) {
    dg.add_u64(static_cast<std::uint64_t>(s[i]));
  }
  return dg.value();
}

}  // namespace ghum::apps
