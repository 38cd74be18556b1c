#include "apps/pathfinder.hpp"

#include <algorithm>
#include <vector>

#include "apps/kernel_rows.hpp"

namespace ghum::apps {

namespace {
int cell_cost(sim::Rng& rng) { return static_cast<int>(rng.next_below(10)); }
}  // namespace

AppReport run_pathfinder(runtime::Runtime& rt, MemMode mode,
                         const PathfinderConfig& cfg) {
  return drive(pathfinder_steps(rt, mode, cfg));
}

AppCoro pathfinder_steps(runtime::Runtime& rt, MemMode mode, PathfinderConfig cfg) {
  const std::uint64_t n = std::uint64_t{cfg.rows} * cfg.cols;

  AppReport report;
  report.app = "pathfinder";
  report.mode = mode;
  PhaseTimer timer{rt};

  UnifiedBuffer wall = UnifiedBuffer::create(rt, mode, n * sizeof(int), "pf.wall");
  UnifiedBuffer result =
      UnifiedBuffer::create(rt, mode, cfg.cols * sizeof(int), "pf.result");
  // Ping-pong row buffer: a pure GPU intermediary, so it stays cudaMalloc
  // in every mode (paper Section 3.1: GPU-only buffers keep cudaMalloc).
  core::Buffer scratch = rt.malloc_device(cfg.cols * sizeof(int), "pf.scratch");
  report.times.alloc_s = timer.lap();
  co_yield 0;

  rt.host_phase("pf.cpu_init", static_cast<double>(n), [&] {
    sim::Rng rng{cfg.seed};
    auto w = rt.host_span<int>(wall.host());
    int* wv = w.store_run(0, n);
    for (std::uint64_t i = 0; i < n; ++i) wv[i] = cell_cost(rng);
  });
  report.times.cpu_init_s = timer.lap();
  co_yield 0;

  wall.h2d(rt);
  // DP state starts as row 0 of the wall; alternates result <-> scratch.
  const core::Buffer* src = &wall.device();  // row 0 read in first step
  const core::Buffer* dst = &result.device();
  bool first = true;
  for (std::uint32_t r = 1; r < cfg.rows; ++r) {
    auto record = rt.launch("pf.row", static_cast<double>(cfg.cols) * 4, [&] {
      auto s = rt.device_span<int>(*src);
      auto w = rt.device_span<int>(wall.device());
      auto d = rt.device_span<int>(*dst);
      const std::uint64_t row_off = std::uint64_t{r} * cfg.cols;
      // The accounted loads of a sliding 3-neighbour window over the
      // previous DP row: element 0 as column 0's clamped left and again as
      // its centre, then element 1. After them, per column, the wall cell,
      // the store, and the next right neighbour (none for the last two
      // columns).
      const int s0 = s.load(0);
      (void)s.load(0);
      const int head[2] = {s0, cfg.cols > 1 ? s.load(1) : s0};
      const std::uint32_t tail = std::min<std::uint32_t>(cfg.cols, 2);
      const std::uint32_t body = cfg.cols - tail;
      if (body > 0) {
        const auto [wv, dv, next] =
            runtime::account(body, w.reads(row_off), d.writes(0), s.reads(2));
        (void)runtime::account(tail, w.reads(row_off + body), d.writes(body));
        // The tail's wall cells and stores follow the body's, and next is
        // element 2 of the previous row.
        pathfinder_row(next - 2, wv, dv, cfg.cols);
      } else {
        const auto [wv, dv] = runtime::account(tail, w.reads(row_off), d.writes(0));
        pathfinder_row(head, wv, dv, cfg.cols);
      }
    });
    report.compute_traffic += record.traffic;
    if (first) {
      // After the first row the source is always a DP row buffer.
      first = false;
      src = &result.device();
      dst = &scratch;
    } else {
      std::swap(src, dst);
    }
    co_yield 0;
  }
  rt.device_synchronize();
  // Copy the final DP row into `result` if it currently sits in scratch.
  const bool in_scratch = src == &scratch;
  if (in_scratch) {
    // Device-to-device move of the final row (explicit copy in all modes;
    // this is a GPU-local operation).
    auto rec = rt.launch("pf.gather", static_cast<double>(cfg.cols), [&] {
      auto s = rt.device_span<int>(scratch);
      auto d = rt.device_span<int>(result.device());
      const int* sv = s.load_run(0, cfg.cols);
      int* dv = d.store_run(0, cfg.cols);
      std::copy_n(sv, cfg.cols, dv);
    });
    report.compute_traffic += rec.traffic;
  }
  result.d2h(rt);
  report.times.compute_s = timer.lap();
  co_yield 0;

  {
    Digest d;
    const auto* data = reinterpret_cast<const int*>(result.host().host);
    for (std::uint32_t c = 0; c < cfg.cols; ++c) d.add_u64(static_cast<std::uint64_t>(data[c]));
    report.checksum = d.value();
  }

  timer.lap();
  wall.free(rt);
  result.free(rt);
  rt.free(scratch);
  report.times.dealloc_s = timer.lap();
  report.times.context_s = timer.context_s();
  co_return report;
}

std::uint64_t pathfinder_reference_checksum(const PathfinderConfig& cfg) {
  const std::uint64_t n = std::uint64_t{cfg.rows} * cfg.cols;
  std::vector<int> wall(n);
  sim::Rng rng{cfg.seed};
  for (std::uint64_t i = 0; i < n; ++i) wall[i] = cell_cost(rng);

  std::vector<int> a(wall.begin(), wall.begin() + cfg.cols);
  std::vector<int> b(cfg.cols);
  std::vector<int>* src = &a;
  std::vector<int>* dst = &b;
  for (std::uint32_t r = 1; r < cfg.rows; ++r) {
    for (std::uint32_t c = 0; c < cfg.cols; ++c) {
      const int left = (*src)[c == 0 ? 0 : c - 1];
      const int center = (*src)[c];
      const int right = (*src)[c + 1 >= cfg.cols ? cfg.cols - 1 : c + 1];
      (*dst)[c] = wall[std::uint64_t{r} * cfg.cols + c] +
                  std::min(std::min(left, center), right);
    }
    std::swap(src, dst);
  }
  Digest d;
  for (std::uint32_t c = 0; c < cfg.cols; ++c) {
    d.add_u64(static_cast<std::uint64_t>((*src)[c]));
  }
  return d.value();
}

}  // namespace ghum::apps
