#include "apps/hotspot.hpp"

#include <algorithm>
#include <vector>

#include "apps/kernel_rows.hpp"

namespace ghum::apps {

namespace {

float init_temp(sim::Rng& rng) {
  return 323.0f + static_cast<float>(rng.next_double()) * 10.0f;
}
float init_power(sim::Rng& rng) {
  return static_cast<float>(rng.next_double()) * 0.5f;
}

}  // namespace

AppReport run_hotspot(runtime::Runtime& rt, MemMode mode, const HotspotConfig& cfg) {
  return drive(hotspot_steps(rt, mode, cfg));
}

AppCoro hotspot_steps(runtime::Runtime& rt, MemMode mode, HotspotConfig cfg) {
  const std::uint64_t n = std::uint64_t{cfg.rows} * cfg.cols;
  const std::uint64_t bytes = n * sizeof(float);

  AppReport report;
  report.app = "hotspot";
  report.mode = mode;
  PhaseTimer timer{rt};

  // --- allocation -----------------------------------------------------------
  // Paper porting rule (Section 3.1): only buffers involved in explicit
  // H2D/D2H copies become unified; the ping-pong intermediate stays
  // cudaMalloc in every mode (Rodinia copies data into MatrixTemp[0] only).
  UnifiedBuffer temp_a = UnifiedBuffer::create(rt, mode, bytes, "hotspot.temp_a");
  core::Buffer temp_b = rt.malloc_device(bytes, "hotspot.temp_b");
  UnifiedBuffer power = UnifiedBuffer::create(rt, mode, bytes, "hotspot.power");
  report.times.alloc_s = timer.lap();
  co_yield 0;

  // --- CPU-side initialization ------------------------------------------------
  rt.host_phase("hotspot.cpu_init", static_cast<double>(n) * 4, [&] {
    sim::Rng rng{cfg.seed};
    auto t = rt.host_span<float>(temp_a.host());
    auto p = rt.host_span<float>(power.host());
    // Dense sweeps go through the bulk accessors; the rng draw order stays
    // element-interleaved so the reference checksum is unchanged.
    float* tv = t.store_run(0, n);
    float* pv = p.store_run(0, n);
    for (std::uint64_t i = 0; i < n; ++i) {
      tv[i] = init_temp(rng);
      pv[i] = init_power(rng);
    }
  });
  report.times.cpu_init_s = timer.lap();
  co_yield 0;

  // --- compute -----------------------------------------------------------------
  const core::Buffer* in = &temp_a.device();
  const core::Buffer* out = &temp_b;
  for (std::uint32_t it = 0; it < cfg.iterations; ++it) {
    if (it == 0) {
      temp_a.h2d(rt);
      power.h2d(rt);
    }
    auto record = rt.launch("hotspot.step", static_cast<double>(n) * 12, [&] {
      auto center = rt.device_span<float>(*in);
      auto north = rt.device_span<float>(*in);
      auto south = rt.device_span<float>(*in);
      auto pw = rt.device_span<float>(power.device());
      auto dst = rt.device_span<float>(*out);
      const std::uint32_t last = cfg.cols - 1;
      for (std::uint32_t r = 0; r < cfg.rows; ++r) {
        const std::uint64_t rn = std::uint64_t{r == 0 ? 0u : r - 1} * cfg.cols;
        const std::uint64_t rs =
            std::uint64_t{r == cfg.rows - 1 ? r : r + 1} * cfg.cols;
        const std::uint64_t rc = std::uint64_t{r} * cfg.cols;
        // Column 0's clamped west: the row function reads it from the row.
        (void)center.load(rc);
        // Per column: centre, east neighbour (not in the last column), then
        // power, south, north, then the store. Power/south/north is the
        // right-to-left order in which GCC 12 evaluated these loads as the
        // arguments of the per-element cell call, which the pinned event
        // digests record; another order moves them.
        const auto [cv, ev, pv, sv, nv, dv] = runtime::account(
            last, center.reads(rc), center.reads(rc + 1), pw.reads(rc), south.reads(rs),
            north.reads(rn), dst.writes(rc));
        (void)runtime::account(1, center.reads(rc + last), pw.reads(rc + last),
                               south.reads(rs + last), north.reads(rn + last),
                               dst.writes(rc + last));
        // ev is cv + 1; the row reads the east neighbour from cv.
        (void)ev;
        hotspot_row(cv, nv, sv, pv, dv, cfg.cols);
      }
    });
    report.iteration_s.push_back(sim::to_seconds(record.duration));
    report.iteration_traffic.push_back(record.traffic);
    report.compute_traffic += record.traffic;
    std::swap(in, out);
    co_yield 0;
  }
  rt.device_synchronize();
  // Result lives in *in after the final swap. If it sits in the GPU-only
  // ping-pong buffer (odd iteration count), move it back to the unified
  // buffer first, as Rodinia's final D2H copy does.
  if (in == &temp_b) {
    auto rec = rt.launch("hotspot.gather", static_cast<double>(n), [&] {
      auto s = rt.device_span<float>(temp_b);
      auto d = rt.device_span<float>(temp_a.device());
      const float* sv = s.load_run(0, n);
      float* dv = d.store_run(0, n);
      std::copy_n(sv, n, dv);
    });
    report.compute_traffic += rec.traffic;
  }
  temp_a.d2h(rt);
  report.times.compute_s = timer.lap();
  co_yield 0;

  // --- checksum (meta-level, not simulated work) --------------------------------
  {
    Digest d;
    const auto* data = reinterpret_cast<const float*>(temp_a.host().host);
    for (std::uint64_t i = 0; i < n; i += 97) d.add_u64(static_cast<std::uint64_t>(
        quantize(data[i], 1e3)));
    report.checksum = d.value();
  }

  // --- deallocation ---------------------------------------------------------------
  timer.lap();
  temp_a.free(rt);
  rt.free(temp_b);
  power.free(rt);
  report.times.dealloc_s = timer.lap();
  report.times.context_s = timer.context_s();
  co_return report;
}

std::uint64_t hotspot_reference_checksum(const HotspotConfig& cfg) {
  const std::uint64_t n = std::uint64_t{cfg.rows} * cfg.cols;
  std::vector<float> t(n), p(n), t2(n);
  sim::Rng rng{cfg.seed};
  for (std::uint64_t i = 0; i < n; ++i) {
    t[i] = init_temp(rng);
    p[i] = init_power(rng);
  }
  std::vector<float>* in = &t;
  std::vector<float>* out = &t2;
  for (std::uint32_t it = 0; it < cfg.iterations; ++it) {
    for (std::uint32_t r = 0; r < cfg.rows; ++r) {
      const std::uint64_t rn = std::uint64_t{r == 0 ? 0u : r - 1} * cfg.cols;
      const std::uint64_t rs = std::uint64_t{r == cfg.rows - 1 ? r : r + 1} * cfg.cols;
      const std::uint64_t rc = std::uint64_t{r} * cfg.cols;
      float west = (*in)[rc];
      for (std::uint32_t c = 0; c < cfg.cols; ++c) {
        const float cur = (*in)[rc + c];
        const float e = c == cfg.cols - 1 ? cur : (*in)[rc + c + 1];
        (*out)[rc + c] = hotspot_cell(cur, (*in)[rn + c], (*in)[rs + c], west, e,
                                      p[rc + c]);
        west = cur;
      }
    }
    std::swap(in, out);
  }
  Digest d;
  for (std::uint64_t i = 0; i < n; i += 97) {
    d.add_u64(static_cast<std::uint64_t>(quantize((*in)[i], 1e3)));
  }
  return d.value();
}

}  // namespace ghum::apps
