#include "apps/qvsim.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "apps/qv_gate.hpp"

namespace ghum::apps {

namespace {

/// Random 4x4 unitary: Gram-Schmidt orthonormalization of a random complex
/// matrix (Haar-ish; exact distribution is irrelevant, unitarity is not).
std::array<amp_t, 16> random_unitary(sim::Rng& rng) {
  std::array<amp_t, 16> m;
  for (auto& v : m) {
    v = amp_t{rng.next_double(-1.0, 1.0), rng.next_double(-1.0, 1.0)};
  }
  // Orthonormalize rows.
  for (int r = 0; r < 4; ++r) {
    for (int prev = 0; prev < r; ++prev) {
      amp_t dot{};
      for (int c = 0; c < 4; ++c) dot += m[r * 4 + c] * std::conj(m[prev * 4 + c]);
      for (int c = 0; c < 4; ++c) m[r * 4 + c] -= dot * m[prev * 4 + c];
    }
    double norm = 0;
    for (int c = 0; c < 4; ++c) norm += std::norm(m[r * 4 + c]);
    norm = std::sqrt(norm);
    for (int c = 0; c < 4; ++c) m[r * 4 + c] /= norm;
  }
  return m;
}

/// Heavy-output probability from a host-readable statevector buffer: the
/// readout pass is accounted (host span), the order statistics are meta.
double measure_hop(runtime::Runtime& rt, const core::Buffer& host_buf,
                   std::uint64_t n) {
  std::vector<double> probs(n);
  (void)rt.host_phase("qv.measure", static_cast<double>(n) * 3, [&] {
    runtime::Span<amp_t> s{rt.system(), host_buf, mem::Node::kCpu};
    const amp_t* sv = s.load_run(0, n);
    for (std::uint64_t i = 0; i < n; ++i) probs[i] = std::norm(sv[i]);
  });
  std::vector<double> sorted = probs;
  const auto mid = sorted.begin() + static_cast<std::ptrdiff_t>(n / 2);
  std::nth_element(sorted.begin(), mid, sorted.end());
  const double median = *mid;
  double heavy = 0;
  for (const double p : probs) {
    if (p > median) heavy += p;
  }
  return heavy;
}

std::uint64_t digest_statevector(const amp_t* sv, std::uint64_t n) {
  Digest d;
  double norm = 0;
  for (std::uint64_t i = 0; i < n; ++i) norm += std::norm(sv[i]);
  d.add_u64(static_cast<std::uint64_t>(quantize(norm, 1e9)));
  for (std::uint64_t i = 0; i < n; i += (n / 64) + 1) {
    d.add_u64(static_cast<std::uint64_t>(quantize(sv[i].real(), 1e7)));
    d.add_u64(static_cast<std::uint64_t>(quantize(sv[i].imag(), 1e7)));
  }
  return d.value();
}

}  // namespace

std::vector<GateSpec> qv_circuit(const QvConfig& cfg) {
  if (cfg.qubits < 2) throw std::invalid_argument{"qvsim: need at least 2 qubits"};
  sim::Rng rng{cfg.seed};
  std::vector<GateSpec> gates;
  std::vector<std::uint32_t> perm(cfg.qubits);
  for (std::uint32_t layer = 0; layer < cfg.depth; ++layer) {
    for (std::uint32_t i = 0; i < cfg.qubits; ++i) perm[i] = i;
    for (std::uint32_t i = cfg.qubits - 1; i > 0; --i) {
      const auto j = static_cast<std::uint32_t>(rng.next_below(i + 1));
      std::swap(perm[i], perm[j]);
    }
    for (std::uint32_t k = 0; k + 1 < cfg.qubits; k += 2) {
      GateSpec g;
      g.p = std::min(perm[k], perm[k + 1]);
      g.q = std::max(perm[k], perm[k + 1]);
      g.u = random_unitary(rng);
      gates.push_back(g);
    }
  }
  return gates;
}

namespace {

/// Chunk-exchange pipeline for the explicit version when the statevector
/// exceeds GPU memory — Qiskit-Aer's behaviour that the paper describes in
/// Section 3.1 ("an explicit exchange of chunks between CPU and GPU in
/// case the circuit's memory requirement exceeds the available memory on
/// the GPU"). The statevector lives in host memory; for each gate the
/// pipeline stages the chunk groups the gate couples (1, 2 or 4 chunks,
/// depending on how many gate qubits exceed the chunk width) through
/// device buffers.
AppCoro qvsim_explicit_chunked_steps(runtime::Runtime& rt, QvConfig cfg,
                                     AppReport report, PhaseTimer& timer,
                                     core::Buffer host_sv) {
  const std::uint32_t nq = cfg.qubits;
  const std::uint64_t n = 1ull << nq;

  // Largest chunk width such that every staged chunk buffer fits in free
  // HBM (two slot sets when double-buffering; at least chunk width 2 so
  // two-qubit gates always fit inside one chunk group).
  const std::uint32_t sets = cfg.pipelined ? 2 : 1;
  std::uint32_t c = nq - 2;
  while (c > 2 &&
         sets * 4 * (sizeof(amp_t) << c) > rt.system().gpu_free_bytes() * 9 / 10) {
    --c;
  }
  const std::uint64_t chunk_amps = 1ull << c;
  const std::uint64_t chunk_bytes = chunk_amps * sizeof(amp_t);

  core::Buffer slots[2][4];
  for (std::uint32_t s = 0; s < sets; ++s) {
    for (int m = 0; m < 4; ++m) {
      slots[s][m] = rt.malloc_device(
          chunk_bytes, "qv.chunk" + std::to_string(s) + "." + std::to_string(m));
    }
  }
  runtime::Stream h2d_stream[2];
  runtime::Stream d2h_stream[2];
  report.times.alloc_s += timer.lap();
  co_yield 0;

  // |0...0> initialized on the host (the chunked backend's statevector is
  // host-resident between stages).
  rt.host_phase("qv.init.host", static_cast<double>(n), [&] {
    auto a = rt.host_span<amp_t>(host_sv);
    a.store(0, amp_t{1.0, 0.0});
    amp_t* av = a.store_run(1, n - 1);
    std::fill_n(av, n - 1, amp_t{});
  });
  report.times.gpu_init_s = timer.lap();
  co_yield 0;

  const std::vector<GateSpec> gates = qv_circuit(cfg);
  for (const GateSpec& g : gates) {
    const sim::Picos gate_start = rt.system().now();
    // Gate qubits above the chunk width couple distinct chunks.
    const ChunkGroups layout{g, nq, c};
    const std::uint64_t kernel_groups = layout.amp_groups();
    const std::uint64_t group_count = layout.count();
    const std::uint32_t members = layout.members();
    cache::KernelTraffic gate_traffic;

    auto stage_h2d = [&](std::uint64_t ghigh, std::uint32_t set) {
      const std::array<std::uint64_t, 4> chunks = layout.member_chunks(ghigh);
      for (std::uint32_t m = 0; m < members; ++m) {
        rt.memcpy_async(slots[set][m], host_sv, chunk_bytes,
                        runtime::CopyKind::kHostToDevice, h2d_stream[set], 0,
                        chunks[m] * chunk_bytes);
      }
    };

    for (std::uint64_t ghigh = 0; ghigh < group_count; ++ghigh) {
      const std::uint32_t set = static_cast<std::uint32_t>(ghigh % sets);
      if (!cfg.pipelined) {
        // Serial staging: wait for the previous writeback, then load.
        rt.stream_synchronize(d2h_stream[set]);
        stage_h2d(ghigh, set);
      } else if (ghigh == 0) {
        stage_h2d(0, 0);  // pipeline prologue
      }
      rt.stream_synchronize(h2d_stream[set]);

      const std::array<std::uint64_t, 4> member_chunk = layout.member_chunks(ghigh);
      auto record = rt.launch(
          "qv.gate.chunked", static_cast<double>(kernel_groups * members) * 120,
          [&] {
            runtime::Span<amp_t> spans[4] = {
                {rt.system(), slots[set][0], mem::Node::kGpu},
                {rt.system(), slots[set][1], mem::Node::kGpu},
                {rt.system(), slots[set][2], mem::Node::kGpu},
                {rt.system(), slots[set][3], mem::Node::kGpu},
            };
            ChunkAmps<runtime::Span<amp_t>> amps{spans, member_chunk, members, c};
            const std::uint64_t first = layout.first_group(ghigh);
            apply_gate(g, first, first + kernel_groups, amps);
          });
      gate_traffic += record.traffic;
      for (std::uint32_t m = 0; m < members; ++m) {
        rt.memcpy_async(host_sv, slots[set][m], chunk_bytes,
                        runtime::CopyKind::kDeviceToHost, d2h_stream[set],
                        member_chunk[m] * chunk_bytes, 0);
      }
      if (cfg.pipelined && ghigh + 1 < group_count) {
        // Prefetch the next group into the other slot set while this
        // group's writeback drains (double buffering).
        const auto nset = static_cast<std::uint32_t>((ghigh + 1) % sets);
        rt.stream_synchronize(d2h_stream[nset]);  // slot reuse hazard
        stage_h2d(ghigh + 1, nset);
      }
    }
    // Gates touch overlapping chunks: all writebacks must land before the
    // next gate stages its inputs.
    for (std::uint32_t s = 0; s < sets; ++s) rt.stream_synchronize(d2h_stream[s]);
    report.iteration_s.push_back(sim::to_seconds(rt.system().now() - gate_start));
    report.iteration_traffic.push_back(gate_traffic);
    report.compute_traffic += gate_traffic;
    co_yield 0;
  }
  rt.device_synchronize();
  report.times.compute_s = timer.lap();
  co_yield 0;

  report.checksum =
      digest_statevector(reinterpret_cast<const amp_t*>(host_sv.host), n);
  if (cfg.measure_hop) report.aux_metric = measure_hop(rt, host_sv, n);

  timer.lap();
  for (std::uint32_t s = 0; s < sets; ++s) {
    for (auto& slot : slots[s]) rt.free(slot);
  }
  rt.free(host_sv);
  report.times.dealloc_s = timer.lap();
  report.times.context_s = timer.context_s();
  co_return report;
}

}  // namespace

AppReport run_qvsim(runtime::Runtime& rt, MemMode mode, const QvConfig& cfg) {
  return drive(qvsim_steps(rt, mode, cfg));
}

AppCoro qvsim_steps(runtime::Runtime& rt, MemMode mode, QvConfig cfg) {
  const std::uint64_t n = 1ull << cfg.qubits;
  const std::uint64_t bytes = n * sizeof(amp_t);

  AppReport report;
  report.app = "qvsim";
  report.mode = mode;
  PhaseTimer timer{rt};

  if (mode == MemMode::kExplicit && bytes + (4u << 20) > rt.system().gpu_free_bytes()) {
    // The statevector does not fit: Aer's chunk-exchange pipeline. The
    // host statevector is pinned so the chunk staging runs at full
    // NVLink-C2C bandwidth — this is the "sophisticated data movement
    // pipeline" whose performance the paper calls ideal (Section 4).
    core::Buffer host_sv = rt.malloc_host(bytes, "qv.statevector.host");
    report.times.alloc_s = timer.lap();
    // Pump the chunk-exchange pipeline as a nested coroutine so its
    // per-gate suspension points surface through this one.
    AppCoro inner = qvsim_explicit_chunked_steps(rt, cfg, std::move(report),
                                                 timer, host_sv);
    while (inner.step()) co_yield 0;
    co_return std::move(inner.report());
  }

  const std::vector<GateSpec> gates = qv_circuit(cfg);

  // Qiskit-Aer keeps the statevector on the device; the in-memory explicit
  // version is cudaMalloc-only (no host mirror needed until readout). We
  // use UnifiedBuffer so the readout path is uniform across modes.
  UnifiedBuffer sv = UnifiedBuffer::create(rt, mode, bytes, "qv.statevector");
  report.times.alloc_s = timer.lap();
  co_yield 0;

  // --- GPU-side initialization: |0...0> ---------------------------------------
  auto rec_init = rt.launch("qv.init", static_cast<double>(n), [&] {
    auto a = rt.device_span<amp_t>(sv.device());
    a.store(0, amp_t{1.0, 0.0});
    amp_t* av = a.store_run(1, n - 1);
    std::fill_n(av, n - 1, amp_t{});
  });
  report.times.gpu_init_s = timer.lap();
  (void)rec_init;
  co_yield 0;

  // --- compute: the QV circuit --------------------------------------------------
  const std::uint64_t groups = n / 4;
  for (std::size_t gi = 0; gi < gates.size(); ++gi) {
    const GateSpec& g = gates[gi];
    if (cfg.prefetch_opt && mode != MemMode::kExplicit) {
      rt.mem_prefetch(sv.device(), 0, bytes, mem::Node::kGpu);
    }
    auto record =
        rt.launch("qv.gate", static_cast<double>(groups) * 120, [&] {
          // One span per group member, each with its own page cursor.
          auto s00 = rt.device_span<amp_t>(sv.device());
          auto s01 = rt.device_span<amp_t>(sv.device());
          auto s10 = rt.device_span<amp_t>(sv.device());
          auto s11 = rt.device_span<amp_t>(sv.device());
          LaneAmps<runtime::Span<amp_t>> amps{{&s00, &s01, &s10, &s11}};
          apply_gate(g, 0, groups, amps);
        });
    report.iteration_s.push_back(sim::to_seconds(record.duration));
    report.iteration_traffic.push_back(record.traffic);
    report.compute_traffic += record.traffic;
    co_yield 0;
  }
  rt.device_synchronize();
  sv.d2h(rt);
  report.times.compute_s = timer.lap();
  co_yield 0;

  report.checksum =
      digest_statevector(reinterpret_cast<const amp_t*>(sv.host().host), n);
  if (cfg.measure_hop) report.aux_metric = measure_hop(rt, sv.host(), n);

  timer.lap();
  sv.free(rt);
  report.times.dealloc_s = timer.lap();
  report.times.context_s = timer.context_s();
  co_return report;
}

double qv_heavy_output_probability(runtime::Runtime& rt, MemMode mode,
                                   const QvConfig& cfg) {
  QvConfig with_measure = cfg;
  with_measure.measure_hop = true;
  return run_qvsim(rt, mode, with_measure).aux_metric;
}

std::uint64_t qvsim_reference_checksum(const QvConfig& cfg) {
  const std::uint64_t n = 1ull << cfg.qubits;
  std::vector<amp_t> sv(n);
  sv[0] = amp_t{1.0, 0.0};
  RawLane lane{sv.data()};
  LaneAmps<RawLane> amps{{&lane, &lane, &lane, &lane}};
  for (const GateSpec& g : qv_circuit(cfg)) apply_gate(g, 0, n / 4, amps);
  return digest_statevector(sv.data(), n);
}

}  // namespace ghum::apps
