#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "apps/kernel_rows.hpp"
#include "apps/qv_gate.hpp"
#include "benchsupport/scenarios.hpp"
#include "runtime/runtime.hpp"

namespace ghum {
namespace {

namespace bs = benchsupport;
using apps::MemMode;

core::System make_system(std::uint64_t page = pagetable::kSystemPage64K,
                         bool counters = false) {
  return core::System{bs::rodinia_config(page, counters)};
}

/// Runs one app in one mode on a fresh small machine.
template <typename Fn>
apps::AppReport run_mode(MemMode mode, Fn&& fn, bool counters = false) {
  core::System sys{bs::rodinia_config(pagetable::kSystemPage64K, counters)};
  runtime::Runtime rt{sys};
  return fn(rt, mode);
}

// --- correctness against host references, all three memory modes -------------

class AppModes : public ::testing::TestWithParam<MemMode> {};

TEST_P(AppModes, HotspotMatchesReference) {
  const auto cfg = bs::hotspot_config(bs::Scale::kSmall);
  const auto r = run_mode(GetParam(), [&](runtime::Runtime& rt, MemMode m) {
    return apps::run_hotspot(rt, m, cfg);
  });
  EXPECT_EQ(r.checksum, apps::hotspot_reference_checksum(cfg));
}

TEST_P(AppModes, PathfinderMatchesReference) {
  const auto cfg = bs::pathfinder_config(bs::Scale::kSmall);
  const auto r = run_mode(GetParam(), [&](runtime::Runtime& rt, MemMode m) {
    return apps::run_pathfinder(rt, m, cfg);
  });
  EXPECT_EQ(r.checksum, apps::pathfinder_reference_checksum(cfg));
}

TEST_P(AppModes, NeedleMatchesReference) {
  const auto cfg = bs::needle_config(bs::Scale::kSmall);
  const auto r = run_mode(GetParam(), [&](runtime::Runtime& rt, MemMode m) {
    return apps::run_needle(rt, m, cfg);
  });
  EXPECT_EQ(r.checksum, apps::needle_reference_checksum(cfg));
}

TEST_P(AppModes, BfsMatchesReference) {
  const auto cfg = bs::bfs_config(bs::Scale::kSmall);
  const auto r = run_mode(GetParam(), [&](runtime::Runtime& rt, MemMode m) {
    return apps::run_bfs(rt, m, cfg);
  });
  EXPECT_EQ(r.checksum, apps::bfs_reference_checksum(cfg));
}

TEST_P(AppModes, SradMatchesReference) {
  const auto cfg = bs::srad_config(bs::Scale::kSmall);
  const auto r = run_mode(GetParam(), [&](runtime::Runtime& rt, MemMode m) {
    return apps::run_srad(rt, m, cfg);
  });
  EXPECT_EQ(r.checksum, apps::srad_reference_checksum(cfg));
}

TEST_P(AppModes, SradLeavesAZeroVarianceImageUnchanged) {
  // One pixel has zero variance (q0sqr == 0): every diffusion coefficient
  // takes its limit 1 and every derivative is 0, so no iteration changes
  // the image, which stays finite (a NaN pixel would change the checksum).
  apps::SradConfig cfg = bs::srad_config(bs::Scale::kSmall);
  cfg.rows = 1;
  cfg.cols = 1;
  apps::SradConfig untouched = cfg;
  untouched.iterations = 0;
  const auto r = run_mode(GetParam(), [&](runtime::Runtime& rt, MemMode m) {
    return apps::run_srad(rt, m, cfg);
  });
  EXPECT_EQ(r.checksum, apps::srad_reference_checksum(untouched));
  EXPECT_EQ(apps::srad_reference_checksum(cfg), apps::srad_reference_checksum(untouched));
}

TEST_P(AppModes, QvsimMatchesReference) {
  apps::QvConfig cfg = bs::qv_sim_config(bs::Scale::kSmall, 10);
  core::System sys{bs::qv_config(pagetable::kSystemPage64K, false)};
  runtime::Runtime rt{sys};
  const auto r = apps::run_qvsim(rt, GetParam(), cfg);
  EXPECT_EQ(r.checksum, apps::qvsim_reference_checksum(cfg));
}

INSTANTIATE_TEST_SUITE_P(AllModes, AppModes,
                         ::testing::Values(MemMode::kExplicit, MemMode::kManaged,
                                           MemMode::kSystem),
                         [](const auto& info) {
                           return std::string{apps::to_string(info.param)};
                         });

// --- app-specific behaviours ---------------------------------------------------

TEST(Apps, SradIterationCountMatchesConfig) {
  auto cfg = bs::srad_config(bs::Scale::kSmall);
  cfg.iterations = 5;
  const auto r = run_mode(MemMode::kSystem, [&](runtime::Runtime& rt, MemMode m) {
    return apps::run_srad(rt, m, cfg);
  });
  EXPECT_EQ(r.iteration_s.size(), 5u);
  EXPECT_EQ(r.iteration_traffic.size(), 5u);
}

TEST(Apps, SradHostRegisterOptRemovesGpuFaults) {
  auto cfg = bs::srad_config(bs::Scale::kSmall);
  cfg.host_register_opt = true;
  core::System sys{bs::rodinia_config(pagetable::kSystemPage64K, false)};
  runtime::Runtime rt{sys};
  const auto r = apps::run_srad(rt, MemMode::kSystem, cfg);
  EXPECT_EQ(sys.stats().get("os.fault.gpu_first_touch"), 0u);
  EXPECT_EQ(r.checksum, apps::srad_reference_checksum(cfg));
}

TEST(Apps, QvsimNormIsPreservedAcrossDepths) {
  // Unitarity property: the statevector norm stays 1 for any circuit.
  for (std::uint32_t depth : {1u, 2u, 4u}) {
    apps::QvConfig cfg{.qubits = 8, .depth = depth, .seed = 99};
    core::System sys{bs::qv_config(pagetable::kSystemPage64K, false)};
    runtime::Runtime rt{sys};
    const auto r = apps::run_qvsim(rt, MemMode::kExplicit, cfg);
    EXPECT_EQ(r.checksum, apps::qvsim_reference_checksum(cfg)) << "depth " << depth;
  }
}

TEST(Apps, BfsRmatGraphMatchesReferenceAcrossModes) {
  apps::BfsConfig cfg = bs::bfs_config(bs::Scale::kSmall);
  cfg.graph = apps::GraphKind::kRmat;
  const std::uint64_t ref = apps::bfs_reference_checksum(cfg);
  for (MemMode m : {MemMode::kExplicit, MemMode::kManaged, MemMode::kSystem}) {
    core::System sys{bs::rodinia_config(pagetable::kSystemPage64K, false)};
    runtime::Runtime rt{sys};
    EXPECT_EQ(apps::run_bfs(rt, m, cfg).checksum, ref);
  }
}

TEST(Apps, BfsRmatIsMoreIrregularThanSmallWorld) {
  // The hub-skewed R-MAT scatter touches more distinct cachelines per
  // useful byte than the uniform small-world instance: higher C2C read
  // amplification in the system version.
  auto remote_amplification = [](apps::GraphKind kind) {
    apps::BfsConfig cfg = bs::bfs_config(bs::Scale::kSmall);
    cfg.graph = kind;
    core::System sys{bs::rodinia_config(pagetable::kSystemPage64K, false)};
    runtime::Runtime rt{sys};
    const auto r = apps::run_bfs(rt, MemMode::kSystem, cfg);
    return static_cast<double>(r.compute_traffic.c2c_read_bytes +
                               r.compute_traffic.c2c_write_bytes);
  };
  // Both run; exact ratios depend on the instance, so just require the
  // R-MAT run to be a valid, non-degenerate instance.
  EXPECT_GT(remote_amplification(apps::GraphKind::kRmat), 0.0);
  EXPECT_GT(remote_amplification(apps::GraphKind::kSmallWorld), 0.0);
}

TEST(Apps, QvsimExplicitChunkedPipelineMatchesReference) {
  // Statevector (16 * 2^14 B = 256 KiB) far exceeds a 32 KiB-free HBM:
  // the explicit version must switch to Aer's chunk-exchange pipeline and
  // still produce the exact reference statevector.
  apps::QvConfig cfg{.qubits = 14, .depth = 2, .seed = 5};
  core::SystemConfig mc = bs::qv_config(pagetable::kSystemPage64K, false);
  mc.hbm_capacity = 2ull << 20;
  mc.gpu_driver_baseline = 1ull << 20;
  core::System sys{mc};
  runtime::Runtime rt{sys};
  const auto r = apps::run_qvsim(rt, MemMode::kExplicit, cfg);
  EXPECT_EQ(r.checksum, apps::qvsim_reference_checksum(cfg));
  // Chunk staging traffic flowed both ways over the link.
  EXPECT_GT(sys.machine().c2c().bytes_moved(interconnect::Direction::kCpuToGpu),
            16ull << 14);
  EXPECT_GT(sys.machine().c2c().bytes_moved(interconnect::Direction::kGpuToCpu),
            16ull << 14);
  // Everything released.
  EXPECT_EQ(sys.machine().frames(mem::Node::kGpu).used(), 1ull << 20);
}

TEST(Apps, QvsimExplicitChunkedAcrossChunkWidths) {
  // Sweep HBM sizes so the chunk width and the number of coupled chunks
  // per gate (1, 2, 4) all get exercised.
  for (const std::uint64_t hbm_mib : {1ull, 2ull, 4ull}) {
    apps::QvConfig cfg{.qubits = 12, .depth = 3, .seed = 11};
    core::SystemConfig mc = bs::qv_config(pagetable::kSystemPage64K, false);
    mc.hbm_capacity = hbm_mib << 20;
    mc.gpu_driver_baseline = 512ull << 10;
    core::System sys{mc};
    runtime::Runtime rt{sys};
    const auto r = apps::run_qvsim(rt, MemMode::kExplicit, cfg);
    EXPECT_EQ(r.checksum, apps::qvsim_reference_checksum(cfg)) << hbm_mib;
  }
}

TEST(Apps, QvHeavyOutputProbabilityMatchesTheProtocolBand) {
  // Random QV circuits have ideal heavy-output probability converging to
  // (1 + ln 2)/2 ~ 0.85; any sane instance sits well above the 2/3
  // passing threshold. Identical across memory modes by construction.
  apps::QvConfig cfg{.qubits = 10, .depth = 10, .seed = 77};
  double hop[3];
  int i = 0;
  for (MemMode m : {MemMode::kExplicit, MemMode::kManaged, MemMode::kSystem}) {
    core::System sys{bs::qv_config(pagetable::kSystemPage64K, false)};
    runtime::Runtime rt{sys};
    hop[i++] = apps::qv_heavy_output_probability(rt, m, cfg);
  }
  EXPECT_GT(hop[0], 2.0 / 3.0);
  EXPECT_LT(hop[0], 1.0);
  EXPECT_NEAR(hop[0], 0.85, 0.08);
  EXPECT_DOUBLE_EQ(hop[0], hop[1]);
  EXPECT_DOUBLE_EQ(hop[1], hop[2]);
}

TEST(Apps, QvsimGateCountMatchesQvDefinition) {
  apps::QvConfig cfg{.qubits = 9, .depth = 4, .seed = 1};
  const auto gates = apps::qv_circuit(cfg);
  // floor(9/2) = 4 gates per layer, 4 layers.
  EXPECT_EQ(gates.size(), 16u);
  for (const auto& g : gates) {
    EXPECT_LT(g.p, g.q);
    EXPECT_LT(g.q, cfg.qubits);
  }
}

TEST(Apps, QvsimStatevectorBytesMatchPaperFormula) {
  // Paper Section 3.1: the statevector needs 8 * 2^N bytes (complex float)
  // — our double-precision backend doubles that.
  apps::QvConfig cfg{.qubits = 12, .depth = 1, .seed = 3};
  core::System sys{bs::qv_config(pagetable::kSystemPage64K, false)};
  sys.machine().events().set_enabled(true);
  runtime::Runtime rt{sys};
  (void)apps::run_qvsim(rt, MemMode::kSystem, cfg);
  bool found = false;
  for (const auto& e : sys.events().events()) {
    if (e.type == sim::EventType::kAllocation && e.bytes == (16ull << 12)) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

// --- the shared qvsim gate body, bit for bit -----------------------------------
//
// qvsim's checksum samples every (n/64 + 1)-th amplitude, rounded to 1e-7,
// so it cannot see a reordered sum. These tests compare whole statevectors
// byte for byte with a naive gate loop that reads every operand through
// the GateSpec.

constexpr std::uint32_t kGateQubits = 7;

void naive_gate(const apps::GateSpec& g, std::vector<apps::amp_t>& sv) {
  for (std::uint64_t grp = 0; grp < sv.size() / 4; ++grp) {
    const std::uint64_t low = grp & ((1ull << g.p) - 1);
    const std::uint64_t mid = (grp >> g.p) & ((1ull << (g.q - 1 - g.p)) - 1);
    const std::uint64_t i00 = low | (mid << (g.p + 1)) | ((grp >> (g.q - 1)) << (g.q + 1));
    apps::amp_t& a0 = sv[i00];
    apps::amp_t& a1 = sv[i00 | (1ull << g.p)];
    apps::amp_t& a2 = sv[i00 | (1ull << g.q)];
    apps::amp_t& a3 = sv[i00 | (1ull << g.p) | (1ull << g.q)];
    const apps::amp_t b0 = g.u[0] * a0 + g.u[1] * a1 + g.u[2] * a2 + g.u[3] * a3;
    const apps::amp_t b1 = g.u[4] * a0 + g.u[5] * a1 + g.u[6] * a2 + g.u[7] * a3;
    const apps::amp_t b2 = g.u[8] * a0 + g.u[9] * a1 + g.u[10] * a2 + g.u[11] * a3;
    const apps::amp_t b3 = g.u[12] * a0 + g.u[13] * a1 + g.u[14] * a2 + g.u[15] * a3;
    a0 = b0;
    a1 = b1;
    a2 = b2;
    a3 = b3;
  }
}

apps::amp_t random_amp(sim::Rng& rng) {
  return {rng.next_double(-1.0, 1.0), rng.next_double(-1.0, 1.0)};
}

/// A random state and a random gate on qubits (p, q); the matrix need not
/// be unitary for a bitwise comparison.
std::pair<std::vector<apps::amp_t>, apps::GateSpec> random_case(sim::Rng& rng,
                                                                std::uint32_t p,
                                                                std::uint32_t q) {
  std::vector<apps::amp_t> sv(1ull << kGateQubits);
  for (auto& a : sv) a = random_amp(rng);
  apps::GateSpec g{.p = p, .q = q};
  for (auto& e : g.u) e = random_amp(rng);
  return {std::move(sv), g};
}

bool same_bytes(const std::vector<apps::amp_t>& a, const std::vector<apps::amp_t>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(apps::amp_t)) == 0;
}

TEST(QvGate, SharedGateMatchesNaiveLoopBitForBitOnEveryQubitPair) {
  sim::Rng rng{2024};
  for (std::uint32_t q = 1; q < kGateQubits; ++q) {
    for (std::uint32_t p = 0; p < q; ++p) {
      auto [sv, g] = random_case(rng, p, q);
      std::vector<apps::amp_t> expect = sv;
      naive_gate(g, expect);
      apps::RawLane lane{sv.data()};
      apps::LaneAmps<apps::RawLane> amps{{&lane, &lane, &lane, &lane}};
      apps::apply_gate(g, 0, sv.size() / 4, amps);
      EXPECT_TRUE(same_bytes(sv, expect)) << "p=" << p << " q=" << q;
    }
  }
}

TEST(QvGate, ChunkedGateMatchesNaiveLoopBitForBit) {
  // Every chunk width the pipeline can pick for 7 qubits, so that a gate
  // couples 0, 1 or 2 chunk bits. Each chunk group is staged into lanes of
  // its own and written back, as the pipeline's copies do.
  sim::Rng rng{4048};
  bool coupled_seen[3] = {false, false, false};
  for (std::uint32_t c = 2; c <= kGateQubits - 2; ++c) {
    const std::uint64_t chunk_amps = 1ull << c;
    for (std::uint32_t q = 1; q < kGateQubits; ++q) {
      for (std::uint32_t p = 0; p < q; ++p) {
        auto [sv, g] = random_case(rng, p, q);
        std::vector<apps::amp_t> expect = sv;
        naive_gate(g, expect);
        const apps::ChunkGroups layout{g, kGateQubits, c};
        const std::uint32_t members = layout.members();
        coupled_seen[members / 2] = true;
        for (std::uint64_t ghigh = 0; ghigh < layout.count(); ++ghigh) {
          const std::array<std::uint64_t, 4> chunks = layout.member_chunks(ghigh);
          std::vector<apps::amp_t> staged[4];
          apps::RawLane lanes[4];
          for (std::uint32_t m = 0; m < members; ++m) {
            const auto from = sv.begin() + static_cast<std::ptrdiff_t>(chunks[m] * chunk_amps);
            staged[m].assign(from, from + static_cast<std::ptrdiff_t>(chunk_amps));
            lanes[m].data = staged[m].data();
          }
          apps::ChunkAmps<apps::RawLane> amps{lanes, chunks, members, c};
          const std::uint64_t first = layout.first_group(ghigh);
          apps::apply_gate(g, first, first + layout.amp_groups(), amps);
          for (std::uint32_t m = 0; m < members; ++m) {
            std::copy(staged[m].begin(), staged[m].end(),
                      sv.begin() + static_cast<std::ptrdiff_t>(chunks[m] * chunk_amps));
          }
        }
        EXPECT_TRUE(same_bytes(sv, expect)) << "c=" << c << " p=" << p << " q=" << q;
      }
    }
  }
  EXPECT_TRUE(coupled_seen[0] && coupled_seen[1] && coupled_seen[2]);
}

// The in-memory kernel accounts each run of groups with one account() call.
// This test runs the same launches through lanes that account every group
// through Span::load()/store() instead, on a fresh System each, and compares
// everything the memory model reports plus the statevector's bytes.

/// The in-memory kernel's four lanes, without run(): apply_gate() accounts
/// every group through load()/store().
struct PerGroupSpanAmps {
  runtime::Span<apps::amp_t>* lane[4];

  const apps::amp_t* load(int j, std::uint64_t i) {
    (void)lane[j]->load(i);
    return lane[j]->raw() + i;
  }
  void store(int j, std::uint64_t i, const apps::amp_t& v) { lane[j]->store(i, v); }
};

struct GateRun {
  std::uint64_t digest = 0;
  sim::Picos end = 0;
  std::vector<cache::KernelTraffic> traffic;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<apps::amp_t> sv;
};

/// A random \p qubits-qubit state written by a GPU init kernel, then one
/// qv.gate launch per gate, each with one Span per group member as
/// qvsim's in-memory kernel has.
GateRun run_gates(core::SystemConfig cfg, MemMode mode, std::uint32_t qubits,
                  const std::vector<apps::GateSpec>& gates, bool per_group) {
  cfg.event_log = true;
  core::System sys{cfg};
  runtime::Runtime rt{sys};
  const std::uint64_t n = 1ull << qubits;
  apps::UnifiedBuffer sv = apps::UnifiedBuffer::create(rt, mode, n * sizeof(apps::amp_t), "sv");
  sim::Rng rng{qubits};
  (void)rt.launch("qv.init", static_cast<double>(n), [&] {
    auto a = rt.device_span<apps::amp_t>(sv.device());
    apps::amp_t* av = a.store_run(0, n);
    for (std::uint64_t i = 0; i < n; ++i) av[i] = random_amp(rng);
  });
  GateRun out;
  for (const apps::GateSpec& g : gates) {
    const cache::KernelRecord rec = rt.launch("qv.gate", static_cast<double>(n / 4) * 120, [&] {
      auto s00 = rt.device_span<apps::amp_t>(sv.device());
      auto s01 = rt.device_span<apps::amp_t>(sv.device());
      auto s10 = rt.device_span<apps::amp_t>(sv.device());
      auto s11 = rt.device_span<apps::amp_t>(sv.device());
      if (per_group) {
        PerGroupSpanAmps amps{{&s00, &s01, &s10, &s11}};
        apps::apply_gate(g, 0, n / 4, amps);
      } else {
        apps::LaneAmps<runtime::Span<apps::amp_t>> amps{{&s00, &s01, &s10, &s11}};
        apps::apply_gate(g, 0, n / 4, amps);
      }
    });
    out.traffic.push_back(rec.traffic);
  }
  out.end = sys.now();
  out.digest = sys.events().digest(sys.now());
  for (const auto& [name, v] : sys.stats().snapshot()) out.counters.emplace_back(name, v);
  const auto* amps = reinterpret_cast<const apps::amp_t*>(sv.device().host);
  out.sv.assign(amps, amps + n);
  return out;
}

std::uint64_t counter_of(const GateRun& r, std::string_view name) {
  for (const auto& [n, v] : r.counters) {
    if (n == name) return v;
  }
  return 0;
}

/// Runs \p gates both ways and expects the two runs to agree; returns the
/// run-accounted one.
GateRun expect_same_accounting(const core::SystemConfig& cfg, MemMode mode,
                               std::uint32_t qubits, const std::vector<apps::GateSpec>& gates) {
  const GateRun runs = run_gates(cfg, mode, qubits, gates, /*per_group=*/false);
  const GateRun groups = run_gates(cfg, mode, qubits, gates, /*per_group=*/true);
  EXPECT_EQ(runs.digest, groups.digest);
  EXPECT_EQ(runs.end, groups.end);
  EXPECT_EQ(runs.traffic, groups.traffic);
  EXPECT_EQ(runs.counters, groups.counters);
  EXPECT_TRUE(same_bytes(runs.sv, groups.sv)) << "statevectors differ";
  return runs;
}

TEST(QvGate, SpanKernelMatchesPerGroupAccounting) {
  sim::Rng rng{8096};
  auto random_gate = [&](std::uint32_t p, std::uint32_t q) {
    apps::GateSpec g{.p = p, .q = q};
    for (auto& e : g.u) e = random_amp(rng);
    return g;
  };
  // Every qubit pair of a 9-qubit state, one launch each, in every mode at
  // 4 KiB pages.
  constexpr std::uint32_t kQubits = 9;
  std::vector<apps::GateSpec> every_pair;
  for (std::uint32_t q = 1; q < kQubits; ++q) {
    for (std::uint32_t p = 0; p < q; ++p) every_pair.push_back(random_gate(p, q));
  }
  const core::SystemConfig cfg = bs::qv_config(pagetable::kSystemPage4K, false);
  for (const MemMode mode : {MemMode::kExplicit, MemMode::kManaged, MemMode::kSystem}) {
    SCOPED_TRACE(apps::to_string(mode));
    (void)expect_same_accounting(cfg, mode, kQubits, every_pair);
  }
  // A managed 8 MiB statevector (four 2 MiB blocks) on 5 MiB of HBM: the
  // lanes fault blocks in and evict each other's, and runs of 2^9 groups
  // and more cross pages.
  SCOPED_TRACE("managed, oversubscribed");
  core::SystemConfig small = cfg;
  small.hbm_capacity = 5ull << 20;
  small.gpu_driver_baseline = 0;
  const std::vector<apps::GateSpec> gates = {random_gate(17, 18), random_gate(10, 17),
                                             random_gate(2, 18), random_gate(9, 16),
                                             random_gate(0, 1)};
  const GateRun r = expect_same_accounting(small, MemMode::kManaged, 19, gates);
  EXPECT_GT(counter_of(r, "driver.managed.gpu_faults"), 0u);
  EXPECT_GT(counter_of(r, "driver.managed.evictions"), 0u);
}

// --- the stencil and DP kernel rows, bit for bit ------------------------------
//
// The apps' checksums sample every 97th or 101st cell, rounded, so they
// cannot see a lane that computes a cell differently. These tests compare
// every output of the row functions byte for byte with the per-column
// loops they replaced, copied here verbatim, at widths where the blocked
// main loop is empty, one block, or a block followed by a remainder.

constexpr std::uint32_t kRowWidths[] = {1, 2, 3, 4, 15, 16, 17, 18, 33, 100};

std::vector<float> random_floats(sim::Rng& rng, std::uint32_t n, double lo, double hi) {
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.next_double(lo, hi));
  return v;
}

std::vector<int> random_ints(sim::Rng& rng, std::uint32_t n, std::uint64_t bound) {
  std::vector<int> v(n);
  for (int& x : v) x = static_cast<int>(rng.next_below(bound));
  return v;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// srad1's per-column loop; je is jc + 1 and west0 is jc[0].
void srad1_per_column(const float* jc, const float* je, const float* jn, const float* js,
                      float* vn, float* vs, float* vw, float* ve, float* cv, float west0,
                      std::uint32_t cols, float q0sqr) {
  const std::uint32_t last = cols - 1;
  for (std::uint32_t cc = 0; cc < cols; ++cc) {
    const float c = jc[cc];
    const float vdn = jn[cc] - c;
    const float vds = js[cc] - c;
    const float vdw = (cc == 0 ? west0 : jc[cc - 1]) - c;
    const float vde = (cc == last ? c : je[cc]) - c;
    vn[cc] = vdn;
    vs[cc] = vds;
    vw[cc] = vdw;
    ve[cc] = vde;
    const float g2 =
        (vdn * vdn + vds * vds + vdw * vdw + vde * vde) / (c * c);
    const float l = (vdn + vds + vdw + vde) / c;
    const float num = 0.5f * g2 - (1.0f / 16.0f) * l * l;
    const float den = 1.0f + 0.25f * l;
    const float qsqr = num / (den * den);
    const float coef = 1.0f / (1.0f + (qsqr - q0sqr) / (q0sqr * (1.0f + q0sqr)));
    cv[cc] = coef < 0.0f ? 0.0f : (coef > 1.0f ? 1.0f : coef);
  }
}

// srad2's per-column loop; ce is ch + 1, and jr and jw are the same row.
void srad2_per_column(const float* ch, const float* cs, const float* ce, const float* vs,
                      const float* vn, const float* ve, const float* vw, const float* jr,
                      float* jw, std::uint32_t cols, float step) {
  const std::uint32_t last = cols - 1;
  for (std::uint32_t cc = 0; cc < cols; ++cc) {
    const float c_here = ch[cc];
    const float c_east = cc == last ? c_here : ce[cc];
    const float div = cs[cc] * vs[cc] + c_here * vn[cc] + c_east * ve[cc] +
                      c_here * vw[cc];
    jw[cc] = jr[cc] + step * div;
  }
}

// HotSpot's cell function and per-column loop; ev is cv + 1 and west0 is
// cv[0].
float step_cell(float c, float n, float s, float w, float e, float p) {
  constexpr float kCap = 0.5f;
  constexpr float kRxInv = 0.1f;
  constexpr float kRyInv = 0.1f;
  constexpr float kRzInv = 0.0333f;
  constexpr float kAmb = 80.0f;
  const float delta = kCap * (p + (n + s - 2.0f * c) * kRyInv +
                              (w + e - 2.0f * c) * kRxInv + (kAmb - c) * kRzInv);
  return c + delta;
}

void hotspot_per_column(const float* cv, const float* ev, const float* pv, const float* sv,
                        const float* nv, float* dv, float west0, std::uint32_t cols) {
  const std::uint32_t last = cols - 1;
  for (std::uint32_t c = 0; c < cols; ++c) {
    const float cur = cv[c];
    dv[c] = step_cell(cur, nv[c], sv[c], c == 0 ? west0 : cv[c - 1],
                      c == last ? cur : ev[c], pv[c]);
  }
}

// pathfinder's sliding window over the previous row s.
void pathfinder_per_column(const int* s, const int* w, int* d, std::uint32_t cols) {
  int left = s[0];
  int center = s[0];
  int right = cols > 1 ? s[1] : center;
  const std::uint32_t tail = std::min<std::uint32_t>(cols, 2);
  const std::uint32_t body = cols - tail;
  auto relax = [&](const int* wv, int* dv, const int* next, std::uint32_t count) {
    for (std::uint32_t c = 0; c < count; ++c) {
      dv[c] = wv[c] + std::min(std::min(left, center), right);
      left = center;
      center = right;
      right = next != nullptr ? next[c] : center;
    }
  };
  if (body > 0) relax(w, d, s + 2, body);
  relax(w + body, d + body, nullptr, tail);
}

TEST(KernelRows, Srad1RowsMatchPerColumnLoopBitForBit) {
  // A negative q0sqr drives the coefficient below 0, a large one (against
  // smooth rows) above 1. At 0 (a zero-variance image) the per-column
  // formula is 0/0 and the row gives the limit, 1.
  sim::Rng rng{2201};
  std::uint32_t below = 0, above = 0;
  for (const float q0sqr : {-0.5f, 0.0f, 0.05f, 0.5f, 4.0f}) {
    for (const std::uint32_t cols : kRowWidths) {
      SCOPED_TRACE(testing::Message() << "q0sqr=" << q0sqr << " cols=" << cols);
      const std::vector<float> j = random_floats(rng, cols, 0.5, 3.0);
      const std::vector<float> jn = random_floats(rng, cols, 0.5, 3.0);
      const std::vector<float> js = random_floats(rng, cols, 0.5, 3.0);
      std::vector<float> want[5], got[5];
      for (int k = 0; k < 5; ++k) want[k] = got[k] = std::vector<float>(cols, -7.0f);
      srad1_per_column(j.data(), j.data() + 1, jn.data(), js.data(), want[0].data(),
                       want[1].data(), want[2].data(), want[3].data(), want[4].data(), j[0],
                       cols, q0sqr);
      apps::srad1_row(j.data(), jn.data(), js.data(), got[0].data(), got[1].data(),
                      got[2].data(), got[3].data(), got[4].data(), cols, q0sqr);
      below += static_cast<std::uint32_t>(std::count(want[4].begin(), want[4].end(), 0.0f));
      above += static_cast<std::uint32_t>(std::count(want[4].begin(), want[4].end(), 1.0f));
      if (q0sqr == 0.0f) want[4].assign(cols, 1.0f);
      for (int k = 0; k < 5; ++k) EXPECT_TRUE(same_bits(got[k], want[k])) << "output " << k;
    }
  }
  EXPECT_GT(below, 0u);
  EXPECT_GT(above, 0u);
}

TEST(KernelRows, SradOnAConstantImageLeavesItUnchanged) {
  // A constant image has zero variance (q0sqr == 0) and zero derivatives:
  // one srad1 + srad2 step must leave every pixel finite and as it was.
  for (const std::uint32_t cols : kRowWidths) {
    SCOPED_TRACE(cols);
    const std::vector<float> j(cols, 1.75f);
    std::vector<float> d[4], coef(cols, -7.0f);
    for (auto& v : d) v.assign(cols, -7.0f);
    apps::srad1_row(j.data(), j.data(), j.data(), d[0].data(), d[1].data(), d[2].data(),
                    d[3].data(), coef.data(), cols, 0.0f);
    EXPECT_EQ(coef, std::vector<float>(cols, 1.0f));
    std::vector<float> out = j;
    apps::srad2_row(coef.data(), coef.data(), d[1].data(), d[0].data(), d[3].data(),
                    d[2].data(), out.data(), cols, 0.125f);
    EXPECT_TRUE(std::all_of(out.begin(), out.end(), [](float v) { return std::isfinite(v); }));
    EXPECT_EQ(out, j);
  }
}

TEST(KernelRows, Srad2RowsMatchPerColumnLoopBitForBit) {
  sim::Rng rng{2202};
  for (const std::uint32_t cols : kRowWidths) {
    SCOPED_TRACE(cols);
    const std::vector<float> ch = random_floats(rng, cols, 0.0, 1.0);
    const std::vector<float> cs = random_floats(rng, cols, 0.0, 1.0);
    std::vector<float> d[4];
    for (auto& v : d) v = random_floats(rng, cols, -2.0, 2.0);
    const std::vector<float> j = random_floats(rng, cols, 0.5, 3.0);
    std::vector<float> want = j, got = j;
    srad2_per_column(ch.data(), cs.data(), ch.data() + 1, d[0].data(), d[1].data(),
                     d[2].data(), d[3].data(), want.data(), want.data(), cols, 0.125f);
    apps::srad2_row(ch.data(), cs.data(), d[0].data(), d[1].data(), d[2].data(), d[3].data(),
                    got.data(), cols, 0.125f);
    EXPECT_TRUE(same_bits(got, want));
  }
}

TEST(KernelRows, HotspotRowsMatchPerColumnLoopBitForBit) {
  sim::Rng rng{2203};
  for (const std::uint32_t cols : kRowWidths) {
    SCOPED_TRACE(cols);
    const std::vector<float> t = random_floats(rng, cols, 323.0, 333.0);
    const std::vector<float> tn = random_floats(rng, cols, 323.0, 333.0);
    const std::vector<float> ts = random_floats(rng, cols, 323.0, 333.0);
    const std::vector<float> p = random_floats(rng, cols, 0.0, 0.5);
    std::vector<float> want(cols, -7.0f), got(cols, -7.0f);
    hotspot_per_column(t.data(), t.data() + 1, p.data(), ts.data(), tn.data(), want.data(),
                       t[0], cols);
    apps::hotspot_row(t.data(), tn.data(), ts.data(), p.data(), got.data(), cols);
    EXPECT_TRUE(same_bits(got, want));
  }
}

TEST(KernelRows, PathfinderRowsMatchPerColumnLoopBitForBit) {
  sim::Rng rng{2204};
  for (const std::uint32_t cols : kRowWidths) {
    SCOPED_TRACE(cols);
    const std::vector<int> prev = random_ints(rng, cols, 1000);
    const std::vector<int> wall = random_ints(rng, cols, 10);
    std::vector<int> want(cols, -7), got(cols, -7);
    pathfinder_per_column(prev.data(), wall.data(), want.data(), cols);
    apps::pathfinder_row(prev.data(), wall.data(), got.data(), cols);
    EXPECT_TRUE(same_bits(got, want));
  }
}

TEST(Apps, ChecksumsIdenticalAcrossModesAndPageSizes) {
  const auto cfg = bs::hotspot_config(bs::Scale::kSmall);
  std::vector<std::uint64_t> sums;
  for (const auto page : {pagetable::kSystemPage4K, pagetable::kSystemPage64K}) {
    for (MemMode m : {MemMode::kExplicit, MemMode::kManaged, MemMode::kSystem}) {
      core::System sys{bs::rodinia_config(page, true)};
      runtime::Runtime rt{sys};
      sums.push_back(apps::run_hotspot(rt, m, cfg).checksum);
    }
  }
  for (std::size_t i = 1; i < sums.size(); ++i) EXPECT_EQ(sums[i], sums[0]);
}

TEST(Apps, ReportsFillAllPhases) {
  const auto r = run_mode(MemMode::kExplicit, [&](runtime::Runtime& rt, MemMode m) {
    return apps::run_hotspot(rt, m, bs::hotspot_config(bs::Scale::kSmall));
  });
  EXPECT_GT(r.times.alloc_s, 0.0);
  EXPECT_GT(r.times.cpu_init_s, 0.0);
  EXPECT_GT(r.times.compute_s, 0.0);
  EXPECT_GT(r.times.dealloc_s, 0.0);
  EXPECT_NEAR(r.times.reported_total_s(),
              r.times.alloc_s + r.times.gpu_init_s + r.times.compute_s +
                  r.times.dealloc_s,
              1e-12);
  EXPECT_GT(r.compute_traffic.l1l2_bytes, 0u);
}

TEST(Apps, UnifiedBufferExplicitModeKeepsHostDevicePair) {
  core::System sys = make_system();
  runtime::Runtime rt{sys};
  auto ub = apps::UnifiedBuffer::create(rt, MemMode::kExplicit, 1 << 12, "x");
  EXPECT_FALSE(ub.unified());
  EXPECT_NE(ub.host().va, ub.device().va);
  reinterpret_cast<int*>(ub.host().host)[0] = 11;
  ub.h2d(rt);
  EXPECT_EQ(reinterpret_cast<int*>(ub.device().host)[0], 11);
  ub.free(rt);
}

TEST(Apps, UnifiedBufferUnifiedModesShareOneBuffer) {
  core::System sys = make_system();
  runtime::Runtime rt{sys};
  auto ub = apps::UnifiedBuffer::create(rt, MemMode::kSystem, 1 << 12, "x");
  EXPECT_TRUE(ub.unified());
  EXPECT_EQ(ub.host().va, ub.device().va);
  ub.h2d(rt);  // no-op, must not throw
  ub.free(rt);
}

}  // namespace
}  // namespace ghum
