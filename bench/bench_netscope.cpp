// Netscope bench (DESIGN.md Section 12): a Comm|Scope-style sweep of the
// inter-node fabric cost model plus a multi-node halo-exchange scaling
// run. Two sections, three gates, nonzero exit on any violation:
//
//   1. Message-size sweep, host and cuda-managed memory: for every size,
//      the protocol the fabric selects and its modeled latency/bandwidth,
//      plus the exact byte boundaries of every protocol crossover (found
//      by binary search on the selection function). Gates:
//        (a) the sweep exercises >= 3 distinct protocol regimes;
//        (b) selection is monotone — growing messages never fall back to
//            an earlier (smaller-message) protocol.
//   2. Halo-exchange scaling: hotspot and srad row-band halo exchange and
//      distributed qvsim chunk exchange over 2/4/8 simulated superchips,
//      each run twice. Gate:
//        (c) bit-for-bit reproducibility — both runs of every cell produce
//            identical digests (per-node event logs + fabric history).
//
// Flags:
//   --smoke       small problem sizes (the ctest "perf" smoke target)
//   --out <file>  output JSON path (default BENCH_netscope.json)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "benchsupport/report.hpp"
#include "benchsupport/scenarios.hpp"
#include "net/fabric.hpp"
#include "net/halo.hpp"

using namespace ghum;
namespace bs = benchsupport;

namespace {

double cost_us(sim::Picos p) { return sim::to_seconds(p) * 1e6; }

double bw_GBps(std::uint64_t bytes, sim::Picos p) {
  const double s = sim::to_seconds(p);
  return s > 0 ? static_cast<double>(bytes) / s / 1e9 : 0.0;
}

// to_string returns views over string literals, so data() is NUL-terminated.
const char* proto_name(net::Protocol p) { return to_string(p).data(); }

struct SweepRow {
  std::uint64_t bytes = 0;
  net::Protocol host_proto{};
  sim::Picos host_cost = 0;
  net::Protocol cuda_proto{};
  sim::Picos cuda_cost = 0;
};

struct Crossover {
  net::Protocol from{};
  net::Protocol to{};
  std::uint64_t bytes = 0;  ///< smallest size selecting `to`
};

/// Exact crossover boundaries of the selection function on [lo, hi]:
/// wherever the protocol differs between two probe points, binary-search
/// the smallest size that flips.
std::vector<Crossover> find_crossovers(const net::Fabric& fab, net::MemType mem,
                                       std::uint64_t lo, std::uint64_t hi) {
  std::vector<Crossover> out;
  std::uint64_t at = lo;
  net::Protocol cur = fab.select(at, mem);
  while (at < hi) {
    std::uint64_t next = std::max(at + 1, at * 2);
    next = std::min(next, hi);
    const net::Protocol p = fab.select(next, mem);
    if (p == cur) {
      at = next;
      continue;
    }
    std::uint64_t a = at, b = next;  // select(a) == cur, select(b) != cur
    while (a + 1 < b) {
      const std::uint64_t m = a + (b - a) / 2;
      if (fab.select(m, mem) == cur) {
        a = m;
      } else {
        b = m;
      }
    }
    out.push_back({cur, fab.select(b, mem), b});
    cur = fab.select(b, mem);
    at = b;
  }
  return out;
}

struct HaloCell {
  const char* app = "";
  std::uint32_t nodes = 0;
  net::MultiNodeResult r;
  bool repro_ok = false;
};

}  // namespace

int main(int argc, char** argv) {
  bs::Scale scale = bs::Scale::kDefault;
  std::string out_path = "BENCH_netscope.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      scale = bs::Scale::kSmall;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out <file>]\n", argv[0]);
      return 2;
    }
  }
  const bool smoke = scale == bs::Scale::kSmall;

  bs::print_figure_header(
      "Netscope", "inter-node fabric protocol sweep + halo-exchange scaling",
      "Comm|Scope-style latency/bandwidth sweep over the UCX protocol "
      "ladder (eager-short / eager-bcopy / zcopy / rendezvous), then "
      "hotspot/srad halo exchange and distributed qvsim chunk exchange "
      "over 2/4/8 simulated superchips, gated bit-for-bit reproducible");

  std::size_t failures = 0;
  const net::NetSpec spec;  // ucx.conf-seeded defaults
  const net::Fabric fab{spec, 2};

  // --- section 1: protocol sweep -------------------------------------------
  const std::uint64_t sweep_max = smoke ? (1ull << 20) : (16ull << 20);
  std::vector<SweepRow> sweep;
  std::printf("protocol sweep (host | cuda-managed)\n");
  std::printf("%10s  %-12s %10s %9s   %-12s %10s %9s\n", "bytes", "host_proto",
              "host_us", "host_GBs", "cuda_proto", "cuda_us", "cuda_GBs");
  for (std::uint64_t b = 8; b <= sweep_max; b *= 2) {
    SweepRow r;
    r.bytes = b;
    r.host_proto = fab.select(b, net::MemType::kHost);
    r.host_cost = fab.cost(r.host_proto, b, net::MemType::kHost);
    r.cuda_proto = fab.select(b, net::MemType::kCudaManaged);
    r.cuda_cost = fab.cost(r.cuda_proto, b, net::MemType::kCudaManaged);
    sweep.push_back(r);
    std::printf("%10llu  %-12s %10.3f %9.2f   %-12s %10.3f %9.2f\n",
                static_cast<unsigned long long>(b), proto_name(r.host_proto),
                cost_us(r.host_cost), bw_GBps(b, r.host_cost),
                proto_name(r.cuda_proto), cost_us(r.cuda_cost),
                bw_GBps(b, r.cuda_cost));
    std::printf("data\tsweep\t%llu\t%s\t%.4f\t%s\t%.4f\n",
                static_cast<unsigned long long>(b), proto_name(r.host_proto),
                cost_us(r.host_cost), proto_name(r.cuda_proto),
                cost_us(r.cuda_cost));
  }

  // Gate (a): >= 3 distinct regimes on the host sweep.
  bool seen[net::kProtocols] = {};
  for (const SweepRow& r : sweep) seen[static_cast<std::size_t>(r.host_proto)] = true;
  std::size_t regimes = 0;
  for (const bool s : seen) regimes += s ? 1 : 0;
  const bool regimes_ok = regimes >= 3;
  if (!regimes_ok) {
    ++failures;
    std::fprintf(stderr, "  only %zu protocol regimes in the sweep (< 3)\n",
                 regimes);
  }

  // Gate (b): protocol index monotone non-decreasing in message size.
  bool monotone_ok = true;
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    if (sweep[i].host_proto < sweep[i - 1].host_proto ||
        sweep[i].cuda_proto < sweep[i - 1].cuda_proto) {
      monotone_ok = false;
    }
  }
  if (!monotone_ok) {
    ++failures;
    std::fprintf(stderr, "  protocol selection is not monotone in size\n");
  }

  const std::vector<Crossover> host_cross =
      find_crossovers(fab, net::MemType::kHost, 8, sweep_max);
  const std::vector<Crossover> cuda_cross =
      find_crossovers(fab, net::MemType::kCudaManaged, 8, sweep_max);
  std::printf("\nexact crossovers (host)\n");
  for (const Crossover& c : host_cross) {
    std::printf("  %-12s -> %-12s at %llu bytes\n", proto_name(c.from),
                proto_name(c.to), static_cast<unsigned long long>(c.bytes));
  }
  std::printf("exact crossovers (cuda-managed)\n");
  for (const Crossover& c : cuda_cross) {
    std::printf("  %-12s -> %-12s at %llu bytes\n", proto_name(c.from),
                proto_name(c.to), static_cast<unsigned long long>(c.bytes));
  }
  std::printf("protocol regimes: %zu  monotone: %s\n", regimes,
              monotone_ok ? "ok" : "FAIL");

  // --- section 2: multi-node halo scaling ----------------------------------
  core::SystemConfig node_cfg =
      bs::rodinia_config(pagetable::kSystemPage64K, false);
  node_cfg.event_log = true;

  apps::HotspotConfig hs = bs::hotspot_config(scale);
  apps::SradConfig sr = bs::srad_config(scale);
  if (smoke) {
    hs.iterations = 4;
    sr.iterations = 4;
  }
  const apps::QvConfig qv = bs::qv_sim_config(scale, smoke ? 10 : 14);

  std::vector<HaloCell> cells;
  std::printf("\nhalo-exchange scaling (two runs per cell, digests gated)\n");
  std::printf("%-8s %6s %12s %12s %8s %12s %7s\n", "app", "nodes",
              "makespan_ms", "net_wait_ms", "msgs", "net_bytes", "repro");
  for (const std::uint32_t n : {2u, 4u, 8u}) {
    net::MultiNodeConfig mc;
    mc.nodes = n;
    mc.mode = apps::MemMode::kManaged;
    mc.node_config = node_cfg;
    mc.net = spec;

    const auto run_cell = [&](const char* app, auto&& fn) {
      HaloCell c;
      c.app = app;
      c.nodes = n;
      c.r = fn();
      const net::MultiNodeResult again = fn();
      c.repro_ok = c.r.digest == again.digest && c.r.checksum == again.checksum;
      if (!c.repro_ok) {
        ++failures;
        std::fprintf(stderr, "  %s/%u NOT reproducible: %016llx vs %016llx\n",
                     app, n, static_cast<unsigned long long>(c.r.digest),
                     static_cast<unsigned long long>(again.digest));
      }
      if (c.r.net.total_msgs() == 0 || c.r.exchanges == 0) {
        ++failures;
        std::fprintf(stderr, "  %s/%u moved no fabric traffic\n", app, n);
      }
      std::printf("%-8s %6u %12.3f %12.3f %8llu %12llu %7s\n", app, n,
                  sim::to_milliseconds(c.r.makespan),
                  sim::to_milliseconds(c.r.net_wait),
                  static_cast<unsigned long long>(c.r.net.total_msgs()),
                  static_cast<unsigned long long>(c.r.net.total_bytes()),
                  c.repro_ok ? "ok" : "FAIL");
      std::printf("data\thalo\t%s\t%u\t%.4f\t%.4f\t%llu\t%llu\n", app, n,
                  sim::to_milliseconds(c.r.makespan),
                  sim::to_milliseconds(c.r.net_wait),
                  static_cast<unsigned long long>(c.r.net.total_msgs()),
                  static_cast<unsigned long long>(c.r.net.total_bytes()));
      cells.push_back(std::move(c));
    };

    run_cell("hotspot", [&] { return net::run_hotspot_halo(mc, hs); });
    run_cell("srad", [&] { return net::run_srad_halo(mc, sr); });
    run_cell("qvsim", [&] { return net::run_qv_chunks(mc, qv); });
  }

  const bool repro_ok =
      std::all_of(cells.begin(), cells.end(),
                  [](const HaloCell& c) { return c.repro_ok; });
  const bs::Gates gates = {
      {"regimes", regimes_ok}, {"monotone", monotone_ok}, {"halo-repro", repro_ok}};
  std::printf("\n");
  bs::print_gates(gates);

  if (!bs::write_artifact(out_path, [&](std::FILE* f) {
        std::fprintf(f, "{\n  \"bench\": \"netscope\",\n  \"scale\": \"%s\",\n",
                     smoke ? "small" : "default");
        std::fprintf(f, "  \"sweep\": [\n");
        for (std::size_t i = 0; i < sweep.size(); ++i) {
          const SweepRow& r = sweep[i];
          std::fprintf(f,
                       "    {\"bytes\": %llu, \"host_proto\": \"%s\", "
                       "\"host_us\": %.4f, \"cuda_proto\": \"%s\", "
                       "\"cuda_us\": %.4f}%s\n",
                       static_cast<unsigned long long>(r.bytes),
                       proto_name(r.host_proto), cost_us(r.host_cost),
                       proto_name(r.cuda_proto), cost_us(r.cuda_cost),
                       i + 1 < sweep.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n  \"crossovers_host\": [\n");
        for (std::size_t i = 0; i < host_cross.size(); ++i) {
          const Crossover& c = host_cross[i];
          std::fprintf(f,
                       "    {\"from\": \"%s\", \"to\": \"%s\", \"bytes\": %llu}%s\n",
                       proto_name(c.from), proto_name(c.to),
                       static_cast<unsigned long long>(c.bytes),
                       i + 1 < host_cross.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n  \"halo\": [\n");
        for (std::size_t i = 0; i < cells.size(); ++i) {
          const HaloCell& c = cells[i];
          std::fprintf(f,
                       "    {\"app\": \"%s\", \"nodes\": %u, "
                       "\"makespan_ms\": %.4f, \"net_wait_ms\": %.4f, "
                       "\"msgs\": %llu, \"bytes\": %llu, \"rndv_handshakes\": "
                       "%llu, \"digest\": \"%016llx\", \"repro_ok\": %s}%s\n",
                       c.app, c.nodes, sim::to_milliseconds(c.r.makespan),
                       sim::to_milliseconds(c.r.net_wait),
                       static_cast<unsigned long long>(c.r.net.total_msgs()),
                       static_cast<unsigned long long>(c.r.net.total_bytes()),
                       static_cast<unsigned long long>(c.r.net.rndv_handshakes),
                       static_cast<unsigned long long>(c.r.digest),
                       c.repro_ok ? "true" : "false",
                       i + 1 < cells.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n");
        bs::json_gates(f, gates);
        std::fprintf(f, "  \"protocol_regimes\": %zu,\n", regimes);
        bs::json_tail(f, failures);
      })) {
    return 1;
  }

  return bs::verdict("netscope", failures);
}
