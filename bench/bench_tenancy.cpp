// Multi-tenant co-run matrix (DESIGN.md Section 8): 1..8 tenants drawn
// from {qvsim-20q/managed, hotspot/managed, bfs/managed} share one
// simulated superchip (the 24 MiB-HBM QV machine) under the
// min-local-time co-scheduler. Reported per row: per-tenant slowdown vs
// the tenant's solo run, aggregate throughput, cross-tenant eviction
// counts from the attribution matrix, and a bit-for-bit reproducibility
// column (two identical runs must agree on end time and event digest).
//
// The designated interference row is the first with two qvsim tenants:
// two 20-qubit managed statevectors (16 MiB each) cannot share the 23 MiB
// of free HBM, so each tenant's gate kernels evict the other's resident
// blocks — the bench exits nonzero if that row shows no cross-tenant
// eviction, or if any row fails to reproduce.
//
// Flags:
//   --smoke          small satellite apps + tenant counts {1, 2, 4}
//   --out <file>     output JSON path (default BENCH_tenancy.json)

#include <cstdio>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "benchsupport/report.hpp"
#include "benchsupport/scenarios.hpp"
#include "tenant/scheduler.hpp"

using namespace ghum;
namespace bs = benchsupport;

namespace {

struct TenantKind {
  std::string name;
  std::uint64_t footprint = 0;
  std::function<apps::AppCoro(runtime::Runtime&)> make;
};

std::vector<TenantKind> tenant_mix(bool smoke) {
  const bs::Scale scale = smoke ? bs::Scale::kSmall : bs::Scale::kDefault;
  std::vector<TenantKind> v;
  // qvsim leads the rotation: the 20-qubit managed statevector is the
  // oversubscription driver (16 MiB on 23 MiB of free HBM — one fits, two
  // cannot), independent of the smoke scale.
  v.push_back({"qvsim20/managed", 17ull << 20, [scale](runtime::Runtime& rt) {
                 return apps::qvsim_steps(rt, apps::MemMode::kManaged,
                                          bs::qv_sim_config(scale, 20));
               }});
  v.push_back({"hotspot/managed", (smoke ? 1ull : 13ull) << 20,
               [scale](runtime::Runtime& rt) {
                 return apps::hotspot_steps(rt, apps::MemMode::kManaged,
                                            bs::hotspot_config(scale));
               }});
  v.push_back({"bfs/managed", (smoke ? 1ull : 10ull) << 20,
               [scale](runtime::Runtime& rt) {
                 return apps::bfs_steps(rt, apps::MemMode::kManaged,
                                        bs::bfs_config(scale));
               }});
  return v;
}

core::SystemConfig machine() {
  core::SystemConfig cfg = bs::qv_config(pagetable::kSystemPage64K, false);
  cfg.event_log = true;
  // Headroom so eight co-resident tenants contend for HBM, not for DDR:
  // the interference under study is GPU-memory pressure.
  cfg.ddr_capacity = 256ull << 20;
  return cfg;
}

struct TenantOutcome {
  std::string name;
  Status status = Status::kSuccess;
  sim::Picos duration = 0;  ///< finished_at - started_at
  std::uint64_t evictions_suffered = 0;
  std::uint64_t evictions_caused = 0;
};

struct RowOutcome {
  sim::Picos end = 0;
  std::uint64_t digest = 0;
  std::vector<TenantOutcome> tenants;
  std::uint64_t cross_evictions = 0;
  std::uint64_t cross_evicted_bytes = 0;
  std::string matrix;
};

RowOutcome run_row(std::size_t n, const std::vector<TenantKind>& mix) {
  core::System sys{machine()};
  // Pre-warm the GPU context: the 8 ms one-time charge otherwise lands in
  // whichever tenant's quantum touches the GPU first, inflating solo
  // baselines relative to co-run tenants that ride on a warmed machine.
  sys.ensure_gpu_context();
  const sim::Picos t0 = sys.now();
  tenant::Scheduler sched{sys};
  for (std::size_t i = 0; i < n; ++i) {
    const TenantKind& k = mix[i % mix.size()];
    tenant::JobSpec spec;
    spec.name = k.name;
    spec.footprint_bytes = k.footprint;
    spec.make = k.make;
    (void)sched.submit(std::move(spec));
  }
  sched.run_all();

  RowOutcome out;
  out.end = sys.now() - t0;  // makespan net of the pre-warm charge
  out.digest = sys.events().digest(sys.now());
  const tenant::AttributionTable& at = sys.attribution();
  for (const tenant::Job& j : sched.jobs()) {
    const tenant::TenantUsage& u = at.usage(j.id);
    out.tenants.push_back({j.spec.name, j.status, j.finished_at - j.started_at,
                           u.evictions_suffered, u.evictions_caused});
  }
  out.cross_evictions = at.cross_tenant().count;
  out.cross_evicted_bytes = at.cross_tenant().bytes;
  out.matrix = at.to_table();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out_path = "BENCH_tenancy.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out <file>]\n", argv[0]);
      return 2;
    }
  }

  bs::print_figure_header(
      "Tenancy", "multi-tenant co-run matrix on one simulated superchip",
      "per-tenant slowdown grows with co-located HBM pressure; rows with "
      "two qvsim tenants show attributable cross-tenant evictions; every "
      "row is bit-for-bit reproducible");

  const std::vector<TenantKind> mix = tenant_mix(smoke);
  const std::vector<std::size_t> counts =
      smoke ? std::vector<std::size_t>{1, 2, 4}
            : std::vector<std::size_t>{1, 2, 3, 4, 6, 8};
  // First row containing two qvsim tenants (rotation period = mix size).
  const std::size_t interference_row = mix.size() + 1;

  // Solo baselines per tenant kind: the same machine, one tenant.
  std::map<std::string, sim::Picos> solo;
  for (const TenantKind& k : mix) {
    solo[k.name] = run_row(1, {k}).tenants.at(0).duration;
  }

  std::size_t nonrepro_rows = 0;
  std::uint64_t interference_evictions = 0;
  struct JsonRow {
    std::size_t n;
    double end_ms, avg_slowdown, max_slowdown, throughput;
    std::uint64_t cross_evictions;
    bool repro;
  };
  std::vector<JsonRow> json_rows;

  std::printf("%-8s %-18s %10s %9s %9s %9s %7s\n", "tenants", "tenant",
              "time_ms", "slowdown", "evict_in", "evict_out", "repro");
  for (const std::size_t n : counts) {
    const RowOutcome r1 = run_row(n, mix);
    const RowOutcome r2 = run_row(n, mix);
    const bool repro = r1.end == r2.end && r1.digest == r2.digest;
    if (!repro) ++nonrepro_rows;
    if (n == interference_row) interference_evictions = r1.cross_evictions;

    double slow_sum = 0, slow_max = 0;
    for (std::size_t t = 0; t < r1.tenants.size(); ++t) {
      const TenantOutcome& to = r1.tenants[t];
      const double slowdown =
          static_cast<double>(to.duration) / static_cast<double>(solo[to.name]);
      slow_sum += slowdown;
      slow_max = std::max(slow_max, slowdown);
      std::printf("%-8zu %-18s %10.3f %8.2fx %9llu %9llu %7s\n", n,
                  to.name.c_str(), sim::to_milliseconds(to.duration), slowdown,
                  static_cast<unsigned long long>(to.evictions_suffered),
                  static_cast<unsigned long long>(to.evictions_caused),
                  repro ? "yes" : "NO");
      std::printf("data\ttenancy\t%zu\t%zu\t%s\t%.4f\t%.4f\t%llu\t%llu\t%d\n",
                  n, t + 1, to.name.c_str(), sim::to_milliseconds(to.duration),
                  slowdown, static_cast<unsigned long long>(to.evictions_suffered),
                  static_cast<unsigned long long>(to.evictions_caused),
                  repro ? 1 : 0);
    }
    const double end_ms = sim::to_milliseconds(r1.end);
    const double throughput =
        static_cast<double>(n) / sim::to_seconds(r1.end);
    std::printf("%-8zu %-18s %10.3f avg %5.2fx / max %5.2fx  "
                "%llu cross-tenant evictions  %.1f jobs/s\n\n",
                n, "(aggregate)", end_ms, slow_sum / static_cast<double>(n),
                slow_max, static_cast<unsigned long long>(r1.cross_evictions),
                throughput);
    if (n == interference_row) {
      std::printf("who-evicted-whom (tenants=%zu):\n%s\n", n, r1.matrix.c_str());
    }
    json_rows.push_back({n, end_ms, slow_sum / static_cast<double>(n), slow_max,
                         throughput, r1.cross_evictions, repro});
  }

  if (!bs::write_artifact(out_path, [&](std::FILE* f) {
        std::fprintf(f, "{\n  \"bench\": \"tenancy\",\n  \"smoke\": %s,\n",
                     smoke ? "true" : "false");
        std::fprintf(f, "  \"interference_row\": %zu,\n", interference_row);
        std::fprintf(f, "  \"interference_cross_tenant_evictions\": %llu,\n",
                     static_cast<unsigned long long>(interference_evictions));
        std::fprintf(f, "  \"rows\": [\n");
        for (std::size_t i = 0; i < json_rows.size(); ++i) {
          const JsonRow& jr = json_rows[i];
          std::fprintf(f,
                       "    {\"tenants\": %zu, \"end_ms\": %.4f, "
                       "\"avg_slowdown\": %.4f, \"max_slowdown\": %.4f, "
                       "\"throughput_jobs_per_s\": %.4f, "
                       "\"cross_tenant_evictions\": %llu, \"repro\": %s}%s\n",
                       jr.n, jr.end_ms, jr.avg_slowdown, jr.max_slowdown,
                       jr.throughput,
                       static_cast<unsigned long long>(jr.cross_evictions),
                       jr.repro ? "true" : "false",
                       i + 1 < json_rows.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
      })) {
    return 1;
  }

  if (nonrepro_rows != 0) {
    std::fprintf(stderr, "FAIL: %zu rows were not bit-for-bit reproducible\n",
                 nonrepro_rows);
    return 1;
  }
  if (interference_evictions == 0) {
    std::fprintf(stderr,
                 "FAIL: designated interference row (tenants=%zu) shows no "
                 "cross-tenant evictions\n",
                 interference_row);
    return 1;
  }
  std::printf("summary: %zu rows, all reproducible; interference row "
              "(tenants=%zu) cross-tenant evictions: %llu\n",
              counts.size(), interference_row,
              static_cast<unsigned long long>(interference_evictions));
  return 0;
}
