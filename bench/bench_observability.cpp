// Observability cross-validation (DESIGN.md Section 9): every tier-1
// application x memory mode runs with the metrics registry, the causal
// event log, the memory profiler and the NVLink-C2C link monitor all
// enabled, twice. The bench fails (nonzero exit) when:
//   - any registry counter disagrees with the independently derived
//     profile::Tracer summary of the same run's event log;
//   - any histogram's count/sum disagrees with its sibling counters;
//   - the link monitor's per-window byte sums disagree with the
//     interconnect's cumulative traffic counters;
//   - two identical runs produce different metrics snapshots, end times
//     or event digests (exposition must be deterministic);
//   - any exported artifact (metrics JSON, Chrome trace) fails a strict
//     JSON parse.
// A final multi-tenant co-run exports an enriched Chrome trace and checks
// it contains per-tenant lanes, causal flow events and the C2C-utilization
// counter track; a crash-recovery co-run then exercises the reset/restart/
// checkpoint instruments at nonzero values and cross-checks them the same
// way, and a network co-run checks every ghum_net_* instrument against the
// fabric's own transfer log. Results land in BENCH_observability.json.
//
// Flags:
//   --smoke          small problem sizes (the ctest "perf" smoke target)
//   --out <file>     output JSON path (default BENCH_observability.json)
//   --trace <file>   also dump the tenancy co-run's enriched Chrome trace

#include <array>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "benchsupport/report.hpp"
#include "benchsupport/scenarios.hpp"
#include "net/fabric.hpp"
#include "net/halo.hpp"
#include "obs/json_check.hpp"
#include "profile/trace_export.hpp"
#include "profile/tracer.hpp"
#include "runtime/runtime.hpp"
#include "tenant/scheduler.hpp"

using namespace ghum;
namespace bs = benchsupport;

namespace {

struct ObsApp {
  std::string name;
  std::function<core::SystemConfig()> config;
  std::function<apps::AppReport(runtime::Runtime&, apps::MemMode, bs::Scale)> run;
};

std::vector<ObsApp> obs_apps() {
  std::vector<ObsApp> v;
  for (const auto& a : bs::rodinia_apps()) {
    v.push_back(ObsApp{
        .name = a.name,
        .config = [] { return bs::rodinia_config(pagetable::kSystemPage64K, false); },
        .run = a.run});
  }
  v.push_back(ObsApp{
      .name = "qiskit",
      .config = [] { return bs::qv_config(pagetable::kSystemPage64K, false); },
      .run = [](runtime::Runtime& rt, apps::MemMode m, bs::Scale s) {
        return apps::run_qvsim(rt, m, bs::qv_sim_config(s, 17));
      }});
  return v;
}

struct RunResult {
  Status status = Status::kSuccess;
  sim::Picos end_time = 0;
  std::uint64_t digest = 0;
  std::string metrics_json;
  std::vector<std::string> failures;  ///< cross-check violations
};

/// One named equality check; a mismatch becomes a recorded failure.
void check_eq(std::vector<std::string>& failures, const char* what,
              std::uint64_t metric, std::uint64_t reference) {
  if (metric == reference) return;
  char buf[256];
  std::snprintf(buf, sizeof buf, "%s: registry=%llu reference=%llu", what,
                static_cast<unsigned long long>(metric),
                static_cast<unsigned long long>(reference));
  failures.emplace_back(buf);
}

/// Registry counters vs the Tracer's independent walk over the event log,
/// histogram count/sum vs sibling counters, and link-monitor window sums
/// vs the interconnect.
void cross_check(core::System& sys, std::vector<std::string>& failures) {
  const profile::TraceSummary ts = profile::Tracer{sys.events()}.summarize();
  core::Machine& m = sys.machine();
  const obs::MemSysMetrics& met = m.metrics();

  check_eq(failures, "cpu_first_touch_faults",
           met.faults_cpu_first_touch->value(), ts.cpu_first_touch_faults);
  check_eq(failures, "gpu_first_touch_faults",
           met.faults_gpu_first_touch->value(), ts.gpu_first_touch_faults);
  check_eq(failures, "managed_gpu_faults", met.faults_gpu_managed->value(),
           ts.managed_gpu_faults);
  check_eq(failures, "migrations_h2d", met.migrations_h2d->value(),
           ts.migrations_h2d);
  check_eq(failures, "migrations_d2h", met.migrations_d2h->value(),
           ts.migrations_d2h);
  check_eq(failures, "migrated_h2d_bytes", met.migrated_bytes_h2d->value(),
           ts.migrated_h2d_bytes);
  check_eq(failures, "migrated_d2h_bytes", met.migrated_bytes_d2h->value(),
           ts.migrated_d2h_bytes);
  check_eq(failures, "evictions", met.evictions->value(), ts.evictions);
  check_eq(failures, "evicted_bytes", met.evicted_bytes->value(), ts.evicted_bytes);
  check_eq(failures, "counter_notifications", met.counter_notifications->value(),
           ts.counter_notifications);
  check_eq(failures, "explicit_prefetches", met.prefetches->value(),
           ts.explicit_prefetches);
  check_eq(failures, "alloc_denials", met.alloc_denials->value(), ts.alloc_denials);
  check_eq(failures, "migration_retries", met.migration_retries->value(),
           ts.migration_retries);
  check_eq(failures, "migration_aborts", met.migration_aborts->value(),
           ts.migration_aborts);
  check_eq(failures, "ecc_retirements", met.ecc_retirements->value(),
           ts.ecc_retirements);
  check_eq(failures, "ecc_retired_bytes", met.ecc_retired_bytes->value(),
           ts.ecc_retired_bytes);
  check_eq(failures, "fallback_placements", met.fallback_placements->value(),
           ts.fallback_placements);
  check_eq(failures, "oom_events", met.oom_events->value(), ts.oom_events);
  check_eq(failures, "cross_tenant_evictions", met.cross_tenant_evictions->value(),
           ts.cross_tenant_evictions);

  // Crash-ladder instruments (DESIGN.md Section 10): reset, restart and
  // scrub counters must agree with the event log's kGpuReset/kJobRestart
  // records. (The recovery counters read zero when no RecoveryManager ran.)
  check_eq(failures, "gpu_resets", met.gpu_resets->value(), ts.gpu_resets);
  const std::uint64_t restarts =
      m.obs().counter("ghum_recovery_restarts_total", {{"cause", "gpu_reset"}}).value() +
      m.obs().counter("ghum_recovery_restarts_total", {{"cause", "ecc_uncorrectable"}}).value() +
      m.obs().counter("ghum_recovery_restarts_total", {{"cause", "timeout"}}).value();
  check_eq(failures, "recovery_restarts", restarts, ts.job_restarts);
  check_eq(failures, "recovery_scrubbed_bytes",
           m.obs().counter("ghum_recovery_scrubbed_bytes_total").value(),
           ts.scrubbed_bytes);

  // Histograms vs their sibling counters: every migration/eviction/fault
  // observes exactly one histogram sample, and byte sums must agree.
  check_eq(failures, "migration_batch_h2d.count",
           met.migration_batch_bytes_h2d->count(), ts.migrations_h2d);
  check_eq(failures, "migration_batch_d2h.count",
           met.migration_batch_bytes_d2h->count(), ts.migrations_d2h);
  check_eq(failures, "migration_batch_h2d.sum",
           met.migration_batch_bytes_h2d->sum(), ts.migrated_h2d_bytes);
  check_eq(failures, "migration_batch_d2h.sum",
           met.migration_batch_bytes_d2h->sum(), ts.migrated_d2h_bytes);
  check_eq(failures, "migration_latency_h2d.count",
           met.migration_latency_h2d->count(), ts.migrations_h2d);
  check_eq(failures, "migration_latency_d2h.count",
           met.migration_latency_d2h->count(), ts.migrations_d2h);
  check_eq(failures, "eviction_batch.count", met.eviction_batch_bytes->count(),
           ts.evictions);
  check_eq(failures, "eviction_batch.sum", met.eviction_batch_bytes->sum(),
           ts.evicted_bytes);
  check_eq(failures, "fault_latency_cpu.count",
           met.fault_latency_cpu_first_touch->count(), ts.cpu_first_touch_faults);
  check_eq(failures, "fault_latency_gpu.count",
           met.fault_latency_gpu_first_touch->count(), ts.gpu_first_touch_faults);
  check_eq(failures, "fault_latency_managed.count",
           met.fault_latency_gpu_managed->count(), met.gpu_fault_requests->value());

  // Link monitor: per-window byte deltas must sum to the interconnect's
  // cumulative traffic (the monitor ran from t=0 and was stopped).
  std::uint64_t h2d = 0, d2h = 0;
  for (const auto& s : sys.link_monitor().samples()) {
    h2d += s.h2d_bytes;
    d2h += s.d2h_bytes;
  }
  check_eq(failures, "link_monitor.h2d_bytes", h2d,
           m.c2c().bytes_moved(interconnect::Direction::kCpuToGpu));
  check_eq(failures, "link_monitor.d2h_bytes", d2h,
           m.c2c().bytes_moved(interconnect::Direction::kGpuToCpu));
}

RunResult one_run(const ObsApp& app, apps::MemMode mode, bs::Scale scale) {
  core::SystemConfig cfg = app.config();
  cfg.event_log = true;
  cfg.link_monitor = true;
  cfg.profiler_enabled = true;
  core::System sys{cfg};
  runtime::Runtime rt{sys};
  const auto res = bs::guarded_run([&] { return app.run(rt, mode, scale); });

  sys.profiler().stop();
  sys.link_monitor().stop();

  RunResult out;
  out.status = res.status;
  out.end_time = sys.now();
  out.digest = sys.events().digest(sys.now());
  out.metrics_json = sys.metrics_json();
  cross_check(sys, out.failures);

  // Exposition self-checks: both formats must be well-formed, and the
  // Chrome trace (with the link-utilization counter track) must parse.
  std::string err;
  if (!obs::json_valid(out.metrics_json, &err)) {
    out.failures.push_back("metrics_json invalid: " + err);
  }
  if (sys.metrics_prometheus().empty()) {
    out.failures.emplace_back("prometheus exposition is empty");
  }
  const std::string trace = profile::to_chrome_trace(
      sys.events(), sys.workload(), &sys.link_monitor().samples());
  if (!obs::json_valid(trace, &err)) {
    out.failures.push_back("chrome trace invalid: " + err);
  }
  return out;
}

struct Cell {
  std::string app;
  std::string mode;
  double sim_ms = 0;
  std::size_t crosscheck_failures = 0;
  bool repro_ok = false;
};

/// The multi-tenant co-run: three managed tenants contend for HBM on the
/// QV machine, which exercises tenant lanes, cross-tenant evictions and
/// causal fault->migration->eviction chains in one trace.
struct TenancyResult {
  std::string trace;
  std::vector<std::string> failures;
};

TenancyResult tenancy_corun(bs::Scale scale) {
  core::SystemConfig cfg = bs::qv_config(pagetable::kSystemPage64K, false);
  cfg.event_log = true;
  cfg.link_monitor = true;
  cfg.ddr_capacity = 256ull << 20;
  core::System sys{cfg};
  sys.ensure_gpu_context();
  tenant::Scheduler sched{sys};
  struct Mix {
    const char* name;
    std::uint64_t footprint;
    std::function<apps::AppCoro(runtime::Runtime&)> make;
  };
  const std::vector<Mix> mix{
      {"qvsim20/managed", 17ull << 20,
       [scale](runtime::Runtime& rt) {
         return apps::qvsim_steps(rt, apps::MemMode::kManaged,
                                  bs::qv_sim_config(scale, 20));
       }},
      {"qvsim20b/managed", 17ull << 20,
       [scale](runtime::Runtime& rt) {
         return apps::qvsim_steps(rt, apps::MemMode::kManaged,
                                  bs::qv_sim_config(scale, 20));
       }},
      {"hotspot/managed", 13ull << 20,
       [scale](runtime::Runtime& rt) {
         return apps::hotspot_steps(rt, apps::MemMode::kManaged,
                                    bs::hotspot_config(scale));
       }},
  };
  for (const Mix& k : mix) {
    tenant::JobSpec spec;
    spec.name = k.name;
    spec.footprint_bytes = k.footprint;
    spec.make = k.make;
    (void)sched.submit(std::move(spec));
  }
  sched.run_all();
  sys.link_monitor().stop();

  TenancyResult out;
  cross_check(sys, out.failures);
  out.trace = profile::to_chrome_trace(sys.events(), sys.workload(),
                                       &sys.link_monitor().samples());

  std::string err;
  if (!obs::json_valid(out.trace, &err)) {
    out.failures.push_back("tenancy trace invalid: " + err);
  }
  // Enrichment markers the acceptance criteria require: per-tenant lanes,
  // causal flow events, and the C2C-utilization counter track.
  if (out.trace.find("\"Tenant 1 MemSys\"") == std::string::npos) {
    out.failures.emplace_back("tenancy trace has no per-tenant lanes");
  }
  if (out.trace.find("\"ph\":\"s\"") == std::string::npos ||
      out.trace.find("\"ph\":\"f\"") == std::string::npos) {
    out.failures.emplace_back("tenancy trace has no causal flow events");
  }
  if (out.trace.find("C2C util (permille)") == std::string::npos) {
    out.failures.emplace_back("tenancy trace has no C2C utilization track");
  }
  return out;
}

/// The crash-recovery co-run: a GPU channel reset fells one of two managed
/// tenants mid-run and the recovery ladder restarts it, with periodic
/// verified checkpoints on. The registry-vs-Tracer pass then sees NONZERO
/// reset/restart/scrub counters — the quiet matrix rows above cannot tell
/// a dead recovery instrument from an unused one.
std::vector<std::string> recovery_corun(bs::Scale scale) {
  auto base = [] {
    core::SystemConfig cfg = bs::rodinia_config(pagetable::kSystemPage64K, false);
    cfg.event_log = true;
    return cfg;
  };
  auto spec = [scale](std::uint64_t seed) {
    tenant::JobSpec s;
    s.name = "hotspot";
    s.footprint_bytes = 1ull << 20;
    s.make = [scale, seed](runtime::Runtime& rt) {
      apps::HotspotConfig h = bs::hotspot_config(scale);
      h.seed = seed;
      return apps::hotspot_steps(rt, apps::MemMode::kManaged, h);
    };
    return s;
  };
  sim::Picos solo = 0;
  {
    core::System sys{base()};
    tenant::Scheduler sched{sys, {}};
    (void)sched.submit(spec(42));
    sched.run_all();
    solo = sys.now();
  }

  core::SystemConfig cfg = base();
  cfg.link_monitor = true;
  cfg.faults.enabled = true;
  cfg.faults.gpu_resets = {{.time = solo / 2}};
  core::System sys{cfg};
  tenant::SchedulerConfig scfg;
  scfg.recovery.enabled = true;
  scfg.recovery.checkpoint_period_quanta = 4;
  scfg.recovery.verify_checkpoints = true;
  tenant::Scheduler sched{sys, scfg};
  tenant::TenantId ids[2] = {tenant::kNoTenant, tenant::kNoTenant};
  (void)sched.submit(spec(42), &ids[0]);
  (void)sched.submit(spec(43), &ids[1]);
  sched.run_all();
  sys.link_monitor().stop();

  std::vector<std::string> failures;
  cross_check(sys, failures);
  const profile::TraceSummary ts = profile::Tracer{sys.events()}.summarize();
  if (ts.gpu_resets == 0 || ts.job_restarts == 0) {
    failures.emplace_back("recovery co-run produced no reset/restart events");
  }
  // Instruments without an event-log mirror still must agree with a source
  // that does not share their increment: the event log, or the
  // scheduler's per-job records.
  obs::MetricsRegistry& reg = sys.machine().obs();
  check_eq(failures, "recovery.restarts(stats)",
           sys.stats().get("recovery.restarts"), ts.job_restarts);
  // A checkpoint follows every checkpoint_period_quanta-th quantum the
  // scheduler ran, and each job records the quanta it consumed.
  std::uint64_t quanta = 0;
  for (const tenant::TenantId id : ids) quanta += sched.job(id).quanta;
  check_eq(failures, "chk_checkpoints(job quanta)",
           reg.counter("ghum_chk_checkpoints_total").value(),
           quanta / scfg.recovery.checkpoint_period_quanta);
  check_eq(failures, "chk_snapshot_bytes.count",
           reg.histogram("ghum_chk_snapshot_bytes").count(),
           reg.counter("ghum_chk_checkpoints_total").value());
  if (reg.counter("ghum_recovery_replayed_picos_total").value() == 0) {
    failures.emplace_back("restart happened but replayed-picos counter is zero");
  }
  // A watchdog trip fails the quantum with kErrorTimeout: the job either
  // restarts (a kJobRestart event whose aux carries the cause) or ends
  // with that status.
  std::uint64_t timeouts = 0;
  for (const sim::Event& e : sys.events().events()) {
    if (e.type == sim::EventType::kJobRestart &&
        (e.aux & 0xffu) == static_cast<std::uint32_t>(Status::kErrorTimeout)) {
      ++timeouts;
    }
  }
  for (const tenant::TenantId id : ids) {
    if (sched.job(id).status == Status::kErrorTimeout) ++timeouts;
  }
  check_eq(failures, "recovery.watchdog_trips(restart causes)",
           sys.stats().get("recovery.watchdog_trips"), timeouts);
  return failures;
}

/// The inter-node network co-run: a fabric wired to a metrics registry
/// carries hand-picked messages through all four protocol regimes, both
/// memory types and a flap window, then a 4-node hotspot halo exchange on
/// the same fabric. Every ghum_net_* instrument is cross-checked against
/// counts re-derived from the fabric's transfer log at NONZERO values —
/// the same dead-vs-unused distinction the recovery co-run makes.
std::vector<std::string> net_corun(bs::Scale scale) {
  std::vector<std::string> failures;
  obs::MetricsRegistry reg;
  const net::NetSpec spec;
  net::Fabric fab{spec, 4, &reg};
  fab.set_log_enabled(true);

  // One message per protocol regime, on both memory types (64 B is
  // eager-short, 4 KiB eager-bcopy, 16 KiB zcopy, 1 MiB rendezvous with
  // the default cost model).
  for (const std::uint64_t b : {64ull, 4096ull, 16384ull, 1ull << 20}) {
    (void)fab.transfer(0, 1, b, net::MemType::kHost, 0);
    (void)fab.transfer(2, 3, b, net::MemType::kCudaManaged, 0);
  }

  // A real multi-node workload sharing the instrumented fabric.
  net::MultiNodeConfig mc;
  mc.nodes = 4;
  mc.mode = apps::MemMode::kManaged;
  mc.node_config = bs::rodinia_config(pagetable::kSystemPage64K, false);
  mc.node_config.event_log = true;
  apps::HotspotConfig hs = bs::hotspot_config(scale);
  if (scale == bs::Scale::kSmall) hs.iterations = 4;
  const net::MultiNodeResult halo = net::run_hotspot_halo(mc, hs, &fab);

  // The log's own per-protocol and per-link counts are the reference.
  std::array<std::uint64_t, net::kProtocols> msgs{};
  std::array<std::uint64_t, net::kProtocols> bytes{};
  std::array<std::array<std::uint64_t, 4>, 4> link_bytes{};
  for (const net::TransferRecord& r : fab.log()) {
    const auto p = static_cast<std::size_t>(r.proto);
    ++msgs[p];
    bytes[p] += r.bytes;
    link_bytes[r.src][r.dst] += r.bytes;
  }
  check_eq(failures, "net.halo_totals_view", halo.net.total_msgs(),
           fab.log().size());
  for (std::size_t p = 0; p < net::kProtocols; ++p) {
    const auto proto = static_cast<net::Protocol>(p);
    const std::vector<obs::Label> lbl{
        {"proto", std::string{to_string(proto)}}};
    const std::string name{to_string(proto)};
    if (msgs[p] == 0) {
      failures.push_back("net: protocol " + name + " never exercised");
      continue;
    }
    check_eq(failures, ("net_msgs{" + name + "}").c_str(),
             reg.counter("ghum_net_msgs_total", lbl).value(), msgs[p]);
    check_eq(failures, ("net_bytes{" + name + "}").c_str(),
             reg.counter("ghum_net_bytes_total", lbl).value(), bytes[p]);
    check_eq(failures, ("net_proto_selected{" + name + "}").c_str(),
             reg.counter("ghum_net_proto_selected_total", lbl).value(),
             msgs[p]);
  }
  // The rendezvous handshake histogram records exactly one sample per
  // rendezvous message; the latency histogram one per message of any kind.
  check_eq(failures, "net_rndv_handshake_ns.count",
           reg.histogram("ghum_net_rndv_handshake_ns").count(),
           msgs[static_cast<std::size_t>(net::Protocol::kRendezvous)]);
  if (reg.histogram("ghum_net_rndv_handshake_ns").sum() == 0) {
    failures.emplace_back("net: rendezvous handshake histogram sums to zero");
  }
  check_eq(failures, "net_msg_latency_ns.count",
           reg.histogram("ghum_net_msg_latency_ns").count(), fab.log().size());
  // Every directed link's byte counter over the 4-endpoint fabric.
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (std::uint32_t d = 0; d < 4; ++d) {
      if (s == d) continue;
      const obs::Label link{"link", std::to_string(s) + "-" + std::to_string(d)};
      check_eq(failures, ("net_link_bytes{" + link.value + "}").c_str(),
               reg.counter_sum("ghum_net_link_bytes_total", &link),
               link_bytes[s][d]);
    }
  }
  check_eq(failures, "net_flapped(quiet)",
           reg.counter("ghum_net_flapped_msgs_total").value(), 0);

  // Flap instrument at a nonzero value, on its own registry (a second
  // fabric must not double-count into the first one's instruments).
  obs::MetricsRegistry flap_reg;
  fault::LinkFlapWindow w;
  w.start = 0;
  w.duration = sim::microseconds(100);
  w.node_a = 0;
  net::Fabric flap_fab{spec, 2, &flap_reg, {w}};
  (void)flap_fab.transfer(0, 1, 4096, net::MemType::kHost, 0);
  check_eq(failures, "net_flapped(open window)",
           flap_reg.counter("ghum_net_flapped_msgs_total").value(), 1);
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  bs::Scale scale = bs::Scale::kDefault;
  std::string out_path = "BENCH_observability.json";
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      scale = bs::Scale::kSmall;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out <file>] [--trace <file>]\n",
                   argv[0]);
      return 2;
    }
  }

  bs::print_figure_header(
      "Observability", "metrics registry vs tracer cross-validation",
      "registry counters equal independent Tracer summaries, snapshots are "
      "bit-for-bit reproducible, all exported timelines parse as JSON");

  std::vector<Cell> cells;
  std::size_t total_failures = 0;

  std::printf("%-12s %-9s %10s %8s %6s\n", "app", "mode", "sim_ms", "checks",
              "repro");
  for (const auto& app : obs_apps()) {
    for (apps::MemMode mode : {apps::MemMode::kExplicit, apps::MemMode::kManaged,
                               apps::MemMode::kSystem}) {
      const RunResult a = one_run(app, mode, scale);
      const RunResult b = one_run(app, mode, scale);
      Cell c;
      c.app = app.name;
      c.mode = std::string{to_string(mode)};
      c.sim_ms = sim::to_milliseconds(a.end_time);
      c.crosscheck_failures = a.failures.size() + b.failures.size();
      c.repro_ok = a.end_time == b.end_time && a.digest == b.digest &&
                   a.metrics_json == b.metrics_json && a.status == b.status;
      for (const auto& f : a.failures) {
        std::fprintf(stderr, "  [%s/%s run1] %s\n", c.app.c_str(), c.mode.c_str(),
                     f.c_str());
      }
      for (const auto& f : b.failures) {
        std::fprintf(stderr, "  [%s/%s run2] %s\n", c.app.c_str(), c.mode.c_str(),
                     f.c_str());
      }
      if (!c.repro_ok) {
        std::fprintf(stderr, "  [%s/%s] snapshots differ between two runs\n",
                     c.app.c_str(), c.mode.c_str());
      }
      total_failures += c.crosscheck_failures + (c.repro_ok ? 0 : 1);
      std::printf("%-12s %-9s %10.3f %8zu %6s\n", c.app.c_str(), c.mode.c_str(),
                  c.sim_ms, c.crosscheck_failures, c.repro_ok ? "ok" : "FAIL");
      cells.push_back(std::move(c));
    }
  }

  const TenancyResult tenancy = tenancy_corun(scale);
  for (const auto& f : tenancy.failures) {
    std::fprintf(stderr, "  [tenancy] %s\n", f.c_str());
  }
  total_failures += tenancy.failures.size();
  std::printf("tenancy co-run: %zu check failures, trace %zu bytes\n",
              tenancy.failures.size(), tenancy.trace.size());

  const std::vector<std::string> recovery = recovery_corun(scale);
  for (const auto& f : recovery) {
    std::fprintf(stderr, "  [recovery] %s\n", f.c_str());
  }
  total_failures += recovery.size();
  std::printf("recovery co-run: %zu check failures\n", recovery.size());

  const std::vector<std::string> netf = net_corun(scale);
  for (const auto& f : netf) {
    std::fprintf(stderr, "  [net] %s\n", f.c_str());
  }
  total_failures += netf.size();
  std::printf("net co-run: %zu check failures\n", netf.size());

  if (!trace_path.empty() &&
      !bs::write_artifact(trace_path, [&](std::FILE* f) {
        std::fwrite(tenancy.trace.data(), 1, tenancy.trace.size(), f);
      })) {
    return 1;
  }

  if (!bs::write_artifact(out_path, [&](std::FILE* f) {
        std::fprintf(f, "{\n  \"bench\": \"observability\",\n  \"scale\": \"%s\",\n",
                     scale == bs::Scale::kSmall ? "small" : "default");
        std::fprintf(f, "  \"cells\": [\n");
        for (std::size_t i = 0; i < cells.size(); ++i) {
          const Cell& c = cells[i];
          std::fprintf(f,
                       "    {\"app\": \"%s\", \"mode\": \"%s\", \"sim_ms\": %.4f, "
                       "\"crosscheck_failures\": %zu, \"repro_ok\": %s}%s\n",
                       c.app.c_str(), c.mode.c_str(), c.sim_ms, c.crosscheck_failures,
                       c.repro_ok ? "true" : "false", i + 1 < cells.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n");
        std::fprintf(f, "  \"tenancy_failures\": %zu,\n", tenancy.failures.size());
        std::fprintf(f, "  \"recovery_failures\": %zu,\n", recovery.size());
        std::fprintf(f, "  \"net_failures\": %zu,\n", netf.size());
        bs::json_tail(f, total_failures);
      })) {
    return 1;
  }

  return bs::verdict("observability", total_failures);
}
