// Lossy-fabric survival bench (DESIGN.md Section 14). The bench_fleet
// node-kill storm is re-run with every control and data message subject
// to a seeded chaos schedule — drops, corruptions, duplicates and
// reorders on every fabric link — and with the omniscient fault oracle
// replaced by heartbeat-based failure detection. The two scheduled node
// losses become *silent* deaths the controller must notice through
// missed heartbeats; the evacuation blob of the degraded node arrives
// corrupted end-to-end (past the link checksum) and must be recovered by
// digest verification + re-request. Gates, all enforced (nonzero exit):
//
//   (a) bit-for-bit reproducibility under chaos: two complete runs
//       produce identical fleet, fabric and alert-stream digests;
//   (b) the reliability protocol did real work: >= 1 retransmission and
//       >= 1 send that succeeded only after retransmitting;
//   (c) detection replaces omniscience: both silent deaths are detected
//       through the heartbeat miss threshold (and nothing else is — no
//       false-positive death), their victims replay, and every finished
//       job still matches its uninterrupted solo checksum;
//   (d) evacuation integrity: >= 1 corrupted evacuation blob, recovered
//       by re-request (or the replay ladder) — the migration completes;
//   (e) SLO preservation: zero violations among top-priority (class 0)
//       jobs despite the injected loss.
//
// Flags:
//   --smoke       small problem sizes (the ctest "perf" smoke target)
//   --out <file>  output JSON path (default BENCH_chaosnet.json)

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "benchsupport/report.hpp"
#include "benchsupport/scenarios.hpp"
#include "fleet/arrival.hpp"
#include "fleet/controller.hpp"
#include "sim/fnv.hpp"
#include "tenant/scheduler.hpp"

using namespace ghum;
namespace bs = benchsupport;

namespace {

core::SystemConfig node_config() {
  core::SystemConfig cfg = bs::rodinia_config(pagetable::kSystemPage64K, false);
  cfg.event_log = true;
  return cfg;
}

/// Same six-app managed-mode catalog as bench_fleet: the storm shape is
/// held constant so any behavior change is attributable to the chaos.
std::vector<fleet::JobTemplate> catalog(bs::Scale s) {
  const apps::MemMode m = apps::MemMode::kManaged;
  std::vector<fleet::JobTemplate> out;
  const auto add = [&](std::string name, std::uint64_t footprint,
                       std::function<apps::AppCoro(runtime::Runtime&)> make) {
    fleet::JobTemplate t;
    t.name = std::move(name);
    t.mode = m;
    t.make = std::move(make);
    t.footprint_bytes = footprint;
    out.push_back(std::move(t));
  };
  add("hotspot", 2ull << 20, [s, m](runtime::Runtime& rt) {
    return apps::hotspot_steps(rt, m, bs::hotspot_config(s));
  });
  add("pathfinder", 1ull << 20, [s, m](runtime::Runtime& rt) {
    return apps::pathfinder_steps(rt, m, bs::pathfinder_config(s));
  });
  add("needle", 4ull << 20, [s, m](runtime::Runtime& rt) {
    return apps::needle_steps(rt, m, bs::needle_config(s));
  });
  add("bfs", 2ull << 20, [s, m](runtime::Runtime& rt) {
    return apps::bfs_steps(rt, m, bs::bfs_config(s));
  });
  add("srad", 4ull << 20, [s, m](runtime::Runtime& rt) {
    return apps::srad_steps(rt, m, bs::srad_config(s));
  });
  add("qvsim", 8ull << 20, [s, m](runtime::Runtime& rt) {
    return apps::qvsim_steps(rt, m, bs::qv_sim_config(s, 16));
  });
  return out;
}

/// Solo reference pass, identical to bench_fleet's: checksum from the
/// first uninterrupted incarnation, marginal cost from the second/third.
void measure_solo(fleet::JobTemplate& t) {
  core::System sys{node_config()};
  tenant::SchedulerConfig scfg;
  scfg.policy = tenant::Policy::kFifo;
  tenant::Scheduler sched{sys, scfg};
  const auto spec = [&] {
    tenant::JobSpec s;
    s.name = t.name;
    s.mode = t.mode;
    s.make = t.make;
    s.footprint_bytes = t.footprint_bytes;
    return s;
  };
  tenant::TenantId first = tenant::kNoTenant;
  tenant::TenantId last = tenant::kNoTenant;
  (void)sched.submit(spec(), &first);
  (void)sched.submit(spec(), nullptr);
  (void)sched.submit(spec(), &last);
  sched.run_all();
  t.solo_checksum = sched.job(first).report.checksum;
  t.est_cost = std::max<sim::Picos>(
      1, (sched.job(last).finished_at - sched.job(first).finished_at) / 2);
}

struct ChaosResult {
  std::uint64_t digest = 0;         ///< fleet digest (nodes+jobs+metrics)
  std::uint64_t fabric_digest = 0;  ///< every transfer's cost fingerprint
  std::uint64_t alert_digest = 0;   ///< FNV over the alert transitions
  std::uint64_t finished = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::uint64_t migrated = 0;
  std::uint64_t replayed = 0;
  std::uint64_t checksum_mismatches = 0;
  std::vector<fleet::SloSummary> classes;
  std::vector<fleet::NodeStatus> nodes;
  std::uint64_t node_losses = 0;
  std::uint64_t detected_losses = 0;
  std::uint64_t evacuations = 0;
  std::uint64_t hb_probes = 0;
  std::uint64_t hb_misses = 0;
  std::uint64_t hb_suspects = 0;
  std::uint64_t hb_rejoins = 0;
  std::uint64_t evac_corruptions = 0;
  std::uint64_t evac_rerequests = 0;
  std::uint64_t evac_replays = 0;
  std::uint64_t alert_transitions = 0;
  net::ReliableTotals net;
  sim::Picos makespan = 0;
};

ChaosResult run_chaos(const fleet::FleetConfig& cfg,
                      const std::vector<fleet::JobTemplate>& templates,
                      const std::vector<fleet::JobRequest>& requests,
                      std::uint32_t classes) {
  fleet::Controller ctl{cfg, templates};
  (void)ctl.run(requests);

  ChaosResult r;
  r.digest = ctl.digest();
  r.fabric_digest = ctl.fabric()->digest();
  r.net = ctl.fabric()->reliable_totals();
  if (const obs::AlertEngine* ae = ctl.alert_engine()) {
    r.alert_transitions = ae->events().size();
    std::uint64_t h = sim::kFnvOffset;
    for (const obs::AlertEvent& e : ae->events()) {
      sim::fnv_mix(h, static_cast<std::uint64_t>(e.time));
      sim::fnv_mix(h, (static_cast<std::uint64_t>(e.rule) << 1) |
                          (e.open ? 1u : 0u));
      sim::fnv_mix(h, static_cast<std::uint64_t>(e.value));
    }
    r.alert_digest = h;
  }
  for (const fleet::FleetJob& j : ctl.jobs()) {
    if (j.state == fleet::FleetJobState::kFinished) {
      ++r.finished;
      if (j.migrated) ++r.migrated;
      if (j.replayed_after_loss) ++r.replayed;
      if (j.checksum != templates[j.req.tmpl].solo_checksum) {
        ++r.checksum_mismatches;
      }
    } else if (j.state == fleet::FleetJobState::kFailed) {
      ++r.failed;
    }
    r.makespan = std::max(r.makespan, j.finished_at);
  }
  for (std::uint32_t c = 0; c < classes; ++c) {
    r.classes.push_back(ctl.slo_summary(c));
  }
  for (const fleet::FleetJob& j : ctl.jobs()) {
    if (!j.slo_violation || j.req.priority != 0) continue;
    std::printf("  violator job=%llu tmpl=%s arrival=%.3f placed=%.3f "
                "finished=%.3f deadline=%.3f state=%s status=%s\n",
                static_cast<unsigned long long>(j.req.id),
                templates[j.req.tmpl].name.c_str(),
                sim::to_milliseconds(j.req.arrival),
                sim::to_milliseconds(j.first_placed_at),
                sim::to_milliseconds(j.finished_at),
                sim::to_milliseconds(j.req.deadline),
                std::string{to_string(j.state)}.c_str(),
                std::string{to_string(j.status)}.c_str());
  }
  r.nodes = ctl.node_status();
  obs::MetricsRegistry& m = ctl.metrics();
  r.shed = m.counter("ghum_fleet_shed_total").value();
  r.node_losses = m.counter("ghum_fleet_node_losses_total").value();
  r.detected_losses = m.counter("ghum_fleet_detected_losses_total").value();
  r.evacuations = m.counter("ghum_fleet_evacuations_total").value();
  r.hb_probes = m.counter("ghum_fleet_heartbeat_probes_total").value();
  r.hb_misses = m.counter("ghum_fleet_heartbeat_misses_total").value();
  r.hb_suspects = m.counter("ghum_fleet_heartbeat_suspects_total").value();
  r.hb_rejoins = m.counter("ghum_fleet_heartbeat_rejoins_total").value();
  r.evac_corruptions = m.counter("ghum_fleet_evac_corruptions_total").value();
  r.evac_rerequests = m.counter("ghum_fleet_evac_rerequests_total").value();
  r.evac_replays = m.counter("ghum_fleet_evac_replays_total").value();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bs::Scale scale = bs::Scale::kDefault;
  std::string out_path = "BENCH_chaosnet.json";
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

  bs::print_figure_header(
      "ChaosNet", "node-kill storm over a lossy fabric",
      "the bench_fleet storm re-run with seeded per-link message chaos "
      "(drop/corrupt/duplicate/reorder), heartbeat-based failure detection "
      "instead of an omniscient oracle, and a corrupted evacuation blob — "
      "survival must be reproducible, checksum-clean and top-class "
      "violation-free");

  std::size_t failures = 0;

  std::vector<fleet::JobTemplate> templates = catalog(scale);
  std::printf("solo reference runs\n");
  std::printf("%-12s %12s %12s %18s\n", "app", "cost_ms", "foot_mib",
              "solo_checksum");
  sim::Picos mean_cost = 0;
  for (fleet::JobTemplate& t : templates) {
    measure_solo(t);
    mean_cost += t.est_cost;
    std::printf("%-12s %12.3f %12.1f   %016llx\n", t.name.c_str(),
                sim::to_milliseconds(t.est_cost),
                static_cast<double>(t.footprint_bytes) / (1 << 20),
                static_cast<unsigned long long>(t.solo_checksum));
  }
  mean_cost /= static_cast<sim::Picos>(templates.size());

  // Same offered load as bench_fleet — chaos rides on top of a fleet that
  // is already busy when its nodes start dying.
  fleet::ArrivalConfig acfg;
  acfg.count = scale == bs::Scale::kSmall ? 48 : 240;
  acfg.mean_interarrival = mean_cost / 4;
  acfg.priority_classes = 3;
  acfg.class_weights = {1, 2, 3};
  acfg.deadline_floor = sim::milliseconds(64);
  acfg.top_replicas = 2;
  const std::vector<fleet::JobRequest> requests =
      fleet::generate_arrivals(acfg, templates);

  const sim::Picos horizon =
      acfg.mean_interarrival * static_cast<sim::Picos>(acfg.count);
  fleet::FleetConfig fcfg;
  fcfg.nodes = 4;
  fcfg.spares = 1;
  fcfg.node_config = node_config();
  fcfg.scheduler.policy = tenant::Policy::kPriority;
  fcfg.placement = fleet::PlacementPolicy::kLoadBalance;
  fcfg.node_footprint_budget = 24ull << 20;
  fcfg.shed_protect_classes = 1;
  fcfg.replace_max_retries = 6;
  fcfg.replace_backoff = sim::milliseconds(2);
  fcfg.faults.node_loss = {{.time = (horizon * 3) / 10, .node = 1},
                           {.time = (horizon * 7) / 10, .node = 2}};
  fcfg.faults.node_degrade = {
      {.time = horizon / 2, .node = 0, .slow_factor = 4}};
  fcfg.faults.evacuate_degraded = true;

  // The chaos schedule: every fabric message draws its fate from a
  // per-link seeded stream. ~3% of messages vanish, ~2% arrive corrupt
  // (link checksum catches those), ~2% are duplicated (receive-side dedup
  // discards the echo), ~2% are held out of order. On top of that, the
  // first bulk (>= 1 MiB) reliable payload — the evacuation blob — is
  // corrupted end-to-end, past the link checksum, so only the blob digest
  // check at the spare can catch it.
  fcfg.faults.messages.enabled = true;
  fcfg.faults.messages.drop_prob = 0.03;
  fcfg.faults.messages.corrupt_prob = 0.02;
  fcfg.faults.messages.duplicate_prob = 0.02;
  fcfg.faults.messages.reorder_prob = 0.02;
  fcfg.faults.messages.e2e_corrupt_bulk = {0};
  // Control messages are <= 512 B; the only reliable payloads above this
  // are evacuation blobs, so bulk index 0 is the first blob shipped even
  // at smoke scale (where the snapshot stays under the 1 MiB default).
  fcfg.faults.messages.bulk_threshold = 4096;

  // Detection replaces omniscience: the two node losses above are silent
  // deaths; the controller must notice them through missed heartbeats.
  // The miss threshold is sized so random probe loss (~ a few percent per
  // edge) practically never strings enough consecutive misses together
  // to declare a live node dead, while a genuinely dead endpoint — which
  // misses every edge — is declared within miss_threshold intervals.
  fcfg.heartbeat.enabled = true;
  fcfg.heartbeat.interval =
      std::max<sim::Picos>(sim::microseconds(50), horizon / 128);
  fcfg.heartbeat.miss_threshold = 4;

  // The observability stack rides along: recorder + SLO alert rules; the
  // alert transition stream is part of the reproducibility gate.
  fcfg.obs.enabled = true;
  fcfg.obs.cadence = std::max<sim::Picos>(1, acfg.mean_interarrival / 2);
  fcfg.obs.ring_capacity = 8192;
  {
    obs::AlertRule backlog;
    backlog.name = "fleet-backlog";
    backlog.instrument = "fleet.pending_jobs";
    backlog.predicate = obs::AlertPredicate::kAbove;
    backlog.threshold = 2;
    backlog.for_duration = fcfg.obs.cadence;
    backlog.severity = obs::AlertSeverity::kWarning;
    obs::AlertRule retrans;
    retrans.name = "net-retransmit-storm";
    retrans.instrument = "fabric.retransmits";
    retrans.predicate = obs::AlertPredicate::kAbove;
    retrans.threshold = 0;
    retrans.for_duration = 0;
    retrans.severity = obs::AlertSeverity::kWarning;
    fcfg.obs.alerts = {backlog, retrans};
  }

  std::printf("\nchaos storm: %llu requests over %u nodes (+%u spare), "
              "silent deaths at %.1f/%.1f ms, degrade at %.1f ms\n"
              "  drop=%.0f%% corrupt=%.0f%% dup=%.0f%% reorder=%.0f%%, "
              "heartbeat every %.3f ms, death after %u misses\n",
              static_cast<unsigned long long>(acfg.count), fcfg.nodes,
              fcfg.spares, sim::to_milliseconds(fcfg.faults.node_loss[0].time),
              sim::to_milliseconds(fcfg.faults.node_loss[1].time),
              sim::to_milliseconds(fcfg.faults.node_degrade[0].time),
              fcfg.faults.messages.drop_prob * 100,
              fcfg.faults.messages.corrupt_prob * 100,
              fcfg.faults.messages.duplicate_prob * 100,
              fcfg.faults.messages.reorder_prob * 100,
              sim::to_milliseconds(fcfg.heartbeat.interval),
              fcfg.heartbeat.miss_threshold);

  const ChaosResult a =
      run_chaos(fcfg, templates, requests, acfg.priority_classes);
  const ChaosResult b =
      run_chaos(fcfg, templates, requests, acfg.priority_classes);

  // Gate (a): chaos is seeded, so two runs are bit-for-bit identical —
  // fleet digest, every fabric transfer, every alert transition.
  const bool repro_ok = a.digest == b.digest &&
                        a.fabric_digest == b.fabric_digest &&
                        a.alert_digest == b.alert_digest;
  if (!repro_ok) {
    ++failures;
    std::fprintf(stderr,
                 "  chaos NOT reproducible: fleet %016llx/%016llx "
                 "fabric %016llx/%016llx alerts %016llx/%016llx\n",
                 static_cast<unsigned long long>(a.digest),
                 static_cast<unsigned long long>(b.digest),
                 static_cast<unsigned long long>(a.fabric_digest),
                 static_cast<unsigned long long>(b.fabric_digest),
                 static_cast<unsigned long long>(a.alert_digest),
                 static_cast<unsigned long long>(b.alert_digest));
  }
  // Gate (b): the reliability protocol actually fired.
  const bool retrans_ok =
      a.net.retransmits >= 1 && a.net.recovered_sends >= 1 && a.net.drops >= 1;
  if (!retrans_ok) {
    ++failures;
    std::fprintf(stderr,
                 "  no retransmission exercised: retransmits=%llu "
                 "recovered=%llu drops=%llu\n",
                 static_cast<unsigned long long>(a.net.retransmits),
                 static_cast<unsigned long long>(a.net.recovered_sends),
                 static_cast<unsigned long long>(a.net.drops));
  }
  // Gate (c): both silent deaths detected via the heartbeat ladder, no
  // false-positive death, victims replayed, survivors checksum-clean.
  const bool detect_ok = a.detected_losses == 2 && a.node_losses == 2 &&
                         a.replayed >= 1 && a.checksum_mismatches == 0;
  if (!detect_ok) {
    ++failures;
    std::fprintf(stderr,
                 "  detection off: detected=%llu losses=%llu replayed=%llu "
                 "mismatches=%llu\n",
                 static_cast<unsigned long long>(a.detected_losses),
                 static_cast<unsigned long long>(a.node_losses),
                 static_cast<unsigned long long>(a.replayed),
                 static_cast<unsigned long long>(a.checksum_mismatches));
  }
  // Gate (d): the evacuation blob arrived corrupt and the migration still
  // completed — by re-request, or (double corruption) the replay ladder.
  const bool evac_ok =
      a.evac_corruptions >= 1 && a.evac_rerequests >= 1 &&
      (a.evacuations >= 1 || a.evac_replays >= 1);
  if (!evac_ok) {
    ++failures;
    std::fprintf(stderr,
                 "  evac integrity off: corruptions=%llu rerequests=%llu "
                 "evacuations=%llu replays=%llu\n",
                 static_cast<unsigned long long>(a.evac_corruptions),
                 static_cast<unsigned long long>(a.evac_rerequests),
                 static_cast<unsigned long long>(a.evacuations),
                 static_cast<unsigned long long>(a.evac_replays));
  }
  // Gate (e): zero top-class SLO violations despite the chaos.
  const bool slo_ok = !a.classes.empty() && a.classes[0].violations == 0;
  if (!slo_ok) {
    ++failures;
    std::fprintf(stderr, "  top class violated its SLO %llu times\n",
                 static_cast<unsigned long long>(
                     a.classes.empty() ? 0 : a.classes[0].violations));
  }
  // Bookkeeping sanity: nothing lost track of.
  const bool book_ok = a.finished + a.failed == acfg.count;
  if (!book_ok) {
    ++failures;
    std::fprintf(stderr, "  bookkeeping off: finished+failed=%llu/%llu\n",
                 static_cast<unsigned long long>(a.finished + a.failed),
                 static_cast<unsigned long long>(acfg.count));
  }

  std::printf("\nreliability protocol\n");
  std::printf("  sends=%llu retransmits=%llu recovered=%llu exhausted=%llu\n",
              static_cast<unsigned long long>(a.net.sends),
              static_cast<unsigned long long>(a.net.retransmits),
              static_cast<unsigned long long>(a.net.recovered_sends),
              static_cast<unsigned long long>(a.net.exhausted));
  std::printf("  drops=%llu corrupt=%llu dup_discards=%llu reorders=%llu "
              "acks=%llu e2e_corrupt=%llu\n",
              static_cast<unsigned long long>(a.net.drops),
              static_cast<unsigned long long>(a.net.corruptions),
              static_cast<unsigned long long>(a.net.dup_discards),
              static_cast<unsigned long long>(a.net.reorders),
              static_cast<unsigned long long>(a.net.acks),
              static_cast<unsigned long long>(a.net.e2e_corruptions));
  std::printf("failure detection\n");
  std::printf("  probes=%llu misses=%llu suspects=%llu rejoins=%llu "
              "detected_losses=%llu\n",
              static_cast<unsigned long long>(a.hb_probes),
              static_cast<unsigned long long>(a.hb_misses),
              static_cast<unsigned long long>(a.hb_suspects),
              static_cast<unsigned long long>(a.hb_rejoins),
              static_cast<unsigned long long>(a.detected_losses));
  std::printf("evacuation integrity\n");
  std::printf("  corruptions=%llu rerequests=%llu replays=%llu "
              "evacuations=%llu\n",
              static_cast<unsigned long long>(a.evac_corruptions),
              static_cast<unsigned long long>(a.evac_rerequests),
              static_cast<unsigned long long>(a.evac_replays),
              static_cast<unsigned long long>(a.evacuations));
  std::printf("alerts: %llu transitions\n",
              static_cast<unsigned long long>(a.alert_transitions));

  std::printf("\n%-7s %9s %9s %7s %10s %10s %10s %10s\n", "class", "submit",
              "finish", "fail", "violations", "p50_ms", "p95_ms", "p99_ms");
  for (const fleet::SloSummary& c : a.classes) {
    std::printf("%-7u %9llu %9llu %7llu %10llu %10.3f %10.3f %10.3f\n",
                c.priority, static_cast<unsigned long long>(c.submitted),
                static_cast<unsigned long long>(c.finished),
                static_cast<unsigned long long>(c.failed),
                static_cast<unsigned long long>(c.violations),
                sim::to_milliseconds(c.p50), sim::to_milliseconds(c.p95),
                sim::to_milliseconds(c.p99));
    std::printf("data\tslo\t%u\t%llu\t%llu\t%llu\t%llu\n", c.priority,
                static_cast<unsigned long long>(c.submitted),
                static_cast<unsigned long long>(c.finished),
                static_cast<unsigned long long>(c.failed),
                static_cast<unsigned long long>(c.violations));
  }
  std::printf("\nnodes after the storm\n");
  for (const fleet::NodeStatus& n : a.nodes) {
    std::printf("  node %u: %-8s local_now=%.3f ms live=%u%s\n", n.id,
                std::string{to_string(n.state)}.c_str(),
                sim::to_milliseconds(n.local_now), n.live_jobs,
                n.suspected ? " SUSPECTED" : "");
  }
  std::printf(
      "\nfinished=%llu failed=%llu shed=%llu migrated=%llu replayed=%llu\n",
      static_cast<unsigned long long>(a.finished),
      static_cast<unsigned long long>(a.failed),
      static_cast<unsigned long long>(a.shed),
      static_cast<unsigned long long>(a.migrated),
      static_cast<unsigned long long>(a.replayed));
  std::printf("gates: repro=%s retrans=%s detect=%s evac=%s top-slo=%s "
              "book=%s\n",
              repro_ok ? "ok" : "FAIL", retrans_ok ? "ok" : "FAIL",
              detect_ok ? "ok" : "FAIL", evac_ok ? "ok" : "FAIL",
              slo_ok ? "ok" : "FAIL", book_ok ? "ok" : "FAIL");

  if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
    std::fprintf(f, "{\n  \"bench\": \"chaosnet\",\n  \"scale\": \"%s\",\n",
                 scale == bs::Scale::kSmall ? "small" : "default");
    std::fprintf(f, "  \"requests\": %llu,\n",
                 static_cast<unsigned long long>(acfg.count));
    std::fprintf(f,
                 "  \"finished\": %llu,\n  \"failed\": %llu,\n"
                 "  \"shed\": %llu,\n  \"migrated\": %llu,\n"
                 "  \"replayed_after_loss\": %llu,\n",
                 static_cast<unsigned long long>(a.finished),
                 static_cast<unsigned long long>(a.failed),
                 static_cast<unsigned long long>(a.shed),
                 static_cast<unsigned long long>(a.migrated),
                 static_cast<unsigned long long>(a.replayed));
    std::fprintf(f,
                 "  \"net\": {\"sends\": %llu, \"retransmits\": %llu, "
                 "\"recovered\": %llu, \"exhausted\": %llu, \"drops\": %llu, "
                 "\"corruptions\": %llu, \"dup_discards\": %llu, "
                 "\"reorders\": %llu, \"acks\": %llu, "
                 "\"e2e_corruptions\": %llu},\n",
                 static_cast<unsigned long long>(a.net.sends),
                 static_cast<unsigned long long>(a.net.retransmits),
                 static_cast<unsigned long long>(a.net.recovered_sends),
                 static_cast<unsigned long long>(a.net.exhausted),
                 static_cast<unsigned long long>(a.net.drops),
                 static_cast<unsigned long long>(a.net.corruptions),
                 static_cast<unsigned long long>(a.net.dup_discards),
                 static_cast<unsigned long long>(a.net.reorders),
                 static_cast<unsigned long long>(a.net.acks),
                 static_cast<unsigned long long>(a.net.e2e_corruptions));
    std::fprintf(f,
                 "  \"detection\": {\"probes\": %llu, \"misses\": %llu, "
                 "\"suspects\": %llu, \"rejoins\": %llu, "
                 "\"detected_losses\": %llu},\n",
                 static_cast<unsigned long long>(a.hb_probes),
                 static_cast<unsigned long long>(a.hb_misses),
                 static_cast<unsigned long long>(a.hb_suspects),
                 static_cast<unsigned long long>(a.hb_rejoins),
                 static_cast<unsigned long long>(a.detected_losses));
    std::fprintf(f,
                 "  \"evacuation\": {\"corruptions\": %llu, "
                 "\"rerequests\": %llu, \"replays\": %llu, "
                 "\"evacuations\": %llu},\n",
                 static_cast<unsigned long long>(a.evac_corruptions),
                 static_cast<unsigned long long>(a.evac_rerequests),
                 static_cast<unsigned long long>(a.evac_replays),
                 static_cast<unsigned long long>(a.evacuations));
    std::fprintf(f, "  \"makespan_ms\": %.4f,\n",
                 sim::to_milliseconds(a.makespan));
    std::fprintf(f, "  \"classes\": [\n");
    for (std::size_t i = 0; i < a.classes.size(); ++i) {
      const fleet::SloSummary& c = a.classes[i];
      std::fprintf(f,
                   "    {\"class\": %u, \"submitted\": %llu, \"finished\": "
                   "%llu, \"failed\": %llu, \"violations\": %llu, "
                   "\"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f}%s\n",
                   c.priority, static_cast<unsigned long long>(c.submitted),
                   static_cast<unsigned long long>(c.finished),
                   static_cast<unsigned long long>(c.failed),
                   static_cast<unsigned long long>(c.violations),
                   sim::to_milliseconds(c.p50), sim::to_milliseconds(c.p95),
                   sim::to_milliseconds(c.p99),
                   i + 1 < a.classes.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n  \"gates\": {\"repro_ok\": %s, \"retrans_ok\": %s, "
                 "\"detect_ok\": %s, \"evac_ok\": %s, \"top_slo_ok\": %s, "
                 "\"book_ok\": %s},\n",
                 repro_ok ? "true" : "false", retrans_ok ? "true" : "false",
                 detect_ok ? "true" : "false", evac_ok ? "true" : "false",
                 slo_ok ? "true" : "false", book_ok ? "true" : "false");
    std::fprintf(f, "  \"total_failures\": %zu,\n", failures);
    std::fprintf(f, "  \"ok\": %s\n", failures == 0 ? "true" : "false");
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", out_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }

  if (failures != 0) {
    std::fprintf(stderr, "FAIL: %zu chaosnet check failures\n", failures);
    return 1;
  }
  std::printf("all chaosnet checks passed\n");
  return 0;
}
