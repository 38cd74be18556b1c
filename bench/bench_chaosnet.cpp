// Lossy-fabric survival bench (DESIGN.md Section 14). The bench_fleet
// node-kill storm (benchsupport/storm) is re-run with every control and
// data message subject to a seeded chaos schedule — drops, corruptions,
// duplicates and reorders on every fabric link — and with the omniscient
// fault oracle replaced by heartbeat-based failure detection. The two scheduled node
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
#include <string>
#include <vector>

#include "benchsupport/report.hpp"
#include "benchsupport/storm.hpp"

using namespace ghum;
namespace bs = benchsupport;

namespace {

struct ChaosResult {
  bs::storm::Outcome storm;
  std::uint64_t fabric_digest = 0;  ///< every transfer's cost fingerprint
  std::uint64_t alert_digest = 0;   ///< the alert transition stream
  std::uint64_t detected_losses = 0;
  std::uint64_t hb_probes = 0;
  std::uint64_t hb_misses = 0;
  std::uint64_t hb_suspects = 0;
  std::uint64_t hb_rejoins = 0;
  std::uint64_t evac_corruptions = 0;
  std::uint64_t evac_rerequests = 0;
  std::uint64_t evac_replays = 0;
  std::uint64_t alert_transitions = 0;
  net::ReliableTotals net;
};

ChaosResult run_chaos(const bs::storm::Storm& st) {
  fleet::Controller ctl{st.fleet, st.templates};
  (void)ctl.run(st.requests);
  bs::storm::print_top_violators(ctl);

  ChaosResult r;
  r.storm = bs::storm::harvest(ctl, st.arrivals.priority_classes);
  r.fabric_digest = ctl.fabric()->digest();
  r.net = ctl.fabric()->reliable_totals();
  if (const obs::AlertEngine* ae = ctl.alert_engine()) {
    r.alert_transitions = ae->events().size();
    r.alert_digest = ae->digest();
  }
  obs::MetricsRegistry& m = ctl.metrics();
  r.detected_losses = m.counter("ghum_fleet_detected_losses_total").value();
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
  if (!bs::storm::parse_cli(argc, argv, scale, out_path)) return 2;

  bs::print_figure_header(
      "ChaosNet", "node-kill storm over a lossy fabric",
      "the bench_fleet storm re-run with seeded per-link message chaos "
      "(drop/corrupt/duplicate/reorder), heartbeat-based failure detection "
      "instead of an omniscient oracle, and a corrupted evacuation blob — "
      "survival must be reproducible, checksum-clean and top-class "
      "violation-free");

  std::size_t failures = 0;

  // Same storm and offered load as bench_fleet — chaos rides on top of a
  // fleet that is already busy when its nodes start dying.
  bs::storm::Storm st = bs::storm::build(scale);
  const sim::Picos horizon = st.horizon;
  fleet::FleetConfig& fcfg = st.fleet;

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
  fcfg.obs.cadence =
      std::max<sim::Picos>(1, st.arrivals.mean_interarrival / 2);
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
              static_cast<unsigned long long>(st.arrivals.count), fcfg.nodes,
              fcfg.spares, sim::to_milliseconds(fcfg.faults.node_loss[0].time),
              sim::to_milliseconds(fcfg.faults.node_loss[1].time),
              sim::to_milliseconds(fcfg.faults.node_degrade[0].time),
              fcfg.faults.messages.drop_prob * 100,
              fcfg.faults.messages.corrupt_prob * 100,
              fcfg.faults.messages.duplicate_prob * 100,
              fcfg.faults.messages.reorder_prob * 100,
              sim::to_milliseconds(fcfg.heartbeat.interval),
              fcfg.heartbeat.miss_threshold);

  const ChaosResult a = run_chaos(st);
  const ChaosResult b = run_chaos(st);

  // Gate (a): chaos is seeded, so two runs are bit-for-bit identical —
  // fleet digest, every fabric transfer, every alert transition.
  const bool repro_ok = a.storm.digest == b.storm.digest &&
                        a.fabric_digest == b.fabric_digest &&
                        a.alert_digest == b.alert_digest;
  if (!repro_ok) {
    ++failures;
    std::fprintf(stderr,
                 "  chaos NOT reproducible: fleet %016llx/%016llx "
                 "fabric %016llx/%016llx alerts %016llx/%016llx\n",
                 static_cast<unsigned long long>(a.storm.digest),
                 static_cast<unsigned long long>(b.storm.digest),
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
  const bool detect_ok = a.detected_losses == 2 && a.storm.node_losses == 2 &&
                         a.storm.replayed >= 1 && a.storm.checksum_mismatches == 0;
  if (!detect_ok) {
    ++failures;
    std::fprintf(stderr,
                 "  detection off: detected=%llu losses=%llu replayed=%llu "
                 "mismatches=%llu\n",
                 static_cast<unsigned long long>(a.detected_losses),
                 static_cast<unsigned long long>(a.storm.node_losses),
                 static_cast<unsigned long long>(a.storm.replayed),
                 static_cast<unsigned long long>(a.storm.checksum_mismatches));
  }
  // Gate (d): the evacuation blob arrived corrupt and the migration still
  // completed — by re-request, or (double corruption) the replay ladder.
  const bool evac_ok =
      a.evac_corruptions >= 1 && a.evac_rerequests >= 1 &&
      (a.storm.evacuations >= 1 || a.evac_replays >= 1);
  if (!evac_ok) {
    ++failures;
    std::fprintf(stderr,
                 "  evac integrity off: corruptions=%llu rerequests=%llu "
                 "evacuations=%llu replays=%llu\n",
                 static_cast<unsigned long long>(a.evac_corruptions),
                 static_cast<unsigned long long>(a.evac_rerequests),
                 static_cast<unsigned long long>(a.storm.evacuations),
                 static_cast<unsigned long long>(a.evac_replays));
  }
  // Gate (e): zero top-class SLO violations despite the chaos.
  const bool slo_ok =
      !a.storm.classes.empty() && a.storm.classes[0].violations == 0;
  if (!slo_ok) {
    ++failures;
    std::fprintf(stderr, "  top class violated its SLO %llu times\n",
                 static_cast<unsigned long long>(
                     a.storm.classes.empty() ? 0
                                             : a.storm.classes[0].violations));
  }
  // Bookkeeping sanity: nothing lost track of.
  const bool book_ok = a.storm.finished + a.storm.failed == st.arrivals.count;
  if (!book_ok) {
    ++failures;
    std::fprintf(stderr, "  bookkeeping off: finished+failed=%llu/%llu\n",
                 static_cast<unsigned long long>(a.storm.finished +
                                                 a.storm.failed),
                 static_cast<unsigned long long>(st.arrivals.count));
  }

  const bs::Counts detection = {{"probes", a.hb_probes},
                                {"misses", a.hb_misses},
                                {"suspects", a.hb_suspects},
                                {"rejoins", a.hb_rejoins},
                                {"detected_losses", a.detected_losses}};
  const bs::Counts evacuation = {{"corruptions", a.evac_corruptions},
                                 {"rerequests", a.evac_rerequests},
                                 {"replays", a.evac_replays},
                                 {"evacuations", a.storm.evacuations}};
  std::printf("\nreliability protocol\n");
  bs::print_counts({{"sends", a.net.sends},
                    {"retransmits", a.net.retransmits},
                    {"recovered", a.net.recovered_sends},
                    {"exhausted", a.net.exhausted}});
  bs::print_counts({{"drops", a.net.drops},
                    {"corrupt", a.net.corruptions},
                    {"dup_discards", a.net.dup_discards},
                    {"reorders", a.net.reorders},
                    {"acks", a.net.acks},
                    {"e2e_corrupt", a.net.e2e_corruptions}});
  std::printf("failure detection\n");
  bs::print_counts(detection);
  std::printf("evacuation integrity\n");
  bs::print_counts(evacuation);
  std::printf("alerts: %llu transitions\n",
              static_cast<unsigned long long>(a.alert_transitions));

  const bs::Gates gates = {
      {"repro", repro_ok}, {"retrans", retrans_ok}, {"detect", detect_ok},
      {"evac", evac_ok},   {"top-slo", slo_ok},     {"book", book_ok}};
  bs::storm::print_outcome(a.storm);
  bs::print_gates(gates);

  if (!bs::write_artifact(out_path, [&](std::FILE* f) {
        bs::storm::json_head(f, "chaosnet", st);
        bs::storm::json_totals(f, a.storm);
        bs::json_object(f, "net",
                        {{"sends", a.net.sends},
                         {"retransmits", a.net.retransmits},
                         {"recovered", a.net.recovered_sends},
                         {"exhausted", a.net.exhausted},
                         {"drops", a.net.drops},
                         {"corruptions", a.net.corruptions},
                         {"dup_discards", a.net.dup_discards},
                         {"reorders", a.net.reorders},
                         {"acks", a.net.acks},
                         {"e2e_corruptions", a.net.e2e_corruptions}});
        bs::json_object(f, "detection", detection);
        bs::json_object(f, "evacuation", evacuation);
        bs::storm::json_slo(f, a.storm);
        bs::json_gates(f, gates);
        bs::json_tail(f, failures);
      })) {
    return 1;
  }

  return bs::verdict("chaosnet", failures);
}
