// Fleet observability bench (DESIGN.md Section 13). The bench_fleet
// node-kill storm (benchsupport/storm) is re-run with the full
// observability stack on — the deterministic flight recorder, the SLO
// alert engine, cross-node causal tracing, and link-flap windows on the
// fabric — twice, and gates the stack's core promises (nonzero exit on any
// violation):
//
//   (a) bit-for-bit alerting: the two runs produce identical alert
//       open/close sequences (engine digests), identical recorder digests,
//       and identical fleet digests — turning observability on does not
//       perturb the storm, and the storm does not perturb observability;
//   (b) federation equality: every counter in the federated registry
//       equals the per-source sum (fleet registry + each live node's
//       machine registry), at nonzero values, and both expositions parse;
//   (c) cross-node span continuity: at least one finished job carries a
//       root span rooted on a *different* node than the one it finished on
//       (a loss-replay chain crossed a machine boundary), and the exported
//       fleet Chrome trace is strictly valid JSON containing that span's
//       flow arrows plus the link-flap duration events.
//
// Flags:
//   --smoke         small problem sizes (the ctest "perf" smoke target)
//   --out <file>    output JSON path (default BENCH_fleetscope.json)
//   --trace <file>  fleet Chrome trace path (default trace_fleetscope.json)

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "benchsupport/report.hpp"
#include "benchsupport/storm.hpp"
#include "obs/json_check.hpp"

using namespace ghum;
namespace bs = benchsupport;

namespace {

/// Label-blind per-name counter sums over one registry.
std::map<std::string, std::uint64_t> counter_sums(
    const obs::MetricsRegistry& reg) {
  std::map<std::string, std::uint64_t> out;
  reg.for_each([&](const obs::MetricsRegistry::InstrumentView& v) {
    if (v.counter != nullptr) out[std::string{v.name}] += v.counter->value();
  });
  return out;
}

struct ScopeResult {
  bs::storm::Outcome storm;
  std::uint64_t recorder_digest = 0;
  std::uint64_t alert_digest = 0;
  std::uint64_t alerts_opened = 0;
  std::uint64_t alerts_closed = 0;
  std::uint64_t recorder_samples = 0;
  std::uint64_t trace_events = 0;
  std::uint64_t cross_node_spans = 0;   ///< finished jobs, origin != completion
  std::uint64_t traced_transfers = 0;   ///< fabric messages carrying a span
  bool federation_ok = false;
  bool federation_nonzero = false;
  bool expositions_parse = false;
  bool unresolved_rules = false;
  std::string chrome_trace;
  std::string recorder_json;
};

ScopeResult run_scope(const bs::storm::Storm& st) {
  const fleet::FleetConfig& cfg = st.fleet;
  fleet::Controller ctl{cfg, st.templates};
  (void)ctl.run(st.requests);

  ScopeResult r;
  r.storm = bs::storm::harvest(ctl, st.arrivals.priority_classes);
  if (ctl.recorder() != nullptr) {
    r.recorder_digest = ctl.recorder()->digest();
    r.recorder_samples = ctl.recorder()->size();
    r.recorder_json = ctl.recorder()->to_json();
  }
  if (ctl.alert_engine() != nullptr) {
    r.alert_digest = ctl.alert_engine()->digest();
    r.unresolved_rules = !ctl.alert_engine()->unresolved().empty();
  }
  r.alerts_opened =
      ctl.metrics().counter("ghum_fleet_alerts_opened_total").value();
  r.alerts_closed =
      ctl.metrics().counter("ghum_fleet_alerts_closed_total").value();
  r.trace_events = ctl.trace_events().size();

  for (const fleet::FleetJob& j : ctl.jobs()) {
    if (j.state == fleet::FleetJobState::kFinished && j.ctx.traced() &&
        j.ctx.origin_node != obs::TraceContext::kExternal &&
        j.completion_node != fleet::kNoNode &&
        j.completion_node != j.ctx.origin_node) {
      ++r.cross_node_spans;
    }
  }
  for (const net::TransferRecord& t : ctl.fabric()->log()) {
    if (t.ctx.traced()) ++r.traced_transfers;
  }

  // Gate (b): the federated registry against the per-source ground truth.
  obs::MetricsRegistry fed = ctl.federated_metrics();
  std::map<std::string, std::uint64_t> expect = counter_sums(ctl.metrics());
  for (fleet::NodeId id = 0; id < cfg.nodes + cfg.spares; ++id) {
    const obs::MetricsRegistry* nm = ctl.node_metrics(id);
    if (nm == nullptr) continue;  // dead or still-spare node: no machine
    for (const auto& [name, v] : counter_sums(*nm)) expect[name] += v;
  }
  r.federation_ok = counter_sums(fed) == expect;
  std::uint64_t nonzero = 0;
  for (const auto& [name, v] : expect) nonzero += v != 0 ? 1 : 0;
  r.federation_nonzero = nonzero >= 10;
  std::string err;
  r.expositions_parse = obs::json_valid(ctl.metrics_json(), &err) &&
                        obs::json_valid(r.recorder_json, &err);

  r.chrome_trace = ctl.chrome_trace();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bs::Scale scale = bs::Scale::kDefault;
  std::string out_path = "BENCH_fleetscope.json";
  std::string trace_path = "trace_fleetscope.json";
  if (!bs::storm::parse_cli(argc, argv, scale, out_path, &trace_path)) return 2;

  bs::print_figure_header(
      "FleetScope", "fleet-wide observability through a node-kill storm",
      "the bench_fleet storm re-runs with the flight recorder, SLO alert "
      "engine, causal tracing and link flaps on: alert firings must be "
      "bit-for-bit reproducible, the federated registry must equal the "
      "per-node sums, and a root span must cross a node boundary");

  std::size_t failures = 0;

  bs::storm::Storm st = bs::storm::build(scale);
  // A deliberately hostile template name: it flows into trace labels and
  // must survive the JSON escaping path end to end. Names are labels only,
  // so renaming after the solo pass changes no cost or checksum.
  st.templates.back().name = "qv\"sim\\16\n";

  // The bench_fleet storm plus a link-flap window over the
  // loss/evacuation stretch, so traced transfers cross a degraded fabric.
  const sim::Picos horizon = st.horizon;
  fleet::FleetConfig& fcfg = st.fleet;
  fcfg.faults.link_flap = {{.start = (horizon * 2) / 10,
                            .duration = horizon / 5,
                            .node_a = 3,
                            .node_b = fault::LinkFlapWindow::kAllPeers,
                            .bandwidth_factor = 4.0,
                            .latency_factor = 2.0}};

  // The observability stack under test.
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
    obs::AlertRule slo;
    slo.name = "class2-slo-burn";
    slo.instrument = "class2.slo_attainment_permille";
    slo.predicate = obs::AlertPredicate::kBelow;
    slo.threshold = 900;
    slo.for_duration = 0;
    slo.burn_window = 8 * fcfg.obs.cadence;
    slo.severity = obs::AlertSeverity::kCritical;
    fcfg.obs.alerts = {backlog, slo};
  }

  std::printf("\nstorm under observation: %llu requests, cadence=%.3f ms, "
              "losses at %.1f/%.1f ms, degrade at %.1f ms, flap %.1f-%.1f ms\n",
              static_cast<unsigned long long>(st.arrivals.count),
              sim::to_milliseconds(fcfg.obs.cadence),
              sim::to_milliseconds(fcfg.faults.node_loss[0].time),
              sim::to_milliseconds(fcfg.faults.node_loss[1].time),
              sim::to_milliseconds(fcfg.faults.node_degrade[0].time),
              sim::to_milliseconds(fcfg.faults.link_flap[0].start),
              sim::to_milliseconds(fcfg.faults.link_flap[0].start +
                                   fcfg.faults.link_flap[0].duration));

  const ScopeResult a = run_scope(st);
  const ScopeResult b = run_scope(st);

  // Gate (a): bit-for-bit alerting + recorder + fleet digest.
  const bool repro_ok = a.storm.digest == b.storm.digest &&
                        a.recorder_digest == b.recorder_digest &&
                        a.alert_digest == b.alert_digest &&
                        a.alerts_opened == b.alerts_opened &&
                        a.alerts_closed == b.alerts_closed &&
                        a.recorder_json == b.recorder_json &&
                        a.chrome_trace == b.chrome_trace;
  if (!repro_ok) {
    ++failures;
    std::fprintf(stderr,
                 "  NOT reproducible: fleet %016llx/%016llx recorder "
                 "%016llx/%016llx alerts %016llx/%016llx\n",
                 static_cast<unsigned long long>(a.storm.digest),
                 static_cast<unsigned long long>(b.storm.digest),
                 static_cast<unsigned long long>(a.recorder_digest),
                 static_cast<unsigned long long>(b.recorder_digest),
                 static_cast<unsigned long long>(a.alert_digest),
                 static_cast<unsigned long long>(b.alert_digest));
  }
  // The rules must resolve and actually fire, and at least one firing
  // must also clear (the SLO-burn rule may stay open through the end of
  // the horizon: failed jobs permanently depress class attainment).
  const bool alerts_ok = !a.unresolved_rules && a.alerts_opened >= 1 &&
                         a.alerts_closed >= 1 &&
                         a.alerts_closed <= a.alerts_opened;
  if (!alerts_ok) {
    ++failures;
    std::fprintf(stderr, "  alerting off: unresolved=%d opened=%llu closed=%llu\n",
                 a.unresolved_rules ? 1 : 0,
                 static_cast<unsigned long long>(a.alerts_opened),
                 static_cast<unsigned long long>(a.alerts_closed));
  }
  // Gate (b): federation equality at nonzero values, parsing expositions.
  const bool federation_ok =
      a.federation_ok && a.federation_nonzero && a.expositions_parse;
  if (!federation_ok) {
    ++failures;
    std::fprintf(stderr, "  federation broken: equal=%d nonzero=%d parse=%d\n",
                 a.federation_ok ? 1 : 0, a.federation_nonzero ? 1 : 0,
                 a.expositions_parse ? 1 : 0);
  }
  // Gate (c): cross-node span continuity + valid fleet trace.
  std::string err;
  const bool trace_valid = obs::json_valid(a.chrome_trace, &err);
  const bool spans_ok = a.cross_node_spans >= 1 && a.traced_transfers >= 1 &&
                        trace_valid &&
                        a.chrome_trace.find("\"ph\":\"s\"") != std::string::npos &&
                        a.chrome_trace.find("\"ph\":\"f\"") != std::string::npos &&
                        a.chrome_trace.find("link flap") != std::string::npos;
  if (!spans_ok) {
    ++failures;
    std::fprintf(stderr,
                 "  span continuity broken: cross=%llu transfers=%llu "
                 "valid=%d (%s)\n",
                 static_cast<unsigned long long>(a.cross_node_spans),
                 static_cast<unsigned long long>(a.traced_transfers),
                 trace_valid ? 1 : 0, err.c_str());
  }

  std::printf("\nfinished=%llu failed=%llu samples=%llu trace_events=%llu "
              "alerts=%llu/%llu cross_node_spans=%llu traced_transfers=%llu\n",
              static_cast<unsigned long long>(a.storm.finished),
              static_cast<unsigned long long>(a.storm.failed),
              static_cast<unsigned long long>(a.recorder_samples),
              static_cast<unsigned long long>(a.trace_events),
              static_cast<unsigned long long>(a.alerts_opened),
              static_cast<unsigned long long>(a.alerts_closed),
              static_cast<unsigned long long>(a.cross_node_spans),
              static_cast<unsigned long long>(a.traced_transfers));
  std::printf("data\tfleetscope\t%llu\t%llu\t%llu\t%llu\t%llu\n",
              static_cast<unsigned long long>(a.recorder_samples),
              static_cast<unsigned long long>(a.trace_events),
              static_cast<unsigned long long>(a.alerts_opened),
              static_cast<unsigned long long>(a.cross_node_spans),
              static_cast<unsigned long long>(a.traced_transfers));
  const bs::Gates gates = {{"repro", repro_ok},
                           {"alerts", alerts_ok},
                           {"federation", federation_ok},
                           {"spans", spans_ok}};
  bs::print_gates(gates);

  if (!bs::write_artifact(trace_path, [&](std::FILE* f) {
        std::fwrite(a.chrome_trace.data(), 1, a.chrome_trace.size(), f);
      })) {
    return 1;
  }

  if (!bs::write_artifact(out_path, [&](std::FILE* f) {
        bs::storm::json_head(f, "fleetscope", st);
        bs::json_counts(f, {{"finished", a.storm.finished},
                            {"failed", a.storm.failed},
                            {"recorder_samples", a.recorder_samples},
                            {"trace_events", a.trace_events},
                            {"alerts_opened", a.alerts_opened},
                            {"alerts_closed", a.alerts_closed},
                            {"cross_node_spans", a.cross_node_spans},
                            {"traced_transfers", a.traced_transfers}});
        bs::json_gates(f, gates);
        bs::json_tail(f, failures);
      })) {
    return 1;
  }

  return bs::verdict("fleetscope", failures);
}
