// Fleet fault-domain bench (DESIGN.md Section 11). A node-kill storm is
// driven over a 4-node simulated superchip fleet (+1 spare) serving an
// open-loop stream of prioritized, deadlined requests over the six-app
// catalog. Mid-stream, one node is killed outright, one is degraded (and
// live-migrated onto the spare), and a second node is killed — the fleet
// must degrade instead of collapsing. The storm itself (catalog, solo
// pass, arrivals, faults) is benchsupport/storm, shared with
// bench_fleetscope and bench_chaosnet. Three gates, all enforced (nonzero
// exit on any violation):
//
//   (a) bit-for-bit reproducibility: two complete runs of the storm
//       produce identical fleet digests (per-node event-log digests +
//       every job's terminal record + the metrics exposition), and the
//       arrival generator emits an identical 2000-request stream twice;
//   (b) replay equivalence: every job that survives the storm — including
//       jobs live-migrated off the degraded node and jobs replayed after
//       losing theirs — finishes with the output checksum of its
//       uninterrupted solo run;
//   (c) SLO preservation: zero violations among top-priority (class 0)
//       jobs; lower classes absorb the capacity loss via shedding,
//       deadline cancellation, and queueing.
//
// Flags:
//   --smoke       small problem sizes (the ctest "perf" smoke target)
//   --out <file>  output JSON path (default BENCH_fleet.json)

#include <cstdio>
#include <string>
#include <vector>

#include "benchsupport/report.hpp"
#include "benchsupport/storm.hpp"

using namespace ghum;
namespace bs = benchsupport;

namespace {

bs::storm::Outcome run_storm(const bs::storm::Storm& st) {
  fleet::Controller ctl{st.fleet, st.templates};
  (void)ctl.run(st.requests);
  bs::storm::print_top_violators(ctl);
  return bs::storm::harvest(ctl, st.arrivals.priority_classes);
}

}  // namespace

int main(int argc, char** argv) {
  bs::Scale scale = bs::Scale::kDefault;
  std::string out_path = "BENCH_fleet.json";
  if (!bs::storm::parse_cli(argc, argv, scale, out_path)) return 2;

  bs::print_figure_header(
      "Fleet", "node-kill storm over a simulated superchip fleet",
      "4 nodes + 1 spare serve an open-loop prioritized stream through two "
      "node losses and one degradation-with-live-migration; the fleet must "
      "be bit-for-bit reproducible, replay-equivalent, and keep the top "
      "class violation-free");

  std::size_t failures = 0;

  const bs::storm::Storm st = bs::storm::build(scale);

  // Gate (a1): the generator itself is deterministic at scale — two
  // 2000-request streams must be identical.
  {
    fleet::ArrivalConfig big = st.arrivals;
    big.count = 2000;
    const bool same = fleet::generate_arrivals(big, st.templates) ==
                      fleet::generate_arrivals(big, st.templates);
    if (!same) {
      ++failures;
      std::fprintf(stderr, "  arrival stream NOT deterministic\n");
    }
    std::printf("arrival determinism (2000 requests): %s\n",
                same ? "ok" : "FAIL");
  }

  const fleet::FleetConfig& fcfg = st.fleet;
  std::printf("\nnode-kill storm: %llu requests over %u nodes (+%u spare), "
              "losses at %.1f/%.1f ms, degrade at %.1f ms\n",
              static_cast<unsigned long long>(st.arrivals.count), fcfg.nodes,
              fcfg.spares, sim::to_milliseconds(fcfg.faults.node_loss[0].time),
              sim::to_milliseconds(fcfg.faults.node_loss[1].time),
              sim::to_milliseconds(fcfg.faults.node_degrade[0].time));

  const bs::storm::Outcome a = run_storm(st);
  const bs::storm::Outcome b = run_storm(st);

  // Gate (a2): bit-for-bit storm reproducibility.
  const bool repro_ok = a.digest == b.digest;
  if (!repro_ok) {
    ++failures;
    std::fprintf(stderr, "  storm NOT reproducible: %016llx vs %016llx\n",
                 static_cast<unsigned long long>(a.digest),
                 static_cast<unsigned long long>(b.digest));
  }
  // Gate (b): replay equivalence of every survivor.
  const bool replay_ok = a.checksum_mismatches == 0;
  if (!replay_ok) {
    ++failures;
    std::fprintf(stderr, "  %llu survivors diverged from their solo runs\n",
                 static_cast<unsigned long long>(a.checksum_mismatches));
  }
  // Gate (c): zero top-class SLO violations.
  const bool slo_ok = !a.classes.empty() && a.classes[0].violations == 0;
  if (!slo_ok) {
    ++failures;
    std::fprintf(stderr, "  top class violated its SLO %llu times\n",
                 static_cast<unsigned long long>(
                     a.classes.empty() ? 0 : a.classes[0].violations));
  }
  // Sanity: every fault fired, the migration happened, nothing was lost
  // track of (finished + failed == submitted).
  const bool storm_ok = a.node_losses == 2 && a.evacuations == 1 &&
                        a.finished + a.failed == st.arrivals.count;
  if (!storm_ok) {
    ++failures;
    std::fprintf(stderr,
                 "  storm bookkeeping off: losses=%llu evac=%llu "
                 "finished+failed=%llu/%llu\n",
                 static_cast<unsigned long long>(a.node_losses),
                 static_cast<unsigned long long>(a.evacuations),
                 static_cast<unsigned long long>(a.finished + a.failed),
                 static_cast<unsigned long long>(st.arrivals.count));
  }

  const bs::Gates gates = {{"repro", repro_ok},
                           {"replay", replay_ok},
                           {"top-slo", slo_ok},
                           {"storm", storm_ok}};
  bs::storm::print_outcome(a);
  bs::print_gates(gates);

  if (!bs::write_artifact(out_path, [&](std::FILE* f) {
        bs::storm::json_head(f, "fleet", st);
        bs::storm::json_totals(f, a);
        bs::storm::json_slo(f, a);
        bs::json_gates(f, gates);
        bs::json_tail(f, failures);
      })) {
    return 1;
  }

  return bs::verdict("fleet", failures);
}
