#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "benchsupport/scenarios.hpp"
#include "fleet/arrival.hpp"
#include "fleet/controller.hpp"

/// \file storm.hpp
/// The fleet node-kill storm shared by bench_fleet, bench_fleetscope and
/// bench_chaosnet (DESIGN.md Sections 11, 13, 14): the paper's six Table 2
/// apps in managed mode (the mode that survives co-located memory
/// pressure by eviction instead of failing) served as an open-loop
/// prioritized stream over 4 nodes + 1 spare, through two node losses and
/// one degrade-with-evacuation. The storm is held constant across the
/// three benches so any behavior change between them is attributable to
/// what each bench layers on top (observability and link flaps, message
/// chaos and heartbeats), not to a drifted workload.

namespace ghum::benchsupport::storm {

/// The storm benches' command line: --smoke, --out <file> and, when
/// \p trace is non-null, --trace <file>. Prints the usage line and returns
/// false on any other argument.
[[nodiscard]] bool parse_cli(int argc, char** argv, Scale& scale,
                             std::string& out, std::string* trace = nullptr);

/// One storm node: the Rodinia machine with 64 KiB pages and the event
/// log on (the fleet digest folds each node's event-log digest).
[[nodiscard]] core::SystemConfig node_config();

/// The six-template managed catalog: the five Rodinia apps plus the
/// 16-qubit quantum-volume simulator, with their placement footprints.
[[nodiscard]] std::vector<fleet::JobTemplate> catalog(Scale s);

/// Uninterrupted solo runs of one template on a fresh node: the first
/// incarnation's checksum is the survivors' replay reference, and the
/// *marginal* cost of the second and third back-to-back runs (one-time
/// GPU context init amortized away) is the predicted cost the
/// load-balance policy, the deadline generator and the offered load use.
void measure_solo(fleet::JobTemplate& t);

/// Everything a storm bench starts from.
struct Storm {
  Scale scale = Scale::kDefault;
  std::vector<fleet::JobTemplate> templates;  ///< solo-measured catalog
  fleet::ArrivalConfig arrivals;
  std::vector<fleet::JobRequest> requests;
  sim::Picos horizon = 0;  ///< mean interarrival x request count
  /// 4 nodes + 1 spare; node 1 lost at 3/10 of the horizon, node 0
  /// degraded (and evacuated to the spare) at 1/2, node 2 lost at 7/10.
  fleet::FleetConfig fleet;
};

/// Builds the catalog, runs (and prints) the solo pass, and derives the
/// arrival stream — 48 or 240 requests at offered load ~1.0 of the 4-node
/// fleet (mean interarrival = mean solo cost / 4) — and the base fleet.
[[nodiscard]] Storm build(Scale s);

/// One finished storm, harvested from its Controller.
struct Outcome {
  std::uint64_t digest = 0;  ///< fleet digest (nodes + jobs + metrics)
  std::uint64_t finished = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::uint64_t migrated = 0;
  std::uint64_t replayed = 0;
  std::uint64_t checksum_mismatches = 0;  ///< finished != solo checksum
  std::uint64_t node_losses = 0;
  std::uint64_t evacuations = 0;
  sim::Picos makespan = 0;
  std::vector<fleet::SloSummary> classes;
  std::vector<fleet::NodeStatus> nodes;
};

/// Reads a Controller after run() into an Outcome, over \p classes
/// priority classes.
[[nodiscard]] Outcome harvest(fleet::Controller& ctl, std::uint32_t classes);

/// One line per top-class (priority 0) job that violated its SLO.
void print_top_violators(const fleet::Controller& ctl);

/// The per-class SLO table (plus "data\tslo" rows), the node table and
/// the finished/failed/shed/migrated/replayed totals line.
void print_outcome(const Outcome& o);

/// JSON fields the storm benches share. json_head opens the object with
/// "bench", "scale" and "requests"; json_totals writes the job totals;
/// json_slo writes "makespan_ms" and the "classes" array.
void json_head(std::FILE* f, std::string_view bench, const Storm& st);
void json_totals(std::FILE* f, const Outcome& o);
void json_slo(std::FILE* f, const Outcome& o);

}  // namespace ghum::benchsupport::storm
