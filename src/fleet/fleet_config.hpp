#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apps/app_common.hpp"
#include "core/system_config.hpp"
#include "fault/fleet_fault.hpp"
#include "net/net_spec.hpp"
#include "obs/alerts.hpp"
#include "tenant/scheduler.hpp"

/// \file fleet_config.hpp
/// Configuration of the simulated superchip fleet (DESIGN.md Section 11):
/// job templates and requests, the open-loop arrival process, and the
/// fleet::Controller's placement / retry / admission knobs. Every
/// inter-node message is priced by the net::Fabric built from
/// FleetConfig::net (Section 12).

namespace ghum::fleet {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = ~0u;

/// How the controller picks a node for a new placement.
enum class PlacementPolicy : std::uint8_t {
  /// Least predicted local completion time: the node whose local clock
  /// plus estimated backlog (sum of resident jobs' predicted solo costs)
  /// is earliest — spreads latency instead of footprint.
  kLoadBalance,
};

/// One kind of job the fleet serves: an app x memory-mode instance with
/// the footprint it declares at admission and the predicted solo runtime
/// the load-balance policy and the deadline generator both use. The
/// factory must be stateless and replayable — node loss rebuilds the
/// coroutine from it on another machine, and determinism of the replayed
/// result (equal checksum) is gated by bench_fleet.
struct JobTemplate {
  std::string name;
  apps::MemMode mode = apps::MemMode::kManaged;
  std::function<apps::AppCoro(runtime::Runtime&)> make;
  std::uint64_t footprint_bytes = 0;
  /// Predicted solo runtime (bench_fleet measures it from solo runs).
  sim::Picos est_cost = 0;
  /// Reference output digest of an uninterrupted solo run; 0 = unknown.
  /// The controller never reads it: callers compare finished jobs'
  /// checksums against it (bench_fleet, bench_chaosnet and perfbench do).
  std::uint64_t solo_checksum = 0;
};

/// One generated request of the open-loop arrival process.
struct JobRequest {
  std::uint64_t id = 0;        ///< unique, dense from 0 (indexes Controller::jobs())
  sim::Picos arrival = 0;      ///< fleet-time arrival
  std::uint32_t tmpl = 0;      ///< index into the template catalog
  std::uint32_t priority = 0;  ///< 0 = top class (tighter SLO, never shed)
  sim::Picos deadline = 0;     ///< absolute fleet-time SLO deadline
  std::uint32_t replicas = 1;  ///< anti-affinity: replicas on distinct nodes

  bool operator==(const JobRequest&) const = default;
};

/// Open-loop (arrivals never wait for completions) deterministic request
/// generator. Same seed + same templates => bit-identical request stream.
struct ArrivalConfig {
  std::uint64_t seed = 0xF1EE7ull;
  std::uint64_t count = 1000;
  /// Mean inter-arrival gap; gaps are uniform in [0, 2*mean] drawn from a
  /// dedicated sim::Rng (integer arithmetic only — cross-platform stable).
  sim::Picos mean_interarrival = sim::microseconds(200);
  std::uint32_t priority_classes = 3;
  /// Draw weight per class (index = class). Empty => uniform.
  std::vector<std::uint32_t> class_weights;
  /// Deadline = arrival + est_cost * factor[min(class, size-1)]. Top
  /// classes get looser factors here only if you want them loose — the
  /// default gives the top class the most headroom because bench_fleet's
  /// SLO gate demands zero top-class violations through a node-kill storm.
  std::vector<double> deadline_factor = {64.0, 24.0, 12.0};
  /// Minimum SLO headroom regardless of predicted cost: deadline =
  /// arrival + max(deadline_floor, est_cost * factor). A real latency SLO
  /// is a fixed target; a pure cost multiple gives short jobs physically
  /// impossible deadlines (one cold GPU context init can exceed them).
  sim::Picos deadline_floor = 0;
  /// Replica count for top-class (priority 0) requests; others get 1.
  std::uint32_t top_replicas = 1;
};

/// Fleet-wide observability (DESIGN.md Section 13): the deterministic
/// flight recorder, the SLO alert rules evaluated on it, and the causal
/// trace stream the Chrome exporter renders.
struct FleetObsConfig {
  /// Master switch. Off = no recorder, no alerts, no trace events —
  /// pre-PR-9 behavior bit-for-bit (digest() then mixes nothing new).
  bool enabled = false;
  /// Recorder sampling cadence in fleet time.
  sim::Picos cadence = sim::milliseconds(1);
  /// Samples retained per series (ring capacity).
  std::size_t ring_capacity = 4096;
  /// Declarative SLO alert rules; instruments name recorder series.
  std::vector<obs::AlertRule> alerts;
};

/// Heartbeat-based failure detection (DESIGN.md Section 14). With it off,
/// the controller learns of a node loss the instant it happens — the
/// omniscient pre-PR-10 model. With it on, the controller only believes
/// what the fabric tells it: every interval it probes each active node and
/// counts the response; a missed edge (probe or response dropped,
/// corrupted, late, or the endpoint silently dead) moves the node to
/// suspected — excluded from new placements but otherwise undisturbed —
/// and miss_threshold consecutive misses declare it dead and trigger the
/// node-loss recovery ladder. An on-time response clears suspicion (the
/// false-positive rejoin path: no replay, no double placement).
struct HeartbeatConfig {
  bool enabled = false;
  /// Probe cadence; the response must land before the *next* edge.
  sim::Picos interval = sim::microseconds(500);
  /// Consecutive missed edges before the node is declared dead.
  std::uint32_t miss_threshold = 3;
  /// Wire size of one probe and of one response.
  std::uint64_t heartbeat_bytes = 128;
};

struct FleetConfig {
  /// Active superchips at t=0.
  std::uint32_t nodes = 4;
  /// Powered-off replacements; evacuation targets for degraded nodes.
  std::uint32_t spares = 1;
  /// Per-node machine configuration (every node is identical).
  core::SystemConfig node_config;
  /// Per-node co-scheduler configuration. Policy kPriority is what makes
  /// the fleet's SLO story work — top-class jobs run first on every node.
  tenant::SchedulerConfig scheduler;
  PlacementPolicy placement = PlacementPolicy::kLoadBalance;

  /// Inter-node fabric cost model (DESIGN.md Section 12). The controller
  /// builds a net::Fabric with nodes + spares + 2 endpoints (the two extra
  /// are the external arrival source and the control plane) and charges
  /// live-migration blobs, arrival notifications and placement commands
  /// through it with full UCX-style protocol selection. Rejected at
  /// construction with Status::kErrorNetConfig if malformed.
  net::NetSpec net;

  /// Bounded re-placement of jobs lost with their node: up to this many
  /// attempts, the k-th scheduled replace_backoff * 2^(k-1) after the
  /// loss. Exhaustion fails the job with Status::kErrorNodeLost.
  std::uint32_t replace_max_retries = 3;
  sim::Picos replace_backoff = sim::microseconds(100);

  /// Admission control: priority classes below this index are never shed
  /// and never cancelled while running — the protected SLO tier. Running
  /// jobs of the other classes that blew past their deadline are
  /// cancelled, freeing capacity for jobs that can still meet theirs.
  std::uint32_t shed_protect_classes = 1;

  /// Controller-side per-node footprint budget for placement decisions.
  /// 0 = the machine's physical capacity (HBM + DDR).
  std::uint64_t node_footprint_budget = 0;

  fault::FleetFaultConfig faults;

  HeartbeatConfig heartbeat;

  FleetObsConfig obs;
};

}  // namespace ghum::fleet
