#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "fleet/fleet_config.hpp"
#include "net/fabric.hpp"
#include "obs/alerts.hpp"
#include "obs/fleet_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"

/// \file controller.hpp
/// fleet::Controller — N simulated Grace Hopper superchips (each a
/// core::System + tenant::Scheduler) under one deterministic control
/// plane (DESIGN.md Section 11). The controller owns:
///
///  - placement: load-balance by predicted local completion, with
///    anti-affinity (replicas of one request never share a node) and
///    per-node footprint budgets;
///  - the fleet fault domain: deterministic whole-node loss (in-flight
///    state dies; victims are replayed on survivors under a bounded
///    backoff retry budget or failed with Status::kErrorNodeLost) and
///    node degradation (slow node; drained by live migration — the whole
///    machine snapshotted via chk::Snapshotter, charged at the inter-node
///    transfer cost, restored onto a spare where every resident job
///    continues mid-flight);
///  - admission control: when capacity drops below demand, the
///    lowest-priority pending load is shed gracefully, and pending or
///    running jobs that blew their deadline fail with
///    Status::kErrorDeadlineExceeded instead of stalling the fleet —
///    protected classes are exempt from both;
///  - SLO accounting: per-class job-latency histograms in a fleet-level
///    obs::MetricsRegistry; percentiles read straight from the histogram
///    buckets (obs::Histogram::quantile_upper_bound).
///
///  - failure detection (HeartbeatConfig, DESIGN.md Section 14): with
///    heartbeats enabled the controller stops being omniscient — a
///    scheduled node loss becomes a *silent* death (the machine and its
///    fabric endpoint die; the controller's belief does not change), and
///    only missed heartbeat edges move the node to suspected (excluded
///    from placement) and, after the miss threshold, to declared-dead,
///    which is what triggers the recovery ladder. A suspected-but-alive
///    node rejoins on its next on-time response without any replay.
///
/// Time model: each node's simulated clock is that node's fleet time.
/// A node idle at placement time is advanced to the placement instant
/// (idle time is real time); a degraded node's work is dilated by its
/// slow factor. Fleet events (faults, heartbeat edges, re-placement
/// retries, arrivals) are processed in deterministic (time, kind, id)
/// order, nodes always in index order — two identical runs are bit-for-bit
/// identical, which digest() fingerprints and bench_fleet gates.
///
/// The implementation is split by concern: controller.cpp (construction,
/// the event loop, results), placement.cpp (placement, admission,
/// shedding), faults.cpp (node loss, degradation, evacuation, heartbeat
/// detection) and controller_obs.cpp (recorder, alerts, metrics, traces).
namespace ghum::fleet {

enum class NodeState : std::uint8_t {
  kAlive,     ///< serving
  kDegraded,  ///< slow; accepts no new placements
  kDead,      ///< lost; machine state gone
  kRetired,   ///< evacuated onto a spare; machine state migrated away
  kSpare,     ///< powered off, waiting to replace a degraded node
};

[[nodiscard]] constexpr std::string_view to_string(NodeState s) noexcept {
  switch (s) {
    case NodeState::kAlive: return "alive";
    case NodeState::kDegraded: return "degraded";
    case NodeState::kDead: return "dead";
    case NodeState::kRetired: return "retired";
    case NodeState::kSpare: return "spare";
  }
  return "?";
}

enum class FleetJobState : std::uint8_t {
  kPending,   ///< waiting for capacity (or for its re-placement backoff)
  kPlaced,    ///< at least one live replica on a node
  kFinished,  ///< a replica completed; latency and checksum are valid
  kFailed,    ///< shed, deadline-exceeded, node-lost, or app failure
};

[[nodiscard]] constexpr std::string_view to_string(FleetJobState s) noexcept {
  switch (s) {
    case FleetJobState::kPending: return "pending";
    case FleetJobState::kPlaced: return "placed";
    case FleetJobState::kFinished: return "finished";
    case FleetJobState::kFailed: return "failed";
  }
  return "?";
}

/// Controller-side lifecycle record of one request.
struct FleetJob {
  JobRequest req;
  std::uint64_t footprint = 0;  ///< template's declared footprint, bytes
  FleetJobState state = FleetJobState::kPending;
  Status status = Status::kSuccess;  ///< failure cause when kFailed

  struct Replica {
    NodeId node = kNoNode;
    tenant::TenantId tenant = tenant::kNoTenant;
  };
  std::vector<Replica> replicas;  ///< live placements

  std::uint32_t placements = 0;     ///< replica placements performed
  std::uint32_t loss_attempts = 0;  ///< re-placement retries consumed
  sim::Picos not_before = 0;        ///< re-placement backoff gate
  sim::Picos first_placed_at = -1;  ///< fleet time of first placement (-1 = never)
  sim::Picos finished_at = 0;       ///< completion (or failure) fleet time
  sim::Picos latency = 0;           ///< finished_at - arrival (finished only)
  std::uint64_t checksum = 0;       ///< finishing replica's output digest
  bool slo_violation = false;       ///< finished late, or failed/shed
  bool migrated = false;            ///< continued mid-flight after evacuation
  bool replayed_after_loss = false; ///< re-placed after losing its node

  /// Causal identity (FleetObsConfig::enabled only). Opened externally at
  /// arrival; a node fault that re-drives the job (loss replay, live
  /// migration) re-roots it at the faulted node, so a job that finishes
  /// elsewhere demonstrably carried one span across a node boundary.
  obs::TraceContext ctx;
  NodeId completion_node = kNoNode;  ///< node whose replica finished

  [[nodiscard]] bool terminal() const noexcept {
    return state == FleetJobState::kFinished || state == FleetJobState::kFailed;
  }
};

/// External view of one node.
struct NodeStatus {
  NodeId id = kNoNode;
  NodeState state = NodeState::kSpare;
  sim::Picos local_now = 0;
  std::uint64_t placed_bytes = 0;
  std::uint32_t live_jobs = 0;
  std::uint32_t slow_factor = 1;
  std::uint64_t events_digest = 0;  ///< EventLog digest (0 when machine gone)
  /// Failure-detector overlay: the controller currently suspects this node
  /// (missed heartbeat or an exhausted control send) and will not place on
  /// it, but has not yet declared it dead.
  bool suspected = false;
};

/// Per-class SLO summary read from the fleet histograms.
struct SloSummary {
  std::uint32_t priority = 0;
  std::uint64_t submitted = 0;
  std::uint64_t finished = 0;
  std::uint64_t failed = 0;
  std::uint64_t violations = 0;  ///< late finishes + failures/sheds
  sim::Picos p50 = 0;            ///< latency percentile upper bounds
  sim::Picos p95 = 0;
  sim::Picos p99 = 0;
};

class Controller {
 public:
  /// Builds the fleet: cfg.nodes live superchips (each its own System +
  /// Scheduler) plus cfg.spares powered-off slots. Throws
  /// StatusError{kErrorInvalidValue} on a malformed config (no templates,
  /// zero nodes, fault events naming nodes outside the fleet).
  Controller(FleetConfig cfg, std::vector<JobTemplate> templates);

  /// Serves the whole request stream through the configured fault
  /// schedule and drains the fleet. One-shot: a second call fails with
  /// kErrorInvalidValue, as does a request naming an unknown template or
  /// arriving before its predecessor (\p requests must be sorted by
  /// arrival). Returns kSuccess when every request reached a terminal
  /// state (individual job failures are recorded per job, not here); any
  /// Status return is also recorded for get_last_error().
  Status run(const std::vector<JobRequest>& requests);

  // --- results ---------------------------------------------------------------
  [[nodiscard]] const std::vector<FleetJob>& jobs() const noexcept {
    return jobs_;
  }
  [[nodiscard]] const std::vector<JobTemplate>& templates() const noexcept {
    return templates_;
  }
  [[nodiscard]] std::vector<NodeStatus> node_status();
  [[nodiscard]] SloSummary slo_summary(std::uint32_t priority);

  /// Fleet-level instruments: ghum_fleet_* counters (placements,
  /// migrations, node losses, shed jobs, SLO violations by class) and the
  /// per-class job-latency/queue-wait histograms.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return reg_; }

  /// Federated view: every fleet instrument under node="fleet" plus every
  /// live node's machine registry under node="<id>" (gauges synced
  /// first). Built fresh per call; counters and gauges add, histograms
  /// merge, so a label-blind sum over it equals the per-node sum
  /// (bench_fleetscope's federation gate).
  [[nodiscard]] obs::MetricsRegistry federated_metrics();
  /// Prometheus / JSON expositions of federated_metrics().
  [[nodiscard]] std::string metrics_prometheus();
  [[nodiscard]] std::string metrics_json();

  /// One node's machine registry (gauges synced first), or null when the
  /// node no longer holds a machine (dead, retired, spare). This is the
  /// ground truth the federation equality gate sums against.
  [[nodiscard]] const obs::MetricsRegistry* node_metrics(NodeId id);

  /// The flight recorder / alert engine / causal trace stream — null or
  /// empty unless FleetObsConfig::enabled. Populated during run().
  [[nodiscard]] const obs::TimeSeries* recorder() const noexcept {
    return ts_.get();
  }
  [[nodiscard]] const obs::AlertEngine* alert_engine() const noexcept {
    return alert_engine_.get();
  }
  [[nodiscard]] const std::vector<obs::FleetTraceEvent>& trace_events()
      const noexcept {
    return trace_;
  }
  /// Fleet-level Chrome trace: per-node process lanes, per-tenant
  /// threads, traced fabric transfers, link-flap duration events, and
  /// s/t/f flow arrows crossing node lanes. Validated by obs::json_valid.
  [[nodiscard]] std::string chrome_trace() const;

  /// FNV-1a fingerprint of the complete fleet outcome: every node's state,
  /// local end time and EventLog digest, every job's terminal record, and
  /// the metrics exposition. Two identical runs => identical digests
  /// (bench_fleet's gate (a)).
  [[nodiscard]] std::uint64_t digest();

  /// Sticky last error of the public API (get_last_error semantics — reads
  /// clear it). Every fleet-facing entry point that fails records here.
  [[nodiscard]] Status get_last_error() noexcept {
    Status s = last_error_;
    last_error_ = Status::kSuccess;
    return s;
  }
  [[nodiscard]] Status peek_last_error() const noexcept { return last_error_; }

  [[nodiscard]] const FleetConfig& config() const noexcept { return cfg_; }

  /// The inter-node fabric; never null (built at construction). Its
  /// ghum_net_* instruments live in metrics(); its endpoint space is
  /// nodes + spares + 2, the last two being the external arrival source
  /// and the control plane.
  [[nodiscard]] net::Fabric* fabric() noexcept { return fabric_.get(); }

  /// Endpoint id of the external request source on the fabric.
  [[nodiscard]] std::uint32_t ep_external() const noexcept {
    return cfg_.nodes + cfg_.spares;
  }
  /// Endpoint id of the fleet control plane on the fabric.
  [[nodiscard]] std::uint32_t ep_control() const noexcept {
    return cfg_.nodes + cfg_.spares + 1;
  }

 private:
  /// (tenant id on a node's scheduler, fleet job index) per live replica.
  using Live = std::vector<std::pair<tenant::TenantId, std::uint64_t>>;

  struct Node {
    NodeId id = kNoNode;
    NodeState state = NodeState::kSpare;
    std::unique_ptr<core::System> sys;
    std::unique_ptr<tenant::Scheduler> sched;
    std::uint32_t slow_factor = 1;
    std::uint64_t placed_bytes = 0;
    Live live;
    /// Failure-detector belief: excluded from placement, still running.
    bool suspected = false;
    /// Physically dead (machine and endpoint gone) but not yet detected —
    /// state/live/placed_bytes above keep the controller's stale belief.
    bool silently_dead = false;
    /// Consecutive heartbeat edges missed.
    std::uint32_t hb_misses = 0;
    /// Last clock the controller observed before the machine vanished
    /// (placement ETA and overdue checks can't read a dead node's clock).
    sim::Picos known_now = 0;
  };

  /// Fleet event kinds, in the order same-instant events are handled. A
  /// heartbeat edge is derived each iteration, never queued.
  enum class EventKind : std::uint8_t {
    kLoss, kDegrade, kHeartbeat, kRetry, kArrival
  };

  /// One timed fleet event; ordered by (time, kind, id). The id of a loss
  /// or degrade is (node << 32 | index in its config list), of a retry or
  /// an arrival the fleet job index.
  struct Event {
    sim::Picos time = 0;
    EventKind kind = EventKind::kArrival;
    std::uint64_t id = 0;
    auto operator<=>(const Event&) const = default;
  };

  Status record(Status s) noexcept {
    if (s != Status::kSuccess) last_error_ = s;
    return s;
  }

  void activate(Node& n);  ///< boot a fresh System + Scheduler for a node
  /// Kills \p n's machine, leaves it in state \p to and returns the jobs
  /// that were live on it.
  Live tear_down(Node& n, NodeState to);
  [[nodiscard]] sim::Picos fleet_now() const noexcept;  ///< max node clock
  [[nodiscard]] std::uint64_t node_budget() const noexcept;

  // Event loop.
  void run_nodes_until(sim::Picos t);
  bool step_node(Node& n);  ///< one quantum + slow-factor dilation; false = idle
  bool harvest(Node& n);    ///< collect newly terminal jobs; true if any
  void expire_and_cancel_overdue(sim::Picos now);
  void try_place_pending(sim::Picos now);

  // Placement.
  [[nodiscard]] NodeId pick_node(std::uint64_t footprint,
                                 const std::vector<NodeId>& exclude) const;
  bool place(FleetJob& j, sim::Picos now);
  void finish_job(FleetJob& j, const tenant::Job& tj);
  void fail_job(FleetJob& j, Status why, sim::Picos now);
  void cancel_replicas(FleetJob& j, Status reason);
  void ensure_classes(std::uint32_t classes);

  // Fault domain.
  /// Without heartbeats the loss is declared at once; with them the
  /// machine and endpoint die now and the controller's belief is untouched.
  void on_node_loss(const fault::NodeLossEvent& e);
  /// The recovery ladder (omniscient loss, or heartbeat detection): kill
  /// whatever machine remains, replay victims under the backoff budget,
  /// shed to the surviving capacity.
  void declare_loss(Node& n, sim::Picos time);
  /// Drops \p from's replica of every victim; a victim left without a
  /// live replica goes back to pending under \p ctx, re-offered at \p t
  /// itself or, with \p backoff, through schedule_retry.
  void redrive(NodeId from, const Live& victims, const obs::TraceContext& ctx,
               sim::Picos t, bool backoff);
  /// Consumes one re-placement attempt of \p j and queues its retry after
  /// the backoff, or fails it with kErrorNodeLost once the budget is spent.
  void schedule_retry(FleetJob& j, sim::Picos t);
  void on_node_degrade(const fault::NodeDegradeEvent& e);
  void evacuate(Node& n, const obs::TraceContext& ctx);
  void shed_to_capacity(sim::Picos now);

  // Failure detection (HeartbeatConfig::enabled only).
  void heartbeat_tick(sim::Picos t);
  /// Whether probes still need to fire: scheduled losses remain, a silent
  /// death is undetected, or a suspicion is open. Once false the probe
  /// stream ends, bounding the drain (a deliberate model simplification —
  /// a real detector never stops probing).
  [[nodiscard]] bool heartbeat_watch(bool losses_left) const noexcept;
  void mark_suspected(Node& n, sim::Picos t, std::string_view why);

  // Observability (FleetObsConfig::enabled only).
  [[nodiscard]] bool obs_on() const noexcept { return cfg_.obs.enabled; }
  void setup_obs();            ///< recorder series + alert engine, at run()
  void obs_tick(sim::Picos t); ///< sample edges <= t, evaluate alerts
  void trace(obs::FleetTraceEvent e);

  FleetConfig cfg_;
  std::vector<JobTemplate> templates_;
  std::unique_ptr<net::Fabric> fabric_;
  std::vector<Node> nodes_;  ///< actives then spares; index == NodeId
  std::vector<FleetJob> jobs_;
  /// Pending losses, degrades, retries and arrivals, earliest first.
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  bool ran_ = false;
  Status last_error_ = Status::kSuccess;

  // Fleet instruments (registered at construction, zero until events).
  obs::MetricsRegistry reg_;
  obs::Counter* arrivals_;
  obs::Counter* placements_;
  obs::Counter* finished_;
  obs::Counter* shed_;
  obs::Counter* node_losses_;
  obs::Counter* node_degrades_;
  obs::Counter* evacuations_;
  obs::Counter* migrated_jobs_;
  obs::Counter* migrated_bytes_;
  obs::Counter* replace_retries_;
  std::vector<obs::Counter*> violations_by_class_;
  std::vector<obs::Counter*> failed_by_class_;
  std::vector<obs::Histogram*> latency_by_class_;   ///< microseconds
  std::vector<obs::Histogram*> wait_by_class_;      ///< microseconds
  obs::Counter* alerts_opened_;
  obs::Counter* alerts_closed_;
  obs::Counter* hb_probes_;
  obs::Counter* hb_misses_;
  obs::Counter* hb_suspects_;
  obs::Counter* hb_rejoins_;
  obs::Counter* detected_losses_;
  obs::Counter* evac_corruptions_;
  obs::Counter* evac_rerequests_;
  obs::Counter* evac_replays_;

  // Fleet observability state (null/empty unless cfg_.obs.enabled).
  std::unique_ptr<obs::TimeSeries> ts_;
  std::unique_ptr<obs::AlertEngine> alert_engine_;
  std::vector<obs::FleetTraceEvent> trace_;
  std::size_t alert_seen_ = 0;   ///< alert events already folded into trace_
  std::uint32_t next_span_ = 1;  ///< deterministic root-span allocator
};

}  // namespace ghum::fleet
