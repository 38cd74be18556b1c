#include "fleet/controller.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "core/system.hpp"
#include "sim/fnv.hpp"
#include "tenant/scheduler.hpp"

namespace ghum::fleet {

namespace {

std::vector<obs::Label> class_label(std::uint32_t cls) {
  return {{"class", std::to_string(cls)}};
}

/// Control-plane message size of an arrival notification (request
/// descriptor) on the fabric. It sits in the eager regime — it exists so
/// the control plane has a modeled, flappable cost, not to move bulk data.
constexpr std::uint64_t kArrivalMsgBytes = 512;

/// Id of a loss or degrade event: its node, then its config-list index.
std::uint64_t fault_id(NodeId node, std::size_t index) {
  return (std::uint64_t{node} << 32) | index;
}

}  // namespace

Controller::Controller(FleetConfig cfg, std::vector<JobTemplate> templates)
    : cfg_(std::move(cfg)), templates_(std::move(templates)) {
  if (templates_.empty() || cfg_.nodes == 0) {
    throw StatusError{Status::kErrorInvalidValue,
                      "fleet: need at least one node and one job template"};
  }
  for (const auto& e : cfg_.faults.node_loss) {
    if (e.node >= cfg_.nodes) {
      throw StatusError{Status::kErrorInvalidValue,
                        "fleet: node-loss event names a node outside the fleet"};
    }
  }
  for (const auto& e : cfg_.faults.node_degrade) {
    if (e.node >= cfg_.nodes || e.slow_factor == 0) {
      throw StatusError{Status::kErrorInvalidValue,
                        "fleet: malformed node-degrade event"};
    }
  }
  const std::uint32_t machines = cfg_.nodes + cfg_.spares;
  for (const auto& w : cfg_.faults.link_flap) {
    const bool a_ok = w.node_a < machines;
    const bool b_ok =
        w.node_b == fault::LinkFlapWindow::kAllPeers || w.node_b < machines;
    if (!a_ok || !b_ok) {
      throw StatusError{Status::kErrorInvalidValue,
                        "fleet: link-flap window names a node outside the fleet"};
    }
  }
  if (cfg_.heartbeat.enabled &&
      (cfg_.heartbeat.interval <= 0 || cfg_.heartbeat.miss_threshold == 0 ||
       cfg_.heartbeat.heartbeat_bytes == 0)) {
    throw StatusError{Status::kErrorInvalidValue,
                      "fleet: malformed heartbeat config"};
  }
  // nodes + spares machine endpoints, plus the external arrival source
  // and the control plane. Throws kErrorNetConfig on a malformed spec,
  // a malformed flap schedule or a malformed message-fault config, and
  // kErrorInvalidValue on a flap window with bad endpoints/factors.
  fabric_ = std::make_unique<net::Fabric>(cfg_.net, machines + 2, &reg_,
                                          cfg_.faults.link_flap,
                                          cfg_.faults.messages);

  nodes_.resize(cfg_.nodes + cfg_.spares);
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    nodes_[i].id = i;
    if (i < cfg_.nodes) activate(nodes_[i]);
  }

  arrivals_ = &reg_.counter("ghum_fleet_arrivals_total");
  placements_ = &reg_.counter("ghum_fleet_placements_total");
  finished_ = &reg_.counter("ghum_fleet_finished_total");
  shed_ = &reg_.counter("ghum_fleet_shed_total");
  node_losses_ = &reg_.counter("ghum_fleet_node_losses_total");
  node_degrades_ = &reg_.counter("ghum_fleet_node_degrades_total");
  evacuations_ = &reg_.counter("ghum_fleet_evacuations_total");
  migrated_jobs_ = &reg_.counter("ghum_fleet_migrated_jobs_total");
  migrated_bytes_ = &reg_.counter("ghum_fleet_migrated_bytes_total");
  replace_retries_ = &reg_.counter("ghum_fleet_replacement_retries_total");
  alerts_opened_ = &reg_.counter("ghum_fleet_alerts_opened_total");
  alerts_closed_ = &reg_.counter("ghum_fleet_alerts_closed_total");
  hb_probes_ = &reg_.counter("ghum_fleet_heartbeat_probes_total");
  hb_misses_ = &reg_.counter("ghum_fleet_heartbeat_misses_total");
  hb_suspects_ = &reg_.counter("ghum_fleet_heartbeat_suspects_total");
  hb_rejoins_ = &reg_.counter("ghum_fleet_heartbeat_rejoins_total");
  detected_losses_ = &reg_.counter("ghum_fleet_detected_losses_total");
  evac_corruptions_ = &reg_.counter("ghum_fleet_evac_corruptions_total");
  evac_rerequests_ = &reg_.counter("ghum_fleet_evac_rerequests_total");
  evac_replays_ = &reg_.counter("ghum_fleet_evac_replays_total");
}

void Controller::activate(Node& n) {
  n.sys = std::make_unique<core::System>(cfg_.node_config);
  n.sched = std::make_unique<tenant::Scheduler>(*n.sys, cfg_.scheduler);
  n.state = NodeState::kAlive;
  n.slow_factor = 1;
  n.placed_bytes = 0;
}

std::uint64_t Controller::node_budget() const noexcept {
  if (cfg_.node_footprint_budget != 0) return cfg_.node_footprint_budget;
  for (const Node& n : nodes_) {
    if (n.sched != nullptr) return n.sched->budget();
  }
  return 0;
}

void Controller::ensure_classes(std::uint32_t classes) {
  for (std::uint32_t c = static_cast<std::uint32_t>(latency_by_class_.size());
       c < classes; ++c) {
    violations_by_class_.push_back(
        &reg_.counter("ghum_fleet_slo_violations_total", class_label(c)));
    failed_by_class_.push_back(
        &reg_.counter("ghum_fleet_failed_total", class_label(c)));
    latency_by_class_.push_back(
        &reg_.histogram("ghum_fleet_job_latency_us", class_label(c)));
    wait_by_class_.push_back(
        &reg_.histogram("ghum_fleet_queue_wait_us", class_label(c)));
  }
}

// --- event loop --------------------------------------------------------------

bool Controller::step_node(Node& n) {
  const sim::Picos t0 = n.sys->now();
  if (!n.sched->step()) return false;
  if (n.slow_factor > 1) {
    const sim::Picos delta = n.sys->now() - t0;
    if (delta > 0) {
      n.sys->advance(delta * static_cast<sim::Picos>(n.slow_factor - 1));
    }
  }
  return true;
}

void Controller::run_nodes_until(sim::Picos t) {
  // Earliest-local-clock-first interleaving across nodes (ties: lowest
  // node id): nodes genuinely run concurrently, so the globally furthest-
  // behind node always steps next — the fleet-level analogue of the
  // scheduler's kMinLocalTime rule, and deterministic by construction.
  // Completions free footprint immediately: pending jobs are re-offered
  // capacity at the completing node's clock, never at the wait-until
  // bound \p t (which is +inf during the final drain).
  std::vector<bool> parked(nodes_.size(), false);  // step() said idle
  for (;;) {
    Node* best = nullptr;
    for (Node& n : nodes_) {
      if (n.state != NodeState::kAlive && n.state != NodeState::kDegraded) {
        continue;
      }
      // A silently dead node still *believed* alive has no machine to
      // step; its live list is the controller's stale belief, held in
      // limbo until the heartbeat detector declares the loss.
      if (n.sys == nullptr) continue;
      if (parked[n.id] || n.live.empty() || n.sys->now() >= t) continue;
      if (best == nullptr || n.sys->now() < best->sys->now()) best = &n;
    }
    if (best == nullptr) break;
    if (!step_node(*best)) {
      parked[best->id] = true;  // live but nothing runnable (queued-only)
      continue;
    }
    if (harvest(*best)) {
      try_place_pending(best->sys->now());
      std::fill(parked.begin(), parked.end(), false);  // placements wake nodes
    }
  }
}

sim::Picos Controller::fleet_now() const noexcept {
  sim::Picos now = 0;
  for (const Node& n : nodes_) {
    if (n.sys != nullptr) now = std::max(now, n.sys->now());
  }
  return now;
}

bool Controller::harvest(Node& n) {
  bool retired = false;
  for (std::size_t i = 0; i < n.live.size();) {
    const auto [tid, jidx] = n.live[i];
    const tenant::Job& tj = n.sched->job(tid);
    if (!tj.terminal()) {
      ++i;
      continue;
    }
    FleetJob& j = jobs_[jidx];
    retired = true;
    // Drop this replica regardless of what happens to the fleet job.
    n.live.erase(n.live.begin() + static_cast<std::ptrdiff_t>(i));
    n.placed_bytes -= std::min(n.placed_bytes, j.footprint);
    const auto r = std::find_if(
        j.replicas.begin(), j.replicas.end(),
        [&](const FleetJob::Replica& rep) {
          return rep.node == n.id && rep.tenant == tid;
        });
    if (r != j.replicas.end()) j.replicas.erase(r);

    if (j.terminal()) continue;  // late redundant replica; nothing more to do

    if (tj.state == tenant::JobState::kFinished) {
      j.completion_node = n.id;
      finish_job(j, tj);
      trace({.time = j.finished_at, .kind = obs::FleetTraceKind::kJobFinish,
             .node = n.id, .tenant = tid, .job = j.req.id, .ctx = j.ctx});
    } else if (j.replicas.empty()) {
      // Last live replica failed on-node (crash-recovery exhaustion or an
      // unrecoverable app fault): the fleet job fails with that cause.
      fail_job(j, tj.status == Status::kSuccess ? Status::kErrorUnrecoverable
                                                : tj.status,
               n.sys->now());
    }
    // else: another live replica keeps the job going (anti-affinity payoff).
  }
  return retired;
}

void Controller::finish_job(FleetJob& j, const tenant::Job& tj) {
  ensure_classes(j.req.priority + 1);
  j.state = FleetJobState::kFinished;
  j.finished_at = tj.finished_at;
  j.latency = j.finished_at - j.req.arrival;
  j.checksum = tj.report.checksum;
  finished_->inc();
  latency_by_class_[j.req.priority]->observe(
      static_cast<std::uint64_t>(j.latency / 1'000'000));  // picos -> us
  if (j.first_placed_at >= 0) {
    wait_by_class_[j.req.priority]->observe(
        static_cast<std::uint64_t>((j.first_placed_at - j.req.arrival) /
                                   1'000'000));
  }
  if (j.finished_at > j.req.deadline) {
    j.slo_violation = true;
    violations_by_class_[j.req.priority]->inc();
  }
}

void Controller::fail_job(FleetJob& j, Status why, sim::Picos now) {
  if (j.terminal()) return;
  ensure_classes(j.req.priority + 1);
  cancel_replicas(j, why);
  j.state = FleetJobState::kFailed;
  j.status = why;
  j.finished_at = now;
  j.slo_violation = true;
  failed_by_class_[j.req.priority]->inc();
  violations_by_class_[j.req.priority]->inc();
  trace({.time = now, .kind = obs::FleetTraceKind::kJobFail, .job = j.req.id,
         .ctx = j.ctx, .label = std::string{to_string(why)}});
  record(why);
}

void Controller::cancel_replicas(FleetJob& j, Status reason) {
  for (const FleetJob::Replica& r : j.replicas) {
    Node& n = nodes_[r.node];
    if (n.sched == nullptr) continue;  // node died with the replica
    (void)n.sched->cancel(r.tenant, reason);
    const auto it = std::find_if(
        n.live.begin(), n.live.end(),
        [&](const auto& p) { return p.first == r.tenant; });
    if (it != n.live.end()) n.live.erase(it);
    n.placed_bytes -= std::min(n.placed_bytes, j.footprint);
  }
  j.replicas.clear();
}

Status Controller::run(const std::vector<JobRequest>& requests) {
  if (ran_) return record(Status::kErrorInvalidValue);
  ran_ = true;

  jobs_.clear();
  jobs_.reserve(requests.size());
  std::uint32_t classes = 1;
  for (const JobRequest& r : requests) {
    // Arrivals drive fleet time, so they must not go backwards.
    if (r.tmpl >= templates_.size() ||
        (!jobs_.empty() && r.arrival < jobs_.back().req.arrival)) {
      jobs_.clear();
      return record(Status::kErrorInvalidValue);
    }
    FleetJob j;
    j.req = r;
    j.footprint = templates_[r.tmpl].footprint_bytes;
    if (obs_on()) {
      // Every request opens a root span at the external source; fleet
      // faults that re-drive the job re-root it at the faulted node.
      j.ctx.root_span = next_span_++;
      j.ctx.origin_node = obs::TraceContext::kExternal;
    }
    jobs_.push_back(std::move(j));
    classes = std::max(classes, r.priority + 1);
  }
  ensure_classes(classes);
  setup_obs();

  const auto& losses = cfg_.faults.node_loss;
  const auto& degrades = cfg_.faults.node_degrade;
  for (std::size_t i = 0; i < losses.size(); ++i) {
    events_.push({losses[i].time, EventKind::kLoss, fault_id(losses[i].node, i)});
  }
  for (std::size_t i = 0; i < degrades.size(); ++i) {
    events_.push(
        {degrades[i].time, EventKind::kDegrade, fault_id(degrades[i].node, i)});
  }
  for (std::uint64_t i = 0; i < jobs_.size(); ++i) {
    events_.push({jobs_[i].req.arrival, EventKind::kArrival, i});
  }

  // Heartbeat edges fire at k * interval while there is anything to watch:
  // scheduled losses still pending, an undetected silent death, or an open
  // suspicion. The edge is the one event derived rather than queued: the
  // watch is re-evaluated every iteration, and eliding the probes once it
  // clears is what bounds the final drain — when the watch re-opens, the
  // edge clock re-aligns to the grid instead of replaying skipped edges.
  const bool hb_on = cfg_.heartbeat.enabled;
  const sim::Picos interval = cfg_.heartbeat.interval;
  sim::Picos next_hb = interval;
  std::size_t losses_left = losses.size();
  for (;;) {
    const bool watch = hb_on && heartbeat_watch(losses_left > 0);
    const Event edge{next_hb, EventKind::kHeartbeat, 0};
    const bool on_edge = watch && (events_.empty() || edge < events_.top());
    if (!on_edge && events_.empty()) break;
    const Event e = on_edge ? edge : events_.top();
    if (!on_edge) events_.pop();
    const sim::Picos t = e.time;

    run_nodes_until(t);
    expire_and_cancel_overdue(t);
    obs_tick(t);

    const std::size_t index = e.id & 0xffffffffu;  // a fault's list index
    switch (e.kind) {
      case EventKind::kLoss:
        --losses_left;
        on_node_loss(losses[index]);
        break;
      case EventKind::kDegrade:
        on_node_degrade(degrades[index]);
        break;
      case EventKind::kHeartbeat:
        heartbeat_tick(t);
        next_hb += interval;
        break;
      case EventKind::kRetry: {
        FleetJob& j = jobs_[e.id];
        if (j.state == FleetJobState::kPending && !place(j, t)) {
          schedule_retry(j, t);
        }
        break;
      }
      case EventKind::kArrival: {
        arrivals_->inc();
        FleetJob& aj = jobs_[e.id];
        // The request descriptor reaches the control plane from outside the
        // fleet; charged for cost/metering (the open-loop arrival instant
        // itself is the generator's, not the fabric's).
        (void)fabric_->transfer(ep_external(), ep_control(), kArrivalMsgBytes,
                                net::MemType::kHost, t, &aj.ctx);
        trace({.time = t, .kind = obs::FleetTraceKind::kArrival,
               .job = aj.req.id, .ctx = aj.ctx,
               .label = templates_[aj.req.tmpl].name});
        break;
      }
    }
    // Keep the edge grid aligned while the watch is closed, so a watch
    // that re-opens later (an exhausted control send raising suspicion)
    // resumes at the next future edge, never one in the past.
    if (hb_on && !watch && next_hb <= t) next_hb = (t / interval + 1) * interval;
    try_place_pending(t);
  }

  // Drain: everything is submitted and every fault has fired. Keep stepping
  // (completions free capacity for still-pending jobs) until nothing moves.
  for (;;) {
    run_nodes_until(std::numeric_limits<sim::Picos>::max());
    const sim::Picos now = fleet_now();
    expire_and_cancel_overdue(now);
    obs_tick(now);
    const std::uint64_t placements_before = placements_->value();
    try_place_pending(now);
    bool runnable = placements_->value() != placements_before;
    for (const Node& n : nodes_) {
      if ((n.state == NodeState::kAlive || n.state == NodeState::kDegraded) &&
          !n.live.empty()) {
        runnable = true;
      }
    }
    if (!runnable) {
      // Whatever is still pending can never run (no capacity will free up).
      for (FleetJob& j : jobs_) {
        if (j.state == FleetJobState::kPending) {
          fail_job(j,
                   j.replayed_after_loss ? Status::kErrorNodeLost
                                         : Status::kErrorDeadlineExceeded,
                   now);
        }
      }
      break;
    }
  }
  obs_tick(fleet_now());
  return Status::kSuccess;
}

// --- results -----------------------------------------------------------------

std::vector<NodeStatus> Controller::node_status() {
  std::vector<NodeStatus> out;
  out.reserve(nodes_.size());
  for (Node& n : nodes_) {
    NodeStatus s;
    s.id = n.id;
    s.state = n.state;
    s.placed_bytes = n.placed_bytes;
    s.live_jobs = static_cast<std::uint32_t>(n.live.size());
    s.slow_factor = n.slow_factor;
    s.suspected = n.suspected;
    if (n.sys != nullptr) {
      s.local_now = n.sys->now();
      s.events_digest = n.sys->events().digest(s.local_now);
    }
    out.push_back(s);
  }
  return out;
}

SloSummary Controller::slo_summary(std::uint32_t priority) {
  ensure_classes(priority + 1);
  SloSummary s;
  s.priority = priority;
  for (const FleetJob& j : jobs_) {
    if (j.req.priority != priority) continue;
    ++s.submitted;
    if (j.state == FleetJobState::kFinished) ++s.finished;
    if (j.state == FleetJobState::kFailed) ++s.failed;
    if (j.slo_violation) ++s.violations;
  }
  const obs::Histogram& h = *latency_by_class_[priority];
  s.p50 = static_cast<sim::Picos>(h.quantile_upper_bound(50)) * 1'000'000;
  s.p95 = static_cast<sim::Picos>(h.quantile_upper_bound(95)) * 1'000'000;
  s.p99 = static_cast<sim::Picos>(h.quantile_upper_bound(99)) * 1'000'000;
  return s;
}

std::uint64_t Controller::digest() {
  std::uint64_t h = sim::kFnvOffset;
  for (Node& n : nodes_) {
    sim::fnv_mix(h, static_cast<std::uint64_t>(n.state));
    sim::fnv_mix(h, (n.suspected ? 1u : 0u) | (n.silently_dead ? 2u : 0u));
    if (n.sys != nullptr) {
      const sim::Picos now = n.sys->now();
      sim::fnv_mix(h, static_cast<std::uint64_t>(now));
      sim::fnv_mix(h, n.sys->events().digest(now));
    }
  }
  for (const FleetJob& j : jobs_) {
    sim::fnv_mix(h, j.req.id);
    sim::fnv_mix(h, static_cast<std::uint64_t>(j.state));
    sim::fnv_mix(h, static_cast<std::uint64_t>(j.status));
    sim::fnv_mix(h, static_cast<std::uint64_t>(j.finished_at));
    sim::fnv_mix(h, static_cast<std::uint64_t>(j.latency));
    sim::fnv_mix(h, j.checksum);
    sim::fnv_mix(h, j.placements);
    sim::fnv_mix(h, j.loss_attempts);
    sim::fnv_mix(h, (j.slo_violation ? 1u : 0u) | (j.migrated ? 2u : 0u) |
                        (j.replayed_after_loss ? 4u : 0u));
    sim::fnv_mix(h,
                 (std::uint64_t{j.ctx.origin_node} << 32) | j.ctx.root_span);
    sim::fnv_mix(h, j.completion_node);
  }
  sim::fnv_mix(h, fabric_->digest());
  // The observability layer is part of the reproducibility contract: the
  // recorder's sampled history and the alert open/close sequence must be
  // bit-identical across identical runs, so they mix in too.
  if (ts_ != nullptr) sim::fnv_mix(h, ts_->digest());
  if (alert_engine_ != nullptr) sim::fnv_mix(h, alert_engine_->digest());
  const std::string metrics = reg_.to_json();
  return sim::fnv1a(metrics.data(), metrics.size(), h);
}

}  // namespace ghum::fleet
