#include "fleet/controller.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "chk/snapshot.hpp"
#include "core/machine.hpp"
#include "core/system.hpp"
#include "fault/status.hpp"
#include "sim/fnv.hpp"
#include "tenant/scheduler.hpp"

namespace ghum::fleet {

namespace {

std::vector<obs::Label> class_label(std::uint32_t cls) {
  return {{"class", std::to_string(cls)}};
}

/// Control-plane message sizes on the fabric: an arrival notification
/// (request descriptor) and a placement command (job spec reference).
/// Both sit in the eager regime — they exist so the control plane has a
/// modeled, flappable cost, not to move bulk data.
constexpr std::uint64_t kArrivalMsgBytes = 512;
constexpr std::uint64_t kPlacementMsgBytes = 256;

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

// --- observability -----------------------------------------------------------

void Controller::trace(obs::FleetTraceEvent e) {
  if (obs_on() && cfg_.obs.record_trace) trace_.push_back(std::move(e));
}

void Controller::setup_obs() {
  if (!obs_on()) return;
  ts_ = std::make_unique<obs::TimeSeries>(cfg_.obs.cadence,
                                          cfg_.obs.ring_capacity);
  // Per-node vitals. Node structs are stable for the controller's life
  // (the vector is sized once at construction), so the samplers capture
  // plain pointers.
  for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
    Node* n = &nodes_[i];
    const std::string p = "node" + std::to_string(i) + ".";
    ts_->add(p + "placed_bytes", [n] {
      return static_cast<std::int64_t>(n->placed_bytes);
    });
    ts_->add(p + "live_jobs", [n] {
      return static_cast<std::int64_t>(n->live.size());
    });
    ts_->add(p + "queue_depth", [n] {
      return n->sched == nullptr
                 ? 0
                 : static_cast<std::int64_t>(n->sched->queue_depth());
    });
    ts_->add(p + "gpu_used_bytes", [n] {
      return n->sys == nullptr
                 ? 0
                 : static_cast<std::int64_t>(n->sys->machine().gpu_used_bytes());
    });
  }
  ts_->add("fleet.pending_jobs", [this] {
    std::int64_t c = 0;
    for (const FleetJob& j : jobs_) {
      if (j.state == FleetJobState::kPending) ++c;
    }
    return c;
  });
  // Reliability vitals, only when the features are on — keeping the series
  // set (and with it the recorder digest) unchanged for existing configs.
  if (cfg_.heartbeat.enabled) {
    ts_->add("fleet.suspected_nodes", [this] {
      std::int64_t c = 0;
      for (const Node& n : nodes_) {
        if (n.suspected) ++c;
      }
      return c;
    });
  }
  if (fabric_->lossy()) {
    ts_->add("fabric.retransmits", [this] {
      return static_cast<std::int64_t>(fabric_->reliable_totals().retransmits);
    });
  }
  // Per-class SLO attainment: on-time finishes per terminal job, in
  // permille. 1000 while a class has no terminal jobs yet.
  for (std::uint32_t c = 0;
       c < static_cast<std::uint32_t>(latency_by_class_.size()); ++c) {
    ts_->add("class" + std::to_string(c) + ".slo_attainment_permille",
             [this, c] {
               std::int64_t term = 0;
               std::int64_t ok = 0;
               for (const FleetJob& j : jobs_) {
                 if (j.req.priority != c || !j.terminal()) continue;
                 ++term;
                 if (!j.slo_violation) ++ok;
               }
               return term == 0 ? 1000 : ok * 1000 / term;
             });
  }
  if (cfg_.obs.track_links) {
    ts_->add("fabric.total_bytes", [this] {
      return static_cast<std::int64_t>(fabric_->totals().total_bytes());
    });
    // Per-directed-link cumulative bytes — every machine pair plus the
    // external-source and control-plane endpoints. Bounded to small
    // fleets; a 480-node fleet keeps just the total above.
    const std::uint32_t eps = fabric_->endpoints();
    if (eps <= 16) {
      for (std::uint32_t s = 0; s < eps; ++s) {
        for (std::uint32_t d = 0; d < eps; ++d) {
          if (s == d) continue;
          ts_->add("link." + std::to_string(s) + "-" + std::to_string(d) +
                       ".bytes",
                   [this, s, d] {
                     return static_cast<std::int64_t>(
                         fabric_->link_bytes_moved(s, d));
                   });
        }
      }
    }
  }
  if (cfg_.obs.record_trace) fabric_->set_log_enabled(true);
  alert_engine_ = std::make_unique<obs::AlertEngine>(*ts_, cfg_.obs.alerts);
}

void Controller::obs_tick(sim::Picos t) {
  if (ts_ == nullptr) return;
  ts_->advance(t);
  if (alert_engine_ == nullptr) return;
  alert_engine_->evaluate();
  const std::vector<obs::AlertEvent>& evs = alert_engine_->events();
  for (; alert_seen_ < evs.size(); ++alert_seen_) {
    const obs::AlertEvent& ae = evs[alert_seen_];
    const obs::AlertRule& r = alert_engine_->rules()[ae.rule];
    (ae.open ? alerts_opened_ : alerts_closed_)->inc();
    obs::FleetTraceEvent e;
    e.time = ae.time;
    e.kind = ae.open ? obs::FleetTraceKind::kAlertOpen
                     : obs::FleetTraceKind::kAlertClose;
    e.bytes = 0;
    e.label = r.name + " [" + std::string{obs::to_string(r.severity)} + "]";
    trace(std::move(e));
  }
}

obs::MetricsRegistry Controller::federated_metrics() {
  obs::MetricsRegistry out;
  out.merge_from(reg_, {{"node", "fleet"}});
  for (Node& n : nodes_) {
    if (n.sys == nullptr) continue;
    n.sys->machine().sync_obs_gauges();
    out.merge_from(n.sys->machine().obs(), {{"node", std::to_string(n.id)}});
  }
  return out;
}

std::string Controller::metrics_prometheus() {
  return federated_metrics().to_prometheus();
}

std::string Controller::metrics_json() { return federated_metrics().to_json(); }

const obs::MetricsRegistry* Controller::node_metrics(NodeId id) {
  if (id >= nodes_.size() || nodes_[id].sys == nullptr) return nullptr;
  nodes_[id].sys->machine().sync_obs_gauges();
  return &nodes_[id].sys->machine().obs();
}

std::string Controller::chrome_trace() const {
  std::vector<obs::FleetTraceEvent> evs = trace_;
  // Traced fabric messages (placement commands, evacuation images) become
  // duration events on the fabric lane and members of their root span's
  // flow chain — the visible wire hop between node lanes.
  for (const net::TransferRecord& r : fabric_->log()) {
    if (!r.ctx.traced()) continue;
    obs::FleetTraceEvent e;
    e.time = r.start;
    e.duration = r.end - r.start;
    e.kind = obs::FleetTraceKind::kTransfer;
    e.node = r.src;
    e.peer = r.dst;
    e.bytes = r.bytes;
    e.ctx = r.ctx;
    e.label = std::string{net::to_string(r.proto)};
    evs.push_back(std::move(e));
  }
  for (const fault::LinkFlapWindow& w : cfg_.faults.link_flap) {
    obs::FleetTraceEvent e;
    e.time = w.start;
    e.duration = w.duration;
    e.kind = obs::FleetTraceKind::kLinkFlap;
    e.node = w.node_a;
    if (w.node_b != fault::LinkFlapWindow::kAllPeers) e.peer = w.node_b;
    e.label = w.node_b == fault::LinkFlapWindow::kAllPeers
                  ? std::to_string(w.node_a) + "-*"
                  : std::to_string(w.node_a) + "-" + std::to_string(w.node_b);
    evs.push_back(std::move(e));
  }
  return obs::export_fleet_trace(evs, cfg_.nodes + cfg_.spares);
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
      obs::FleetTraceEvent te;
      te.time = j.finished_at;
      te.kind = obs::FleetTraceKind::kJobFinish;
      te.node = n.id;
      te.tenant = tid;
      te.job = j.req.id;
      te.ctx = j.ctx;
      trace(std::move(te));
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
  obs::FleetTraceEvent te;
  te.time = now;
  te.kind = obs::FleetTraceKind::kJobFail;
  te.job = j.req.id;
  te.ctx = j.ctx;
  te.label = std::string{to_string(why)};
  trace(std::move(te));
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

void Controller::expire_and_cancel_overdue(sim::Picos now) {
  for (FleetJob& j : jobs_) {
    if (j.terminal() || j.req.priority < cfg_.shed_protect_classes) continue;
    if (j.state == FleetJobState::kPending) {
      if (j.req.arrival <= now && j.req.deadline < now) {
        fail_job(j, Status::kErrorDeadlineExceeded, now);
      }
    } else if (cfg_.cancel_overdue && j.state == FleetJobState::kPlaced) {
      // A running job is overdue once every node executing it is past the
      // deadline — it can no longer finish in time anywhere.
      bool overdue = !j.replicas.empty();
      for (const FleetJob::Replica& r : j.replicas) {
        // A silently dead node's clock froze at its last observation;
        // its replicas resolve at detection, not here.
        const Node& rn = nodes_[r.node];
        const sim::Picos rnow = rn.sys != nullptr ? rn.sys->now() : rn.known_now;
        if (rnow <= j.req.deadline) overdue = false;
      }
      if (overdue) fail_job(j, Status::kErrorDeadlineExceeded, now);
    }
  }
}

// --- placement ---------------------------------------------------------------

NodeId Controller::pick_node(std::uint64_t footprint,
                             const std::vector<NodeId>& exclude) const {
  const std::uint64_t budget = node_budget();
  NodeId best = kNoNode;
  std::uint64_t best_fill = 0;       // kBinPack: max placed_bytes that fits
  sim::Picos best_eta = 0;           // kLoadBalance: min predicted completion
  for (const Node& n : nodes_) {
    if (n.state != NodeState::kAlive || n.suspected) continue;
    if (std::find(exclude.begin(), exclude.end(), n.id) != exclude.end()) {
      continue;
    }
    if (n.placed_bytes + footprint > budget) continue;
    if (cfg_.placement == PlacementPolicy::kBinPack) {
      if (best == kNoNode || n.placed_bytes > best_fill) {
        best = n.id;
        best_fill = n.placed_bytes;
      }
    } else {
      // known_now: an undetected silently dead node is still a candidate
      // (the controller believes it alive) at its last observed clock —
      // the placement send to it will exhaust and teach us otherwise.
      sim::Picos eta = n.sys != nullptr ? n.sys->now() : n.known_now;
      for (const auto& [tid, jidx] : n.live) {
        eta += templates_[jobs_[jidx].req.tmpl].est_cost;
      }
      if (best == kNoNode || eta < best_eta) {
        best = n.id;
        best_eta = eta;
      }
    }
  }
  return best;
}

bool Controller::place(FleetJob& j, sim::Picos now) {
  const JobTemplate& tmpl = templates_[j.req.tmpl];
  // Oversized-for-any-node is a property of the job, not of the moment —
  // but only judge it against a live node's budget. With the whole fleet
  // down, node_budget() is 0 and the job's true cause is the loss (or its
  // deadline), which the retry and drain paths attribute.
  const std::uint64_t budget = node_budget();
  if (budget > 0 && j.footprint > budget) {
    fail_job(j, Status::kErrorOutOfMemory, now);
    return false;
  }
  std::vector<NodeId> exclude;
  for (const FleetJob::Replica& r : j.replicas) exclude.push_back(r.node);

  const std::uint32_t want =
      std::max<std::uint32_t>(j.req.replicas, 1) -
      static_cast<std::uint32_t>(j.replicas.size());
  std::uint32_t placed = 0;
  for (std::uint32_t k = 0; k < want; ++k) {
    const NodeId nid = pick_node(j.footprint, exclude);
    if (nid == kNoNode) break;
    Node& n = nodes_[nid];
    // The placement command travels control plane -> node; the node can
    // only start the job once it has been delivered, so an idle node's
    // clock advances to the delivery instant (idle time is real time).
    // The command carries the job's trace context onto the node: the
    // causal chain's hop across the machine boundary.
    sim::Picos start_at = now;
    if (fabric_->lossy() || cfg_.heartbeat.enabled) {
      // A command must be *confirmed* delivered before the job counts as
      // placed — an exhausted retransmit budget is how the control plane
      // first learns a node is unreachable.
      const net::ReliableTransfer cmd =
          fabric_->send(ep_control(), nid, kPlacementMsgBytes,
                        net::MemType::kHost, now, &j.ctx);
      if (cmd.status != Status::kSuccess) {
        record(cmd.status);
        if (cfg_.heartbeat.enabled) {
          mark_suspected(n, cmd.end, "placement send exhausted");
        }
        exclude.push_back(nid);
        continue;
      }
      start_at = cmd.delivered_at;
    } else {
      start_at = fabric_
                     ->transfer(ep_control(), nid, kPlacementMsgBytes,
                                net::MemType::kHost, now, &j.ctx)
                     .end;
    }
    if (n.sys->now() < start_at) n.sys->advance(start_at - n.sys->now());

    tenant::JobSpec spec;
    spec.name = tmpl.name;
    spec.mode = tmpl.mode;
    spec.make = tmpl.make;
    spec.footprint_bytes = j.footprint;
    spec.priority = -static_cast<int>(j.req.priority);  // class 0 most urgent
    tenant::TenantId tid = tenant::kNoTenant;
    if (n.sched->submit(std::move(spec), &tid) != Status::kSuccess) {
      exclude.push_back(nid);
      continue;
    }
    n.live.emplace_back(tid, static_cast<std::uint64_t>(&j - jobs_.data()));
    n.placed_bytes += j.footprint;
    j.replicas.push_back({nid, tid});
    exclude.push_back(nid);
    ++placed;
    placements_->inc();
    obs::FleetTraceEvent te;
    te.time = start_at;
    te.kind = obs::FleetTraceKind::kPlacement;
    te.node = nid;
    te.tenant = tid;
    te.job = j.req.id;
    te.ctx = j.ctx;
    te.label = tmpl.name;
    trace(std::move(te));
  }
  if (placed == 0) return false;
  j.placements += placed;
  j.state = FleetJobState::kPlaced;
  if (j.first_placed_at < 0) j.first_placed_at = now;
  return true;
}

void Controller::try_place_pending(sim::Picos now) {
  // Offer freed capacity to the most urgent class first, FIFO within it.
  std::vector<std::uint64_t> ready;
  for (std::uint64_t i = 0; i < jobs_.size(); ++i) {
    const FleetJob& j = jobs_[i];
    if (j.state != FleetJobState::kPending) continue;
    if (j.req.arrival > now || j.not_before > now) continue;
    ready.push_back(i);
  }
  std::sort(ready.begin(), ready.end(), [&](std::uint64_t a, std::uint64_t b) {
    const FleetJob& ja = jobs_[a];
    const FleetJob& jb = jobs_[b];
    return ja.req.priority != jb.req.priority
               ? ja.req.priority < jb.req.priority
               : a < b;
  });
  for (const std::uint64_t i : ready) {
    FleetJob& j = jobs_[i];
    if (!place(j, now) && !j.terminal()) {
      // Strict priority: no backfill past a blocked higher-priority job.
      // Without this, every completion's freed footprint is snapped up by
      // smaller low-priority jobs and a large top-class job waits forever
      // for headroom that never accumulates.
      break;
    }
  }
}

// --- fault domain ------------------------------------------------------------

void Controller::on_node_loss(const fault::NodeLossEvent& e) {
  Node& n = nodes_[e.node];
  if (n.state != NodeState::kAlive && n.state != NodeState::kDegraded) return;
  declare_loss(n, e.time);
}

void Controller::on_silent_death(const fault::NodeLossEvent& e) {
  Node& n = nodes_[e.node];
  if (n.state != NodeState::kAlive && n.state != NodeState::kDegraded) return;
  if (n.sys == nullptr) return;  // already silently dead
  // The machine and its fabric endpoint die right now; the controller's
  // belief (state, live jobs, placed bytes) stays frozen until the
  // heartbeat detector catches up. The victims sit in limbo — recovery
  // starts at detection time, not at death time.
  n.known_now = n.sys->now();
  n.sched.reset();
  n.sys.reset();
  n.silently_dead = true;
  fabric_->set_endpoint_down(n.id, true);
}

void Controller::declare_loss(Node& n, sim::Picos time) {
  node_losses_->inc();

  // The loss re-roots every re-driven victim's causal chain at the dying
  // node: retries and the eventual re-placement elsewhere all carry it.
  obs::TraceContext fault_ctx;
  if (obs_on()) {
    fault_ctx.root_span = next_span_++;
    fault_ctx.origin_node = n.id;
    obs::FleetTraceEvent te;
    te.time = time;
    te.kind = obs::FleetTraceKind::kNodeLoss;
    te.node = n.id;
    te.ctx = fault_ctx;
    trace(std::move(te));
  }

  const std::vector<std::pair<tenant::TenantId, std::uint64_t>> victims =
      std::move(n.live);
  n.live.clear();
  // The machine dies with its in-flight state: scheduler first (owns the
  // coroutines and per-tenant runtimes), then the system they reference.
  // Under heartbeat detection the machine may already be gone (silent
  // death) — or still be running (a false positive pushed past the miss
  // threshold, the declared-dead-while-alive cost of a fallible detector).
  n.sched.reset();
  n.sys.reset();
  n.state = NodeState::kDead;
  n.placed_bytes = 0;
  n.suspected = false;
  n.silently_dead = false;
  fabric_->set_endpoint_down(n.id, true);

  for (const auto& [tid, jidx] : victims) {
    FleetJob& j = jobs_[jidx];
    const auto r = std::find_if(
        j.replicas.begin(), j.replicas.end(),
        [&](const FleetJob::Replica& rep) { return rep.node == n.id; });
    if (r != j.replicas.end()) j.replicas.erase(r);
    if (j.terminal()) continue;
    if (!j.replicas.empty()) continue;  // a live replica elsewhere carries on

    // Replay elsewhere under the bounded backoff budget.
    j.state = FleetJobState::kPending;
    j.replayed_after_loss = true;
    if (obs_on()) j.ctx = fault_ctx;
    if (j.loss_attempts >= cfg_.replace_max_retries) {
      fail_job(j, Status::kErrorNodeLost, time);
      continue;
    }
    ++j.loss_attempts;
    j.not_before =
        time + cfg_.replace_backoff *
                   (sim::Picos{1} << (j.loss_attempts - 1));
    retries_.push_back({j.not_before, jidx});
    replace_retries_->inc();
    obs::FleetTraceEvent te;
    te.time = time;
    te.kind = obs::FleetTraceKind::kReplacementRetry;
    te.job = j.req.id;
    te.ctx = j.ctx;
    trace(std::move(te));
  }
  std::sort(retries_.begin(), retries_.end(), [](const Retry& a, const Retry& b) {
    return a.due != b.due ? a.due < b.due : a.job < b.job;
  });

  shed_to_capacity(time);
}

// --- failure detection -------------------------------------------------------

void Controller::mark_suspected(Node& n, sim::Picos t, std::string_view why) {
  if (n.suspected) return;
  n.suspected = true;
  hb_suspects_->inc();
  obs::FleetTraceEvent te;
  te.time = t;
  te.kind = obs::FleetTraceKind::kNodeSuspect;
  te.node = n.id;
  te.label = std::string{why};
  trace(std::move(te));
}

bool Controller::heartbeat_watch(bool losses_left) const noexcept {
  if (losses_left) return true;
  for (const Node& n : nodes_) {
    if (n.state != NodeState::kAlive && n.state != NodeState::kDegraded) {
      continue;
    }
    if (n.suspected || n.silently_dead) return true;
  }
  return false;
}

void Controller::heartbeat_tick(sim::Picos t) {
  const HeartbeatConfig& hb = cfg_.heartbeat;
  for (Node& n : nodes_) {
    if (n.state != NodeState::kAlive && n.state != NodeState::kDegraded) {
      continue;
    }
    // Probe out, response back — both plain datagrams, both subject to the
    // message-fault schedule. The edge is met only if the response lands
    // before the next edge; a dead endpoint, a dropped/corrupt probe or
    // response, and a response held too long by reordering all look the
    // same from the control plane: silence.
    hb_probes_->inc();
    const net::Datagram probe = fabric_->datagram(
        ep_control(), n.id, hb.heartbeat_bytes, net::MemType::kHost, t);
    bool on_time = false;
    if (probe.delivered && !probe.corrupt && n.sys != nullptr) {
      const net::Datagram resp =
          fabric_->datagram(n.id, ep_control(), hb.heartbeat_bytes,
                            net::MemType::kHost, probe.delivered_at);
      on_time = resp.delivered && !resp.corrupt &&
                resp.delivered_at <= t + hb.interval;
    }
    if (on_time) {
      n.hb_misses = 0;
      if (n.suspected) {
        // False positive resolved: the node answered in time, so it
        // rejoins the placement pool exactly as it was — its jobs kept
        // running throughout, nothing is replayed or double-placed.
        n.suspected = false;
        hb_rejoins_->inc();
        obs::FleetTraceEvent te;
        te.time = t;
        te.kind = obs::FleetTraceKind::kNodeRejoin;
        te.node = n.id;
        trace(std::move(te));
      }
      continue;
    }
    ++n.hb_misses;
    hb_misses_->inc();
    mark_suspected(n, t, "heartbeat miss");
    if (n.hb_misses >= hb.miss_threshold) {
      detected_losses_->inc();
      declare_loss(n, t);
    }
  }
}

void Controller::shed_to_capacity(sim::Picos now) {
  // Open-loop demand vs what the surviving fleet can hold: shed the
  // lowest-priority, youngest pending load until the rest fits. Protected
  // classes are never shed.
  std::uint64_t capacity = 0;
  for (const Node& n : nodes_) {
    if (n.state == NodeState::kAlive) capacity += node_budget();
  }
  std::uint64_t committed = 0;
  for (const Node& n : nodes_) committed += n.placed_bytes;
  std::uint64_t pending = 0;
  for (const FleetJob& j : jobs_) {
    if (j.state == FleetJobState::kPending && j.req.arrival <= now) {
      pending += j.footprint;
    }
  }
  while (committed + pending > capacity) {
    FleetJob* victim = nullptr;
    for (FleetJob& j : jobs_) {
      if (j.state != FleetJobState::kPending || j.req.arrival > now) continue;
      if (j.req.priority < cfg_.shed_protect_classes) continue;
      if (victim == nullptr ||
          j.req.priority > victim->req.priority ||
          (j.req.priority == victim->req.priority &&
           j.req.arrival > victim->req.arrival)) {
        victim = &j;
      }
    }
    if (victim == nullptr) break;
    pending -= std::min(pending, victim->footprint);
    obs::FleetTraceEvent te;
    te.time = now;
    te.kind = obs::FleetTraceKind::kShed;
    te.job = victim->req.id;
    te.ctx = victim->ctx;
    trace(std::move(te));
    fail_job(*victim, Status::kErrorNodeLost, now);
    shed_->inc();
  }
}

void Controller::on_node_degrade(const fault::NodeDegradeEvent& e) {
  Node& n = nodes_[e.node];
  if (n.state != NodeState::kAlive) return;
  node_degrades_->inc();
  n.state = NodeState::kDegraded;
  n.slow_factor = std::max(n.slow_factor, e.slow_factor);

  obs::TraceContext fault_ctx;
  if (obs_on()) {
    fault_ctx.root_span = next_span_++;
    fault_ctx.origin_node = e.node;
    obs::FleetTraceEvent te;
    te.time = e.time;
    te.kind = obs::FleetTraceKind::kNodeDegrade;
    te.node = e.node;
    te.ctx = fault_ctx;
    te.label = "x" + std::to_string(e.slow_factor);
    trace(std::move(te));
  }
  if (cfg_.faults.evacuate_degraded) evacuate(n, fault_ctx);
}

void Controller::evacuate(Node& n, const obs::TraceContext& ctx) {
  Node* spare = nullptr;
  for (Node& s : nodes_) {
    if (s.state == NodeState::kSpare) {
      spare = &s;
      break;
    }
  }
  if (spare == nullptr) return;  // keep limping along slow

  // Live migration: serialize the whole machine, ship it at the inter-node
  // transfer cost, restore onto the spare with the old machine as donor so
  // app-held host pointers survive, and re-point the scheduler. Every
  // resident job continues mid-flight (replay equivalence, PR 5).
  chk::Blob blob = chk::Snapshotter::snapshot(*n.sys);
  const sim::Picos ship_start = n.sys->now();
  sim::Picos ship_end = ship_start;
  bool blob_ok = true;
  if (fabric_->lossy()) {
    // On a lossy fabric the image goes through the reliable send path
    // (bulk enough for the e2e corruption model), and the spare runs
    // Snapshotter::verify before trusting a byte of it. A corrupted image
    // is re-requested once; a second corruption falls back to the replay
    // ladder below.
    net::ReliableTransfer t = fabric_->send(
        n.id, spare->id, blob.size(), net::MemType::kHost, ship_start, &ctx);
    blob_ok = t.status == Status::kSuccess && !t.payload_corrupt &&
              chk::Snapshotter::verify(blob);
    ship_end = t.status == Status::kSuccess ? t.delivered_at : t.end;
    if (!blob_ok) {
      if (t.payload_corrupt) evac_corruptions_->inc();
      evac_rerequests_->inc();
      t = fabric_->send(n.id, spare->id, blob.size(), net::MemType::kHost,
                        ship_end, &ctx);
      blob_ok = t.status == Status::kSuccess && !t.payload_corrupt &&
                chk::Snapshotter::verify(blob);
      ship_end = t.status == Status::kSuccess ? t.delivered_at : t.end;
      if (!blob_ok && t.payload_corrupt) evac_corruptions_->inc();
    }
  } else {
    // The machine image ships donor -> spare as one bulk fabric message
    // (deep in the rendezvous regime for any real blob) carrying the
    // degrade fault's trace context; the spare resumes at delivery time.
    ship_end = fabric_
                   ->transfer(n.id, spare->id, blob.size(),
                              net::MemType::kHost, ship_start, &ctx)
                   .end;
  }

  if (!blob_ok) {
    // Both copies of the image arrived corrupt: fall back to the replay
    // ladder. The spare boots fresh, every donor-resident job replays
    // from scratch on it (or wherever placement sends it), the donor
    // retires, and the corruption is surfaced through get_last_error.
    // Jobs on every other node are untouched.
    record(Status::kErrorDataCorruption);
    evac_replays_->inc();
    const std::vector<std::pair<tenant::TenantId, std::uint64_t>> victims =
        std::move(n.live);
    n.live.clear();
    n.sched.reset();
    n.sys.reset();
    n.state = NodeState::kRetired;
    n.placed_bytes = 0;
    activate(*spare);
    if (spare->sys->now() < ship_end) {
      spare->sys->advance(ship_end - spare->sys->now());
    }
    {
      obs::FleetTraceEvent te;
      te.time = ship_start;
      te.duration = ship_end - ship_start;
      te.kind = obs::FleetTraceKind::kEvacuation;
      te.node = n.id;
      te.peer = spare->id;
      te.bytes = blob.size();
      te.ctx = ctx;
      te.label = "image corrupt; replaying from scratch";
      trace(std::move(te));
    }
    for (const auto& [tid, jidx] : victims) {
      FleetJob& j = jobs_[jidx];
      const auto r = std::find_if(
          j.replicas.begin(), j.replicas.end(),
          [&](const FleetJob::Replica& rep) { return rep.node == n.id; });
      if (r != j.replicas.end()) j.replicas.erase(r);
      if (j.terminal() || !j.replicas.empty()) continue;
      j.state = FleetJobState::kPending;
      j.replayed_after_loss = true;
      j.not_before = ship_end;
      if (obs_on()) j.ctx = ctx;
      retries_.push_back({ship_end, jidx});
    }
    std::sort(retries_.begin(), retries_.end(),
              [](const Retry& a, const Retry& b) {
                return a.due != b.due ? a.due < b.due : a.job < b.job;
              });
    return;
  }

  spare->sys = chk::Snapshotter::restore(blob, n.sys.get());
  spare->sched = std::move(n.sched);
  spare->sched->rebind(*spare->sys);
  if (spare->sys->now() < ship_end) {
    spare->sys->advance(ship_end - spare->sys->now());
  }
  spare->state = NodeState::kAlive;
  spare->slow_factor = 1;
  spare->placed_bytes = n.placed_bytes;
  spare->live = std::move(n.live);

  n.sys.reset();
  n.state = NodeState::kRetired;
  n.placed_bytes = 0;
  n.live.clear();

  evacuations_->inc();
  migrated_bytes_->inc(blob.size());
  {
    obs::FleetTraceEvent te;
    te.time = ship_start;
    te.duration = ship_end - ship_start;
    te.kind = obs::FleetTraceKind::kEvacuation;
    te.node = n.id;
    te.peer = spare->id;
    te.bytes = blob.size();
    te.ctx = ctx;
    trace(std::move(te));
  }
  for (const auto& [tid, jidx] : spare->live) {
    FleetJob& j = jobs_[jidx];
    for (FleetJob::Replica& r : j.replicas) {
      if (r.node == n.id) r.node = spare->id;
    }
    if (!j.terminal()) {
      j.migrated = true;
      // The migrated job continues under the fault's root span: its
      // finish on the spare closes a chain opened on the donor.
      if (obs_on()) j.ctx = ctx;
      migrated_jobs_->inc();
    }
  }
}

// --- run ---------------------------------------------------------------------

Status Controller::run(const std::vector<JobRequest>& requests) {
  if (ran_) return record(Status::kErrorInvalidValue);
  ran_ = true;

  jobs_.clear();
  jobs_.reserve(requests.size());
  std::uint32_t classes = 1;
  for (const JobRequest& r : requests) {
    if (r.tmpl >= templates_.size()) {
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

  auto losses = cfg_.faults.node_loss;
  std::sort(losses.begin(), losses.end(),
            [](const auto& a, const auto& b) {
              return a.time != b.time ? a.time < b.time : a.node < b.node;
            });
  auto degrades = cfg_.faults.node_degrade;
  std::sort(degrades.begin(), degrades.end(),
            [](const auto& a, const auto& b) {
              return a.time != b.time ? a.time < b.time : a.node < b.node;
            });

  std::size_t li = 0, di = 0, ai = 0;
  // Heartbeat edges fire at k * interval while there is anything to watch:
  // scheduled losses still pending, an undetected silent death, or an open
  // suspicion. Eliding the probes once the watch clears is what bounds the
  // final drain — and when the watch re-opens, the edge clock re-aligns to
  // the grid instead of replaying skipped edges.
  const bool hb_on = cfg_.heartbeat.enabled;
  sim::Picos next_hb = cfg_.heartbeat.interval;
  constexpr sim::Picos kNever = std::numeric_limits<sim::Picos>::max();
  for (;;) {
    // Next fleet event in deterministic (time, kind) order: loss before
    // degrade before heartbeat before retry before arrival at equal times.
    const sim::Picos tl = li < losses.size() ? losses[li].time : kNever;
    const sim::Picos td = di < degrades.size() ? degrades[di].time : kNever;
    const sim::Picos th =
        hb_on && heartbeat_watch(li < losses.size()) ? next_hb : kNever;
    const sim::Picos tr = !retries_.empty() ? retries_.front().due : kNever;
    const sim::Picos ta = ai < requests.size() ? requests[ai].arrival : kNever;
    const sim::Picos t =
        std::min(std::min(std::min(tl, td), th), std::min(tr, ta));
    if (t == kNever) break;

    run_nodes_until(t);
    expire_and_cancel_overdue(t);
    obs_tick(t);

    if (tl == t) {
      // With detection on, a loss is *silent*: the machine dies now, the
      // controller only learns of it through missed heartbeats.
      if (hb_on) {
        on_silent_death(losses[li++]);
      } else {
        on_node_loss(losses[li++]);
      }
    } else if (td == t) {
      on_node_degrade(degrades[di++]);
    } else if (th == t) {
      heartbeat_tick(t);
      next_hb += cfg_.heartbeat.interval;
    } else if (tr == t) {
      const std::uint64_t jidx = retries_.front().job;
      retries_.erase(retries_.begin());
      FleetJob& j = jobs_[jidx];
      if (!j.terminal() && j.state == FleetJobState::kPending) {
        if (!place(j, t)) {
          if (j.loss_attempts >= cfg_.replace_max_retries) {
            fail_job(j, Status::kErrorNodeLost, t);
          } else {
            ++j.loss_attempts;
            j.not_before =
                t + cfg_.replace_backoff *
                        (sim::Picos{1} << (j.loss_attempts - 1));
            retries_.push_back({j.not_before, jidx});
            std::sort(retries_.begin(), retries_.end(),
                      [](const Retry& a, const Retry& b) {
                        return a.due != b.due ? a.due < b.due : a.job < b.job;
                      });
            replace_retries_->inc();
            obs::FleetTraceEvent e;
            e.time = t;
            e.kind = obs::FleetTraceKind::kReplacementRetry;
            e.job = j.req.id;
            e.ctx = j.ctx;
            trace(std::move(e));
          }
        }
      }
    } else {
      arrivals_->inc();
      FleetJob& aj = jobs_[ai];
      // The request descriptor reaches the control plane from outside the
      // fleet; charged for cost/metering (the open-loop arrival instant
      // itself is the generator's, not the fabric's).
      (void)fabric_->transfer(ep_external(), ep_control(), kArrivalMsgBytes,
                              net::MemType::kHost, t, &aj.ctx);
      {
        obs::FleetTraceEvent e;
        e.time = t;
        e.kind = obs::FleetTraceKind::kArrival;
        e.job = aj.req.id;
        e.ctx = aj.ctx;
        e.label = templates_[aj.req.tmpl].name;
        trace(std::move(e));
      }
      ++ai;
    }
    // Keep the edge grid aligned while the watch is closed, so a watch
    // that re-opens later (an exhausted control send raising suspicion)
    // resumes at the next future edge, never one in the past.
    if (hb_on && th == kNever && next_hb <= t) {
      next_hb = (t / cfg_.heartbeat.interval + 1) * cfg_.heartbeat.interval;
    }
    try_place_pending(t);
  }

  // Drain: everything is submitted and every fault has fired. Keep stepping
  // (completions free capacity for still-pending jobs) until nothing moves.
  for (;;) {
    run_nodes_until(kNever);
    sim::Picos now = 0;
    for (const Node& n : nodes_) {
      if (n.sys != nullptr) now = std::max(now, n.sys->now());
    }
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
