#include "fleet/controller.hpp"

#include <algorithm>
#include <string>

#include "chk/snapshot.hpp"
#include "core/system.hpp"
#include "tenant/scheduler.hpp"

namespace ghum::fleet {

Controller::Live Controller::tear_down(Node& n, NodeState to) {
  Live victims = std::move(n.live);
  n.live.clear();
  // Scheduler first (owns the coroutines and per-tenant runtimes), then
  // the system they reference.
  n.sched.reset();
  n.sys.reset();
  n.state = to;
  n.placed_bytes = 0;
  return victims;
}

void Controller::schedule_retry(FleetJob& j, sim::Picos t) {
  if (j.loss_attempts >= cfg_.replace_max_retries) {
    fail_job(j, Status::kErrorNodeLost, t);
    return;
  }
  ++j.loss_attempts;
  j.not_before =
      t + cfg_.replace_backoff * (sim::Picos{1} << (j.loss_attempts - 1));
  events_.push({j.not_before, EventKind::kRetry,
                static_cast<std::uint64_t>(&j - jobs_.data())});
  replace_retries_->inc();
  trace({.time = t, .kind = obs::FleetTraceKind::kReplacementRetry,
         .job = j.req.id, .ctx = j.ctx});
}

void Controller::redrive(NodeId from, const Live& victims,
                         const obs::TraceContext& ctx, sim::Picos t,
                         bool backoff) {
  for (const auto& [tid, jidx] : victims) {
    FleetJob& j = jobs_[jidx];
    const auto r = std::find_if(
        j.replicas.begin(), j.replicas.end(),
        [&](const FleetJob::Replica& rep) { return rep.node == from; });
    if (r != j.replicas.end()) j.replicas.erase(r);
    if (j.terminal()) continue;
    if (!j.replicas.empty()) continue;  // a live replica elsewhere carries on
    j.state = FleetJobState::kPending;
    j.replayed_after_loss = true;
    if (obs_on()) j.ctx = ctx;
    if (backoff) {
      schedule_retry(j, t);
    } else {
      j.not_before = t;
      events_.push({t, EventKind::kRetry, jidx});
    }
  }
}

// --- node loss ---------------------------------------------------------------

void Controller::on_node_loss(const fault::NodeLossEvent& e) {
  Node& n = nodes_[e.node];
  if (n.state != NodeState::kAlive && n.state != NodeState::kDegraded) return;
  if (!cfg_.heartbeat.enabled) {
    declare_loss(n, e.time);
    return;
  }
  if (n.sys == nullptr) return;  // already silently dead
  // With detection on, a loss is *silent*: the machine and its fabric
  // endpoint die right now; the controller's belief (state, live jobs,
  // placed bytes) stays frozen until the heartbeat detector catches up.
  // The victims sit in limbo — recovery starts at detection time, not at
  // death time.
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
    trace({.time = time, .kind = obs::FleetTraceKind::kNodeLoss, .node = n.id,
           .ctx = fault_ctx});
  }

  // The machine dies with its in-flight state. Under heartbeat detection
  // it may already be gone (silent death) — or still be running (a false
  // positive pushed past the miss threshold, the declared-dead-while-alive
  // cost of a fallible detector).
  const Live victims = tear_down(n, NodeState::kDead);
  n.suspected = false;
  n.silently_dead = false;
  fabric_->set_endpoint_down(n.id, true);

  // Replay elsewhere under the bounded backoff budget.
  redrive(n.id, victims, fault_ctx, time, /*backoff=*/true);
  shed_to_capacity(time);
}

// --- degradation and evacuation ----------------------------------------------

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
    trace({.time = e.time, .kind = obs::FleetTraceKind::kNodeDegrade,
           .node = e.node, .ctx = fault_ctx,
           .label = 'x' + std::to_string(e.slow_factor)});
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
  // No spare: keep limping along slow. No machine (a silent death not
  // yet detected): nothing to snapshot — detection replays its jobs.
  if (spare == nullptr || n.sys == nullptr) return;

  // Live migration: serialize the whole machine, ship it at the inter-node
  // transfer cost, restore onto the spare with the old machine as donor so
  // app-held host pointers survive, and re-point the scheduler. Every
  // resident job continues mid-flight (replay equivalence, DESIGN.md §10).
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

  obs::FleetTraceEvent te{.time = ship_start,
                          .duration = ship_end - ship_start,
                          .kind = obs::FleetTraceKind::kEvacuation,
                          .node = n.id,
                          .peer = spare->id,
                          .ctx = ctx,
                          .bytes = blob.size()};

  if (!blob_ok) {
    // Both copies of the image arrived corrupt: fall back to the replay
    // ladder. The spare boots fresh, every donor-resident job replays
    // from scratch on it (or wherever placement sends it), the donor
    // retires, and the corruption is surfaced through get_last_error.
    // Jobs on every other node are untouched.
    record(Status::kErrorDataCorruption);
    evac_replays_->inc();
    const Live victims = tear_down(n, NodeState::kRetired);
    activate(*spare);
    if (spare->sys->now() < ship_end) {
      spare->sys->advance(ship_end - spare->sys->now());
    }
    te.label = "image corrupt; replaying from scratch";
    trace(std::move(te));
    redrive(n.id, victims, ctx, ship_end, /*backoff=*/false);
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
  spare->live = tear_down(n, NodeState::kRetired);

  evacuations_->inc();
  migrated_bytes_->inc(blob.size());
  trace(std::move(te));
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

// --- failure detection -------------------------------------------------------

void Controller::mark_suspected(Node& n, sim::Picos t, std::string_view why) {
  if (n.suspected) return;
  n.suspected = true;
  hb_suspects_->inc();
  trace({.time = t, .kind = obs::FleetTraceKind::kNodeSuspect, .node = n.id,
         .label = std::string{why}});
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
        trace({.time = t, .kind = obs::FleetTraceKind::kNodeRejoin,
               .node = n.id});
      }
      continue;
    }
    // The first miss raises suspicion; miss_threshold consecutive misses
    // declare the loss.
    ++n.hb_misses;
    hb_misses_->inc();
    mark_suspected(n, t, "heartbeat miss");
    if (n.hb_misses >= hb.miss_threshold) {
      detected_losses_->inc();
      declare_loss(n, t);
    }
  }
}

}  // namespace ghum::fleet
