#include "fleet/controller.hpp"

#include <algorithm>

#include "core/system.hpp"
#include "tenant/scheduler.hpp"

namespace ghum::fleet {

namespace {

/// Control-plane message size of a placement command (job spec reference)
/// on the fabric; eager-regime, like the arrival notification.
constexpr std::uint64_t kPlacementMsgBytes = 256;

}  // namespace

NodeId Controller::pick_node(std::uint64_t footprint,
                             const std::vector<NodeId>& exclude) const {
  const std::uint64_t budget = node_budget();
  NodeId best = kNoNode;
  sim::Picos best_eta = 0;  // min predicted completion
  for (const Node& n : nodes_) {
    if (n.state != NodeState::kAlive || n.suspected) continue;
    if (std::find(exclude.begin(), exclude.end(), n.id) != exclude.end()) {
      continue;
    }
    if (n.placed_bytes + footprint > budget) continue;
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
    trace({.time = start_at, .kind = obs::FleetTraceKind::kPlacement,
           .node = nid, .tenant = tid, .job = j.req.id, .ctx = j.ctx,
           .label = tmpl.name});
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

// --- admission control -------------------------------------------------------

void Controller::expire_and_cancel_overdue(sim::Picos now) {
  for (FleetJob& j : jobs_) {
    if (j.terminal() || j.req.priority < cfg_.shed_protect_classes) continue;
    if (j.state == FleetJobState::kPending) {
      if (j.req.arrival <= now && j.req.deadline < now) {
        fail_job(j, Status::kErrorDeadlineExceeded, now);
      }
    } else if (j.state == FleetJobState::kPlaced) {
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
    trace({.time = now, .kind = obs::FleetTraceKind::kShed,
           .job = victim->req.id, .ctx = victim->ctx});
    fail_job(*victim, Status::kErrorNodeLost, now);
    shed_->inc();
  }
}

}  // namespace ghum::fleet
