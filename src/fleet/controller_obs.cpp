#include "fleet/controller.hpp"

#include <string>
#include <utility>

#include "core/machine.hpp"
#include "core/system.hpp"
#include "tenant/scheduler.hpp"

namespace ghum::fleet {

void Controller::trace(obs::FleetTraceEvent e) {
  if (obs_on()) trace_.push_back(std::move(e));
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
  fabric_->set_log_enabled(true);
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
    trace({.time = ae.time,
           .kind = ae.open ? obs::FleetTraceKind::kAlertOpen
                           : obs::FleetTraceKind::kAlertClose,
           .label = r.name + " [" + std::string{obs::to_string(r.severity)} +
                    "]"});
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
    evs.push_back({.time = r.start,
                   .duration = r.end - r.start,
                   .kind = obs::FleetTraceKind::kTransfer,
                   .node = r.src,
                   .peer = r.dst,
                   .ctx = r.ctx,
                   .bytes = r.bytes,
                   .label = std::string{net::to_string(r.proto)}});
  }
  for (const fault::LinkFlapWindow& w : cfg_.faults.link_flap) {
    const bool all = w.node_b == fault::LinkFlapWindow::kAllPeers;
    evs.push_back(
        {.time = w.start,
         .duration = w.duration,
         .kind = obs::FleetTraceKind::kLinkFlap,
         .node = w.node_a,
         .peer = all ? obs::FleetTraceEvent::kControlLane : w.node_b,
         .label = all ? std::to_string(w.node_a) + "-*"
                      : std::to_string(w.node_a) + "-" +
                            std::to_string(w.node_b)});
  }
  return obs::export_fleet_trace(std::move(evs), cfg_.nodes + cfg_.spares);
}

}  // namespace ghum::fleet
