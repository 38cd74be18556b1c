#include "obs/fleet_trace.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "obs/trace_json.hpp"

namespace ghum::obs {

namespace {

/// Lane assignment. The control plane is pid 1 (admission / alerts /
/// fabric threads); node i is pid 10+i with thread 0 for node-level
/// events and one thread per tenant.
constexpr int kControlPid = 1;
constexpr TraceLane kAdmissionLane{kControlPid, 1};
constexpr TraceLane kAlertLane{kControlPid, 2};
constexpr TraceLane kFabricLane{kControlPid, 3};
constexpr int kNodePidBase = 10;

TraceLane lane_of(const FleetTraceEvent& e) {
  if (e.kind == FleetTraceKind::kTransfer ||
      e.kind == FleetTraceKind::kLinkFlap) {
    return kFabricLane;
  }
  if (e.kind == FleetTraceKind::kAlertOpen ||
      e.kind == FleetTraceKind::kAlertClose) {
    return kAlertLane;
  }
  if (e.node == FleetTraceEvent::kControlLane) return kAdmissionLane;
  return {kNodePidBase + static_cast<int>(e.node), static_cast<int>(e.tenant)};
}

}  // namespace

std::string export_fleet_trace(std::vector<FleetTraceEvent> events,
                               std::uint32_t machines) {
  // Stable order by time: equal-time events keep their recording order,
  // which is itself deterministic.
  std::stable_sort(events.begin(), events.end(),
                   [](const FleetTraceEvent& a, const FleetTraceEvent& b) {
                     return a.time < b.time;
                   });

  ChromeTrace w;
  w.name({kControlPid}, "fleet control");
  w.name(kAdmissionLane, "admission");
  w.name(kAlertLane, "alerts");
  w.name(kFabricLane, "fabric");
  for (std::uint32_t n = 0; n < machines; ++n) {
    const int pid = kNodePidBase + static_cast<int>(n);
    w.name({pid}, "node " + std::to_string(n));
    w.name({pid, 0}, "node events");
  }
  std::set<std::pair<std::uint32_t, std::uint32_t>> tenants;
  for (const FleetTraceEvent& e : events) {
    if (e.node != FleetTraceEvent::kControlLane && e.tenant != 0 &&
        e.node < machines) {
      tenants.emplace(e.node, e.tenant);
    }
  }
  for (const auto& [node, tenant] : tenants) {
    w.name({kNodePidBase + static_cast<int>(node), static_cast<int>(tenant)},
           "tenant " + std::to_string(tenant));
  }

  // s/t/f flow chains, one per root span. The chain id is the (origin,
  // span) pair's dense index — spans from different origin nodes never
  // collide even when their node-local ids do. Members on different node
  // lanes render as arrows crossing pid boundaries: the causality that
  // crosses machines.
  std::map<std::pair<std::uint32_t, std::uint32_t>, FlowChain> chains;
  for (const FleetTraceEvent& e : events) {
    std::string name{to_string(e.kind)};
    if (!e.label.empty()) name += ' ' + e.label;
    const std::int64_t origin =
        e.ctx.origin_node == TraceContext::kExternal
            ? -1
            : static_cast<std::int64_t>(e.ctx.origin_node);
    TraceArgs args;
    args.add("span", e.ctx.root_span).add("origin", origin).add("bytes", e.bytes);
    if (e.job != ~0ull) args.add("job", e.job);
    if (e.peer != FleetTraceEvent::kControlLane) args.add("peer", e.peer);
    const TraceLane lane = lane_of(e);
    w.event(e.duration > 0 ? 'X' : 'i', name, lane, e.time, e.duration, args);
    if (e.ctx.traced()) {
      chains[{e.ctx.origin_node, e.ctx.root_span}].push_back({lane, e.time});
    }
  }
  std::uint64_t id = 0;
  for (const auto& [key, members] : chains) w.flow(++id, members);
  return w.finish();
}

}  // namespace ghum::obs
