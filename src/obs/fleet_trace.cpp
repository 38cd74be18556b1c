#include "obs/fleet_trace.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "obs/trace_json.hpp"

namespace ghum::obs {

namespace {

/// Lane assignment. The control plane is pid 1 (admission / alerts /
/// fabric threads); node i is pid 10+i with thread 0 for node-level
/// events and one thread per tenant.
struct Lane {
  int pid = 1;
  int tid = 1;
};

constexpr int kControlPid = 1;
constexpr int kAdmissionTid = 1;
constexpr int kAlertTid = 2;
constexpr int kFabricTid = 3;
constexpr int kNodePidBase = 10;

Lane lane_of(const FleetTraceEvent& e, const FleetTraceOptions& opts) {
  if (e.kind == FleetTraceKind::kTransfer ||
      e.kind == FleetTraceKind::kLinkFlap) {
    return {kControlPid, kFabricTid};
  }
  if (e.kind == FleetTraceKind::kAlertOpen ||
      e.kind == FleetTraceKind::kAlertClose) {
    return {kControlPid, kAlertTid};
  }
  if (e.node == FleetTraceEvent::kControlLane) {
    return {kControlPid, kAdmissionTid};
  }
  const int pid = kNodePidBase + static_cast<int>(e.node);
  const int tid = (opts.tenant_lanes && e.tenant != 0)
                      ? static_cast<int>(e.tenant)
                      : 0;
  return {pid, tid};
}

void append_metadata(TraceWriter& w, std::uint32_t machines,
                     const std::vector<FleetTraceEvent>& events,
                     const FleetTraceOptions& opts) {
  w.next() << R"({"name":"process_name","ph":"M","pid":1,"args":{"name":"fleet control"}})";
  w.next() << R"({"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"admission"}})";
  w.next() << R"({"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"alerts"}})";
  w.next() << R"({"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"fabric"}})";
  for (std::uint32_t n = 0; n < machines; ++n) {
    w.next() << R"({"name":"process_name","ph":"M","pid":)"
             << (kNodePidBase + n) << R"(,"args":{"name":"node )" << n
             << R"("}})";
    w.next() << R"({"name":"thread_name","ph":"M","pid":)"
             << (kNodePidBase + n)
             << R"(,"tid":0,"args":{"name":"node events"}})";
  }
  if (opts.tenant_lanes) {
    std::set<std::pair<std::uint32_t, std::uint32_t>> lanes;
    for (const FleetTraceEvent& e : events) {
      if (e.node != FleetTraceEvent::kControlLane && e.tenant != 0 &&
          e.node < machines) {
        lanes.emplace(e.node, e.tenant);
      }
    }
    for (const auto& [node, tenant] : lanes) {
      w.next() << R"({"name":"thread_name","ph":"M","pid":)"
               << (kNodePidBase + node) << R"(,"tid":)" << tenant
               << R"(,"args":{"name":"tenant )" << tenant << R"("}})";
    }
  }
}

void append_event(TraceWriter& w, const FleetTraceEvent& e, const Lane& lane) {
  std::string name{to_string(e.kind)};
  if (!e.label.empty()) {
    name += ' ';
    name += e.label;
  }
  auto& out = w.next();
  out << R"({"name":")" << json_escape(name) << R"(","ph":")"
      << (e.duration > 0 ? 'X' : 'i') << '"';
  if (e.duration <= 0) out << R"(,"s":"g")";
  out << R"(,"pid":)" << lane.pid << R"(,"tid":)" << lane.tid << R"(,"ts":)"
      << us(e.time);
  if (e.duration > 0) out << R"(,"dur":)" << us(e.duration);
  out << R"(,"args":{"span":)" << e.ctx.root_span << R"(,"origin":)"
      << static_cast<std::int64_t>(
             e.ctx.origin_node == TraceContext::kExternal
                 ? -1
                 : static_cast<std::int64_t>(e.ctx.origin_node))
      << R"(,"bytes":)" << e.bytes;
  if (e.job != ~0ull) out << R"(,"job":)" << e.job;
  if (e.peer != FleetTraceEvent::kControlLane) out << R"(,"peer":)" << e.peer;
  out << "}}";
}

/// s/t/f flow chains, one per root span with >= 2 member events. The
/// chain id is the (origin, span) pair's dense index — spans from
/// different origin nodes never collide even when their node-local ids
/// do. Members on different node lanes render as arrows crossing pid
/// boundaries: the causality that crosses machines.
void append_flows(TraceWriter& w, const std::vector<const FleetTraceEvent*>& ordered,
                  const FleetTraceOptions& opts) {
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<FlowPoint>>
      chains;
  for (const FleetTraceEvent* e : ordered) {
    if (e->ctx.traced()) {
      const Lane lane = lane_of(*e, opts);
      chains[{e->ctx.origin_node, e->ctx.root_span}].push_back(
          {lane.pid, lane.tid, e->time});
    }
  }
  std::uint64_t id = 0;
  for (const auto& [key, members] : chains) append_flow_chain(w, ++id, members);
}

}  // namespace

std::string export_fleet_trace(const std::vector<FleetTraceEvent>& events,
                               std::uint32_t machines,
                               const FleetTraceOptions& opts) {
  // Stable order by time: equal-time events keep their recording order,
  // which is itself deterministic.
  std::vector<const FleetTraceEvent*> ordered;
  ordered.reserve(events.size());
  for (const FleetTraceEvent& e : events) ordered.push_back(&e);
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const FleetTraceEvent* a, const FleetTraceEvent* b) {
                     return a->time < b->time;
                   });

  std::ostringstream out;
  out << R"({"displayTimeUnit":"ms","traceEvents":[)" << "\n";
  TraceWriter w{out};
  append_metadata(w, machines, events, opts);
  for (const FleetTraceEvent* e : ordered) append_event(w, *e, lane_of(*e, opts));
  if (opts.flow_events) append_flows(w, ordered, opts);
  out << "\n]}\n";
  return out.str();
}

}  // namespace ghum::obs
