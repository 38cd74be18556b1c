#include "profile/trace_export.hpp"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>

#include "obs/trace_json.hpp"
#include "profile/tracer.hpp"

namespace ghum::profile {

namespace {

using obs::TraceArgs;
using obs::TraceLane;

constexpr int kPid = 1;
constexpr TraceLane kKernelLane{kPid, 1};
constexpr TraceLane kMemSysLane{kPid, 2};
constexpr TraceLane kLinkLane{kPid, 3};

TraceLane tenant_lane(std::uint32_t tenant) {
  return {kPid, 100 + static_cast<int>(tenant)};
}

/// Lane for one memsys instant event: shared MemSys, or the event's
/// tenant lane in co-scheduled runs.
TraceLane lane_of(const sim::Event& e) {
  return e.tenant != 0 ? tenant_lane(e.tenant) : kMemSysLane;
}

}  // namespace

std::string to_chrome_trace(const sim::EventLog& log,
                            const WorkloadAnalysis& workload,
                            const std::vector<obs::LinkSample>* link_samples) {
  obs::ChromeTrace w;
  w.name({kPid}, "ghum");
  w.name(kKernelLane, "GPU kernels");
  w.name(kMemSysLane, "MemSys events");
  w.name(kLinkLane, "Link state");
  std::set<std::uint32_t> tenants;
  for (const auto& e : log.events()) {
    if (e.tenant != 0) tenants.insert(e.tenant);
  }
  for (const std::uint32_t t : tenants) {
    w.name(tenant_lane(t), "Tenant " + std::to_string(t) + " MemSys");
  }

  for (const auto& r : workload.records()) {
    w.event('X', r.name, kKernelLane, r.start, r.duration,
            TraceArgs{}
                .add("tenant", r.tenant)
                .add("hbm_bytes", r.traffic.gpu_local_bytes())
                .add("c2c_bytes", r.traffic.gpu_remote_bytes())
                .add("l1l2_bytes", r.traffic.l1l2_bytes)
                .add("managed_faults", r.traffic.managed_faults)
                .add("first_touch_faults", r.traffic.gpu_first_touch_faults));
  }
  // Causal flow arrows: each span is a chain anchored at its member
  // events' timestamps and lanes, whatever their type.
  std::map<std::uint32_t, obs::FlowChain> spans;
  for (const auto& e : log.events()) {
    if (e.span != 0) spans[e.span].push_back({lane_of(e), e.time});
    switch (e.type) {
      case sim::EventType::kKernelBegin:
      case sim::EventType::kKernelEnd:
      case sim::EventType::kLinkDegradeBegin:
      case sim::EventType::kLinkDegradeEnd:
        continue;  // kernels and link windows are duration events
      default: {
        char va[24];
        std::snprintf(va, sizeof va, "0x%" PRIx64, e.va);
        w.event('i', sim::to_string(e.type), lane_of(e), e.time, 0,
                TraceArgs{}
                    .add("va", va)
                    .add("bytes", e.bytes)
                    .add("span", e.span)
                    .add("tenant", e.tenant));
      }
    }
  }
  // Link-degradation windows are durations on the Link state lane; a
  // window still open at the end of the trace closes at the last event.
  for (const LinkWindow& lw : link_degrade_windows(log)) {
    w.event('X', "link degraded", kLinkLane, lw.begin, lw.end - lw.begin,
            TraceArgs{}.add("open_ended", lw.open));
  }
  for (const auto& [span, members] : spans) w.flow(span, members);
  if (link_samples != nullptr) {
    for (const auto& s : *link_samples) {
      w.event('C', "C2C util (permille)", {kPid}, s.t0, 0,
              TraceArgs{}
                  .add("h2d", s.h2d_util_permille)
                  .add("d2h", s.d2h_util_permille));
    }
  }
  return w.finish();
}

}  // namespace ghum::profile
