#include "profile/trace_export.hpp"

#include <map>
#include <set>
#include <sstream>

#include "obs/trace_json.hpp"

namespace ghum::profile {

namespace {

using obs::json_escape;
using obs::TraceWriter;
using obs::us;

void append_metadata(TraceWriter& w, const std::set<std::uint32_t>& tenants) {
  w.next() << R"({"name":"process_name","ph":"M","pid":1,"args":{"name":"ghum"}})";
  w.next() << R"({"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"GPU kernels"}})";
  w.next() << R"({"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"MemSys events"}})";
  w.next() << R"({"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"Link state"}})";
  for (const std::uint32_t t : tenants) {
    w.next() << R"({"name":"thread_name","ph":"M","pid":1,"tid":)" << (100 + t)
             << R"(,"args":{"name":"Tenant )" << t << R"( MemSys"}})";
  }
}

void append_kernel(TraceWriter& w, const cache::KernelRecord& r) {
  w.next() << R"({"name":")" << json_escape(r.name)
           << R"(","ph":"X","pid":1,"tid":1,"ts":)" << us(r.start)
           << R"(,"dur":)" << us(r.duration) << R"(,"args":{)"
           << R"("tenant":)" << r.tenant << R"(,"hbm_bytes":)"
           << r.traffic.gpu_local_bytes() << R"(,"c2c_bytes":)"
           << r.traffic.gpu_remote_bytes() << R"(,"l1l2_bytes":)"
           << r.traffic.l1l2_bytes << R"(,"managed_faults":)"
           << r.traffic.managed_faults << R"(,"first_touch_faults":)"
           << r.traffic.gpu_first_touch_faults << "}}";
}

/// Lane for one memsys instant event: shared MemSys (tid 2), or the
/// event's tenant lane in co-scheduled runs.
int event_tid(const sim::Event& e, const TraceOptions& opts) {
  if (opts.tenant_lanes && e.tenant != 0) return 100 + static_cast<int>(e.tenant);
  return 2;
}

void append_event(TraceWriter& w, const sim::Event& e, const TraceOptions& opts) {
  w.next() << R"({"name":")" << sim::to_string(e.type)
           << R"(","ph":"i","s":"g","pid":1,"tid":)" << event_tid(e, opts)
           << R"(,"ts":)" << us(e.time) << R"(,"args":{"va":")" << std::hex
           << "0x" << e.va << std::dec << R"(","bytes":)" << e.bytes
           << R"(,"span":)" << e.span << R"(,"tenant":)" << e.tenant << "}}";
}

/// Link-degradation windows: kLinkDegradeBegin/End pairs become duration
/// events on the "Link state" lane; a window still open at the end of the
/// trace is closed at the last event's timestamp.
void append_degrade_windows(TraceWriter& w, const std::vector<sim::Event>& events) {
  sim::Picos open_at = -1;
  sim::Picos last = 0;
  for (const auto& e : events) last = e.time;
  auto emit = [&](sim::Picos t0, sim::Picos t1, bool open_ended) {
    w.next() << R"({"name":"link degraded","ph":"X","pid":1,"tid":3,"ts":)"
             << us(t0) << R"(,"dur":)" << us(t1 - t0)
             << R"(,"args":{"open_ended":)" << (open_ended ? "true" : "false")
             << "}}";
  };
  for (const auto& e : events) {
    if (e.type == sim::EventType::kLinkDegradeBegin) {
      open_at = e.time;
    } else if (e.type == sim::EventType::kLinkDegradeEnd && open_at >= 0) {
      emit(open_at, e.time, false);
      open_at = -1;
    }
  }
  if (open_at >= 0) emit(open_at, last, true);
}

/// Causal flow arrows: each span with at least two events becomes a chain
/// of s/t/f flow events anchored at the member events' timestamps/lanes.
void append_flows(TraceWriter& w, const std::vector<sim::Event>& events,
                  const TraceOptions& opts) {
  std::map<std::uint32_t, std::vector<obs::FlowPoint>> spans;
  for (const auto& e : events) {
    if (e.span != 0) spans[e.span].push_back({1, event_tid(e, opts), e.time});
  }
  for (const auto& [span, members] : spans) {
    obs::append_flow_chain(w, span, members);
  }
}

void append_link_counters(TraceWriter& w, const std::vector<obs::LinkSample>& samples) {
  for (const auto& s : samples) {
    w.next() << R"x({"name":"C2C util (permille)","ph":"C","pid":1,"ts":)x"
             << us(s.t0) << R"(,"args":{"h2d":)" << s.h2d_util_permille
             << R"(,"d2h":)" << s.d2h_util_permille << "}}";
  }
}

}  // namespace

std::string to_chrome_trace(const sim::EventLog& log,
                            const WorkloadAnalysis& workload) {
  return to_chrome_trace(log, workload, TraceOptions{});
}

std::string to_chrome_trace(const sim::EventLog& log,
                            const WorkloadAnalysis& workload,
                            const TraceOptions& opts) {
  std::ostringstream out;
  out << R"({"displayTimeUnit":"ms","traceEvents":[)" << "\n";
  TraceWriter w{out};

  std::set<std::uint32_t> tenants;
  if (opts.tenant_lanes) {
    for (const auto& e : log.events()) {
      if (e.tenant != 0) tenants.insert(e.tenant);
    }
  }
  append_metadata(w, tenants);

  for (const auto& r : workload.records()) append_kernel(w, r);
  for (const auto& e : log.events()) {
    switch (e.type) {
      case sim::EventType::kKernelBegin:
      case sim::EventType::kKernelEnd:
        continue;  // kernels are exported as duration events from the records
      case sim::EventType::kLinkDegradeBegin:
      case sim::EventType::kLinkDegradeEnd:
        continue;  // rendered as durations on the Link state lane
      default:
        append_event(w, e, opts);
    }
  }
  append_degrade_windows(w, log.events());
  if (opts.flow_events) append_flows(w, log.events(), opts);
  if (opts.link_samples != nullptr) append_link_counters(w, *opts.link_samples);

  out << "\n]}\n";
  return out.str();
}

}  // namespace ghum::profile
