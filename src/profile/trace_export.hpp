#pragma once

#include <string>
#include <vector>

#include "obs/link_monitor.hpp"
#include "profile/workload_analysis.hpp"
#include "sim/event_log.hpp"

/// \file trace_export.hpp
/// The single-machine view of the obs::ChromeTrace writer: the simulator's
/// event log and kernel records as a Chrome trace-event JSON document
/// (chrome://tracing, Perfetto, Speedscope). This is the ghum counterpart
/// of exporting an Nsight Systems timeline:
///  - kernel launches are duration events on the "GPU kernels" track;
///  - faults, migrations and evictions are instant events on a "MemSys"
///    track — one lane per tenant in co-scheduled runs;
///  - NVLink-C2C degradation windows are duration events on a "Link state"
///    track, and obs::LinkMonitor samples become a utilization counter
///    track;
///  - causal spans (sim::SpanScope) are rendered as Chrome flow arrows
///    connecting a root cause to everything it transitively triggered.
/// Simulated picoseconds map to trace microseconds (3 decimal places, i.e.
/// nanosecond resolution).

namespace ghum::profile {

/// Renders \p log and \p workload as a complete Chrome trace JSON document.
/// Closed obs::LinkMonitor windows in \p link_samples, when given, become
/// a "C2C util (permille)" counter track.
[[nodiscard]] std::string to_chrome_trace(
    const sim::EventLog& log, const WorkloadAnalysis& workload,
    const std::vector<obs::LinkSample>* link_samples = nullptr);

}  // namespace ghum::profile
