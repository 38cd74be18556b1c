#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

/// \file fleet_trace.hpp
/// Cross-node causal tracing (DESIGN.md Section 13). A TraceContext —
/// the root span id plus the node that opened it — rides on every fabric
/// transfer and fleet control message, so a fault -> migration ->
/// evacuation -> re-placement chain keeps one causal identity across
/// machines. The fleet controller records FleetTraceEvents as the chain
/// unfolds; export_fleet_trace() renders them as a Chrome trace-event
/// document with one process lane per node, per-tenant threads, s/t/f
/// flow arrows that cross node (pid) boundaries, and link-flap duration
/// events. The output is validated by obs::json_valid in the tests and
/// benches that write it.

namespace ghum::obs {

/// Causal identity carried across node boundaries. span 0 = untraced.
/// origin kExternal = the span was opened by the control plane / outside
/// world rather than on a machine.
struct TraceContext {
  static constexpr std::uint32_t kExternal = ~0u;

  std::uint32_t root_span = 0;
  std::uint32_t origin_node = kExternal;

  [[nodiscard]] bool traced() const noexcept { return root_span != 0; }
};

enum class FleetTraceKind : std::uint8_t {
  kArrival,           ///< request reached the control plane
  kPlacement,         ///< placement command delivered to a node
  kJobFinish,         ///< replica completed on a node
  kJobFail,           ///< fleet job reached kFailed
  kNodeLoss,          ///< whole-node loss fired
  kNodeDegrade,       ///< node slowed down
  kEvacuation,        ///< live migration donor -> spare (duration, bytes)
  kReplacementRetry,  ///< backoff re-placement attempt scheduled
  kShed,              ///< admission control dropped a pending job
  kTransfer,          ///< bulk fabric message (duration, bytes)
  kAlertOpen,         ///< SLO alert fired
  kAlertClose,        ///< SLO alert resolved
  kLinkFlap,          ///< flap window (duration) on the fabric lane
  kNodeSuspect,       ///< heartbeat miss moved a node to suspected
  kNodeRejoin,        ///< suspected node answered in time; suspicion cleared
};

[[nodiscard]] constexpr std::string_view to_string(FleetTraceKind k) noexcept {
  switch (k) {
    case FleetTraceKind::kArrival: return "arrival";
    case FleetTraceKind::kPlacement: return "placement";
    case FleetTraceKind::kJobFinish: return "job finish";
    case FleetTraceKind::kJobFail: return "job fail";
    case FleetTraceKind::kNodeLoss: return "node loss";
    case FleetTraceKind::kNodeDegrade: return "node degrade";
    case FleetTraceKind::kEvacuation: return "evacuation";
    case FleetTraceKind::kReplacementRetry: return "replacement retry";
    case FleetTraceKind::kShed: return "shed";
    case FleetTraceKind::kTransfer: return "transfer";
    case FleetTraceKind::kAlertOpen: return "alert open";
    case FleetTraceKind::kAlertClose: return "alert close";
    case FleetTraceKind::kLinkFlap: return "link flap";
    case FleetTraceKind::kNodeSuspect: return "node suspect";
    case FleetTraceKind::kNodeRejoin: return "node rejoin";
  }
  return "?";
}

/// One record in the fleet event stream. node selects the process lane
/// (kControlLane = the fleet-control process); tenant selects the thread
/// within a node lane (0 = the node-events thread). A non-zero ctx makes
/// the event a member of that root span's flow chain.
struct FleetTraceEvent {
  static constexpr std::uint32_t kControlLane = ~0u;

  sim::Picos time = 0;
  sim::Picos duration = 0;  ///< > 0 renders as a Chrome "X" duration event
  FleetTraceKind kind = FleetTraceKind::kArrival;
  std::uint32_t node = kControlLane;
  std::uint32_t peer = kControlLane;  ///< transfer/evacuation destination
  std::uint32_t tenant = 0;
  std::uint64_t job = ~0ull;  ///< fleet job id (~0 = none)
  TraceContext ctx{};
  std::uint64_t bytes = 0;
  std::string label{};  ///< extra name detail (may be user-supplied; escaped)
};

/// The fleet view of the ChromeTrace writer: renders \p events (any
/// order; stable-sorted by time internally) for a fleet of \p machines
/// node lanes. Strictly valid JSON regardless of label contents.
[[nodiscard]] std::string export_fleet_trace(
    std::vector<FleetTraceEvent> events, std::uint32_t machines);

}  // namespace ghum::obs
