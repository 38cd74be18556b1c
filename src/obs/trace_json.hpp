#pragma once

#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

/// \file trace_json.hpp
/// JSON escaping (shared with the metrics exposition) and the one Chrome
/// trace-event writer. The single-machine timeline (profile/trace_export)
/// and the fleet timeline (obs/fleet_trace) are views that map their
/// records onto ChromeTrace: each decides its lanes, flow ids, event order
/// and args; the writer decides only the format.

namespace ghum::obs {

/// RFC 8259 string escaping: quote, backslash and every control character
/// below 0x20. Names and labels are caller-supplied, so this is
/// load-bearing — a name like `step "k"` must not break the document.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Where an event sits in the viewer: a process, or one of its threads.
struct TraceLane {
  int pid = 1;
  std::optional<int> tid{};  ///< none: the process itself (name, counters)
};

/// The members of one causal flow chain, in order: lane and timestamp each.
using FlowChain = std::vector<std::pair<TraceLane, sim::Picos>>;

/// The "args" object of one event, keys in insertion order: integers
/// render bare, bools as true/false, anything else as an escaped string.
class TraceArgs {
 public:
  template <class T>
  TraceArgs& add(std::string_view key, const T& value) {
    if (!body_.empty()) body_ += ',';
    body_ += '"';
    body_ += key;
    body_ += "\":";
    if constexpr (std::is_same_v<T, bool>) {
      body_ += value ? "true" : "false";
    } else if constexpr (std::is_integral_v<T>) {
      body_ += std::to_string(value);
    } else {
      body_ += '"' + json_escape(value) + '"';
    }
    return *this;
  }

  [[nodiscard]] const std::string& json() const noexcept { return body_; }

 private:
  std::string body_;
};

/// One Chrome trace-event JSON document (chrome://tracing, Perfetto,
/// Speedscope). Event names are escaped; simulated picoseconds render as
/// microseconds with fixed 3-decimal (nanosecond) precision.
class ChromeTrace {
 public:
  ChromeTrace();

  /// Names \p lane: a process_name record, or thread_name with a tid.
  void name(TraceLane lane, std::string_view name);

  /// One event of phase \p ph: 'i' a global-scope instant, 'X' a
  /// duration covering [ts, ts + dur], 'C' a counter sample on the
  /// process's track \p name. \p dur is written for 'X' only.
  void event(char ph, std::string_view name, TraceLane lane, sim::Picos ts,
             sim::Picos dur, const TraceArgs& args);

  /// One causal flow chain with id \p id: the first member starts it, the
  /// last finishes it (bound to the enclosing slice), everything between
  /// is a step. Chains shorter than two members draw no arrow and emit
  /// nothing.
  void flow(std::uint64_t id, const FlowChain& members);

  /// Closes the document and returns it.
  [[nodiscard]] std::string finish();

 private:
  std::ostringstream& next();

  std::ostringstream out_;
  bool first_ = true;
};

}  // namespace ghum::obs
