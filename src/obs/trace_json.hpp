#pragma once

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

/// \file trace_json.hpp
/// JSON and Chrome trace-event writing primitives shared by the
/// single-machine exporter (profile/trace_export) and the fleet exporter
/// (obs/fleet_trace), plus the escaping the JSON metrics exposition uses.

namespace ghum::obs {

/// RFC 8259 string escaping: quote, backslash and every control character
/// below 0x20. Names and labels are caller-supplied, so this is
/// load-bearing — a name like `step "k"` must not break the document.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Microsecond timestamp with fixed 3-decimal (nanosecond) precision.
/// ostream default formatting flips to scientific notation on long
/// traces, which Chrome's JSON parser rejects inside ts/dur.
[[nodiscard]] std::string us(sim::Picos t);

/// Separates the event objects of a traceEvents array.
class TraceWriter {
 public:
  explicit TraceWriter(std::ostringstream& out) : out_(&out) {}

  /// Starts the next event object (comma/newline separation).
  std::ostringstream& next() {
    if (!first_) *out_ << ",\n";
    first_ = false;
    return *out_;
  }

 private:
  std::ostringstream* out_;
  bool first_ = true;
};

/// Where one member of a flow chain sits: its lane and timestamp.
struct FlowPoint {
  int pid = 1;
  int tid = 0;
  sim::Picos ts = 0;
};

/// Emits \p members as one s/t/f causal flow chain with id \p id: the
/// first member starts it, the last finishes it (bound to the enclosing
/// slice), everything between is a step. Chains shorter than two members
/// draw no arrow and emit nothing.
void append_flow_chain(TraceWriter& w, std::uint64_t id,
                       const std::vector<FlowPoint>& members);

}  // namespace ghum::obs
