#include "obs/trace_json.hpp"

#include <cstdio>

namespace ghum::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string us(sim::Picos t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", sim::to_microseconds(t));
  return buf;
}

void append_flow_chain(TraceWriter& w, std::uint64_t id,
                       const std::vector<FlowPoint>& members) {
  if (members.size() < 2) return;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const FlowPoint& p = members[i];
    const bool last = i + 1 == members.size();
    const char* ph = i == 0 ? "s" : (last ? "f" : "t");
    w.next() << R"({"name":"span","cat":"causal","ph":")" << ph
             << R"(","id":)" << id << R"(,"pid":)" << p.pid << R"(,"tid":)"
             << p.tid << R"(,"ts":)" << us(p.ts)
             << (last ? R"(,"bp":"e"})" : "}");
  }
}

}  // namespace ghum::obs
