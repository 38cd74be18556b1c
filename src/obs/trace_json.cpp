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

namespace {

/// Microseconds with fixed 3-decimal (nanosecond) precision: ostream
/// default formatting flips to scientific notation on long traces, which
/// Chrome's JSON parser rejects inside ts/dur.
std::string us(sim::Picos t) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", sim::to_microseconds(t));
  return buf;
}

/// A lane's fields: its pid and, when it names a thread, its tid.
std::ostream& operator<<(std::ostream& o, TraceLane lane) {
  o << R"(,"pid":)" << lane.pid;
  if (lane.tid) o << R"(,"tid":)" << *lane.tid;
  return o;
}

}  // namespace

ChromeTrace::ChromeTrace() {
  out_ << R"({"displayTimeUnit":"ms","traceEvents":[)" << "\n";
}

std::ostringstream& ChromeTrace::next() {
  if (!first_) out_ << ",\n";
  first_ = false;
  return out_;
}

void ChromeTrace::name(TraceLane lane, std::string_view name) {
  next() << R"({"name":")" << (lane.tid ? "thread" : "process")
         << R"(_name","ph":"M")" << lane << R"(,"args":{"name":")"
         << json_escape(name) << R"("}})";
}

void ChromeTrace::event(char ph, std::string_view name, TraceLane lane,
                        sim::Picos ts, sim::Picos dur, const TraceArgs& args) {
  auto& o = next() << R"({"name":")" << json_escape(name) << R"(","ph":")"
                   << ph << '"';
  if (ph == 'i') o << R"(,"s":"g")";
  o << lane << R"(,"ts":)" << us(ts);
  if (ph == 'X') o << R"(,"dur":)" << us(dur);
  o << R"(,"args":{)" << args.json() << "}}";
}

void ChromeTrace::flow(std::uint64_t id, const FlowChain& members) {
  if (members.size() < 2) return;
  for (std::size_t i = 0; i < members.size(); ++i) {
    const bool last = i + 1 == members.size();
    const char* ph = i == 0 ? "s" : (last ? "f" : "t");
    next() << R"({"name":"span","cat":"causal","ph":")" << ph << R"(","id":)"
           << id << members[i].first << R"(,"ts":)" << us(members[i].second)
           << (last ? R"(,"bp":"e"})" : "}");
  }
}

std::string ChromeTrace::finish() {
  out_ << "\n]}\n";
  return out_.str();
}

}  // namespace ghum::obs
