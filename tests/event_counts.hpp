#pragma once

#include <algorithm>
#include <cstdint>

#include "sim/event_log.hpp"

/// Per-type tallies of an event log, counted over its recorded stream.

namespace ghum {

/// Number of recorded events of type \p t.
inline std::size_t count_events(const sim::EventLog& log, sim::EventType t) {
  return static_cast<std::size_t>(
      std::ranges::count(log.events(), t, &sim::Event::type));
}

/// Bytes carried by the recorded events of type \p t.
inline std::uint64_t event_bytes(const sim::EventLog& log, sim::EventType t) {
  std::uint64_t bytes = 0;
  for (const sim::Event& e : log.events()) {
    if (e.type == t) bytes += e.bytes;
  }
  return bytes;
}

}  // namespace ghum
