#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

/// \file spans.hpp
/// Host-time spans for the traced run. Spans are recorded only by the
/// benchmark's own code, around its calls into the library's modules, and
/// kept in memory until the run ends. The simulator is single-threaded, so
/// spans nest strictly: a span's parent is whichever span was open when it
/// began.

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Span names are "<layer>.<call>" string literals. The layer is the
/// src/<module> the timed call goes into, or "bench" for the benchmark's
/// own glue (loops, checks, counter reads).
class SpanLog {
 public:
  static constexpr std::uint32_t kNone = ~0u;

  struct Span {
    const char* name = "";
    std::uint32_t parent = kNone;
    std::uint64_t unit = 0;  ///< cell, pass, request or job-incarnation id
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    [[nodiscard]] double seconds() const { return 1e-9 * static_cast<double>(end_ns - start_ns); }
  };

  SpanLog() { spans_.reserve(1u << 16); }

  std::uint32_t open(const char* name, std::uint64_t unit) {
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back({name, open_, unit, now_ns(), 0});
    open_ = id;
    return id;
  }
  void close(std::uint32_t id) {
    spans_[id].end_ns = now_ns();
    open_ = spans_[id].parent;
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Seconds of each span not covered by its direct children.
  [[nodiscard]] std::vector<double> self_seconds() const {
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const double d = spans_[i].seconds();
      self[i] += d;
      if (spans_[i].parent != kNone) self[spans_[i].parent] -= d;
    }
    return self;
  }

  /// Index of the root span enclosing span \p i.
  [[nodiscard]] std::uint32_t root_of(std::uint32_t i) const {
    while (spans_[i].parent != kNone) i = spans_[i].parent;
    return i;
  }

  /// Writes every span as JSON (one object per line inside "spans").
  bool write_json(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"parent\": %lld, "
                   "\"unit\": %llu, \"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                   i, s.name,
                   s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.unit),
                   static_cast<long long>(s.start_ns - spans_.front().start_ns),
                   static_cast<long long>(s.end_ns - spans_.front().start_ns),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::uint32_t open_ = kNone;
};

/// RAII span; a no-op when \p log is null (the untraced run).
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::uint64_t unit) : log_(log) {
    if (log_ != nullptr) id_ = log_->open(name, unit);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }

 private:
  SpanLog* log_;
  std::uint32_t id_ = SpanLog::kNone;
};

/// Durations in seconds of every span named \p name.
[[nodiscard]] inline std::vector<double> durations(const SpanLog& log,
                                                   std::string_view name) {
  std::vector<double> out;
  for (const SpanLog::Span& s : log.spans()) {
    if (name == s.name) out.push_back(s.seconds());
  }
  return out;
}

}  // namespace perfbench
