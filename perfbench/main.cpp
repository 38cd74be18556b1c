// The repository benchmark. One process, one simulation thread, one
// workload per run:
//
//   perfbench --workload <paper-grid|fullscale-sweep|fleet-chaos>
//             [--seed <n>] [--seconds <s>] [--trace 0|1] [--trace-out <file>]
//   perfbench --selftest
//
// Untraced runs report the end-to-end metrics: throughput_per_s (units of
// work per host second of the timed phase, total units over total timed
// seconds), setup_s (median host seconds of the set-ups, taken before the
// first batch and spread over the timed phase) and rss_peak_mib (peak
// resident set).
// Traced runs report the per-layer metrics instead: the timed phase is
// split into a traced half and an untraced half, so the tracing overhead
// is measured, and spans recorded by this file's callers attribute the
// traced half's host time to layers. The last line of stdout is
// "PERFBENCH_RESULT <json>"; perfbench/run.py turns it into the result
// line of the benchmark contract.

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workload.hpp"

namespace perfbench {
namespace {

struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  Metrics metrics;
};

struct Phase {
  std::uint64_t units = 0;
  double seconds = 0;
  std::vector<double> batch_s;  ///< timed seconds of each batch
  [[nodiscard]] double throughput() const { return seconds > 0 ? static_cast<double>(units) / seconds : 0; }
};

/// Batches every timed phase makes regardless of --seconds: a run's digest
/// covers the first two, and a batch is checked against the first.
constexpr int kMinBatches = 2;

/// Set-ups a timed phase spreads over its length, at most one between two
/// batches: setup_s is their median, so it samples the host over the same
/// stretch of time as throughput_per_s.
constexpr int kSetupSamples = 12;

/// One timed set-up; returns its host seconds.
double timed_setup(Workload& w, SpanLog* log) {
  const std::int64_t t0 = now_ns();
  w.setup(log);
  const std::int64_t t1 = now_ns();
  return 1e-9 * static_cast<double>(t1 - t0 - w.untimed_ns());
}

/// Runs batches until at least \p seconds of timed host time have passed,
/// and at least kMinBatches and one batch per input set of the workload.
/// Before a batch, the workload sets up when it needs to or when
/// 1/kSetupSamples of \p seconds has passed since the last set-up, at most
/// once. Set-ups are timed into \p setups, never into the phase.
Phase timed_phase(Workload& w, double seconds, SpanLog* log, std::vector<double>& setups) {
  Phase ph;
  const auto batches = [&ph] { return static_cast<int>(ph.batch_s.size()); };
  const double spacing = seconds / kSetupSamples;
  double next_setup_at = spacing;
  const int min_batches = std::max(kMinBatches, w.input_sets());
  while (batches() < min_batches || ph.seconds < seconds) {
    if (w.needs_setup() || ph.seconds >= next_setup_at) {
      setups.push_back(timed_setup(w, log));
      next_setup_at = ph.seconds + spacing;
    }
    const std::int64_t t0 = now_ns();
    ph.units += w.run_batch(log);
    const std::int64_t t1 = now_ns();
    ph.batch_s.push_back(1e-9 * static_cast<double>(t1 - t0 - w.untimed_ns()));
    ph.seconds += ph.batch_s.back();
    w.check_batch(log);
  }
  return ph;
}

/// Host-time attribution of the traced batches: each span's self time is
/// charged to its layer (the name's prefix). Time in "bench" spans is the
/// benchmark's own and counts as unattributed.
void attribution(const SpanLog& log, Metrics& m) {
  const std::vector<double> self = log.self_seconds();
  const auto& spans = log.spans();
  std::map<std::string, double> by_layer;
  double total = 0;
  for (std::uint32_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[log.root_of(i)].name, "bench.batch") != 0) continue;
    const std::string_view name = spans[i].name;
    by_layer[std::string{name.substr(0, name.find('.'))}] += self[i];
    if (spans[i].parent == SpanLog::kNone) {
      total += spans[i].seconds();
    }
  }
  const double bench = by_layer["bench"];
  m["trace.unattributed_s"] = bench;
  m["trace.attributed_share"] = total > 0 ? 1.0 - bench / total : 0;
  for (const char* layer : {"bench", "apps", "core", "fleet"}) {
    m[std::string{"self_share."} + layer] = total > 0 ? by_layer[layer] / total : 0;
  }
}

/// Peak resident set of this process in KiB. VmHWM rather than
/// getrusage's ru_maxrss: Linux carries ru_maxrss across exec, so it would
/// report the launching interpreter's footprint when that is larger.
long peak_rss_kib() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    long kib = -1;
    while (kib < 0 && std::fgets(line, sizeof line, f) != nullptr) {
      if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtol(line + 6, nullptr, 10);
    }
    std::fclose(f);
    if (kib >= 0) return kib;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

std::unique_ptr<Workload> make_workload(const std::string& name, const Params& p) {
  if (name == "paper-grid") return make_grid(p);
  if (name == "fullscale-sweep") return make_sweep(p);
  if (name == "fleet-chaos") return make_chaos(p);
  return nullptr;
}

RunResult run(Workload& w, double seconds, bool traced, const std::string& trace_out) {
  RunResult r;
  SpanLog log;
  SpanLog* setup_log = traced ? &log : nullptr;
  std::vector<double> setups{timed_setup(w, setup_log)};
  if (!traced) {
    const Phase ph = timed_phase(w, seconds, nullptr, setups);
    r.metrics["throughput_per_s"] = ph.throughput();
    r.metrics["setup_s"] = median(setups);
    r.metrics["rss_peak_mib"] = static_cast<double>(peak_rss_kib()) / 1024.0;
    std::printf("timed phase: %" PRIu64 " units in %.3f s over %zu batches; %zu set-ups\n",
                ph.units, ph.seconds, ph.batch_s.size(), setups.size());
    std::printf("batch seconds:");
    for (const double b : ph.batch_s) std::printf(" %.4f", b);
    std::printf("\nsetup seconds:");
    for (const double s : setups) std::printf(" %.4f", s);
    std::printf("\n");
  } else {
    // The traced half runs first, so the set-ups made before it (which a
    // workload may use to install its own step timing) serve it.
    const Phase on = timed_phase(w, seconds / 2, &log, setups);
    const Phase off = timed_phase(w, seconds / 2, nullptr, setups);
    r.metrics["trace.overhead_share"] =
        off.throughput() > 0 ? (off.throughput() - on.throughput()) / off.throughput() : 0;
    attribution(log, r.metrics);
    w.layer_metrics(log, r.metrics);
    std::printf("traced: %.1f units/s, untraced: %.1f units/s, %zu spans\n", on.throughput(),
                off.throughput(), log.spans().size());
    if (!trace_out.empty() && !log.write_json(trace_out)) {
      std::fprintf(stderr, "cannot write %s\n", trace_out.c_str());
    }
  }
  r.attempted = w.attempted;
  r.failed = w.failed;
  r.digest = w.digest();
  return r;
}

/// The benchmark's own tests, at small sizes: every workload runs twice
/// per seed with identical digests and no failed operation (traced or
/// not, on two seeds, with and without set-ups between batches), and a
/// corrupted reference checksum is caught.
int selftest() {
  int bad = 0;
  const auto expect = [&bad](bool ok, const std::string& what) {
    std::printf("%-60s %s\n", what.c_str(), ok ? "ok" : "FAIL");
    if (!ok) ++bad;
  };
  for (const char* name : {"paper-grid", "fullscale-sweep", "fleet-chaos"}) {
    const auto once = [name](std::uint64_t seed, bool traced, bool corrupt, double seconds = 0) {
      Params p;
      p.seed = seed;
      p.small = true;
      p.corrupt_reference = corrupt;
      auto w = make_workload(name, p);
      return run(*w, seconds, traced, "");
    };
    const std::string n = name;
    const RunResult a = once(1, false, false);
    const RunResult b = once(1, false, false);
    const RunResult t = once(1, true, false);
    const RunResult c = once(2, false, false);
    const RunResult x = once(1, false, true);
    // A phase with a length also sets up between batches.
    const RunResult l = once(1, false, false, 1.0);
    expect(a.attempted > 0 && a.failed == 0 && b.failed == 0, n + ": no failed operation");
    expect(a.digest == b.digest, n + ": digest repeats across runs");
    expect(t.failed == 0 && t.digest == a.digest, n + ": traced run has the same digest");
    expect(c.failed == 0 && c.attempted > 0, n + ": second seed has no failed operation");
    expect(l.failed == 0 && l.digest == a.digest, n + ": set-ups between batches keep the digest");
    expect(x.failed > 0, n + ": wrong reference checksum is caught");
  }
  std::printf("%s\n", bad == 0 ? "selftest passed" : "selftest FAILED");
  return bad == 0 ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <paper-grid|fullscale-sweep|fleet-chaos> "
               "[--seed <n>] [--seconds <s>] [--trace 0|1] [--trace-out <file>]\n"
               "       %s --selftest\n",
               argv0, argv0);
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::string trace_out;
  Params p;
  double seconds = 10;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--selftest") return selftest();
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      p.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      traced = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  std::unique_ptr<Workload> w = make_workload(workload, p);
  if (w == nullptr || !(seconds >= 0)) return usage(argv[0]);

  const RunResult r = run(*w, seconds, traced, trace_out);
  std::printf("digest %016" PRIx64 "; %" PRIu64 " operations, %" PRIu64 " failed\n", r.digest,
              r.attempted, r.failed);
  std::string json = "{\"correct\": ";
  json += r.failed == 0 && r.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : r.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    json += (first ? "\"" : ", \"") + name + "\": " + buf;
    first = false;
  }
  json += "}}";
  std::printf("PERFBENCH_RESULT %s\n", json.c_str());
  return 0;
}
