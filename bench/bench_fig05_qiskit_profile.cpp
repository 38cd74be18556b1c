// Figure 5: memory usage over time in the Quantum Volume simulation,
// system vs managed.
//
// Paper shape: the end-to-end run is much longer with system memory, but
// the difference is concentrated in the initialization phase — GPU memory
// ramps *slowly* in the system version (replayable-fault-limited GPU
// first touch) and jumps to peak almost immediately in the managed version
// (2 MiB GPU-block first touch). Computation phases look alike.
//
// With --trace <path>, the system-mode run additionally records the full
// event log, the link monitor, and causal spans, and dumps an enriched
// Chrome trace (open in chrome://tracing or https://ui.perfetto.dev); the
// slow first-touch ramp is directly visible as a dense fault band there.

#include <cstdio>
#include <cstring>
#include <string>

#include "benchsupport/report.hpp"
#include "benchsupport/scenarios.hpp"
#include "profile/trace_export.hpp"
#include "runtime/runtime.hpp"

using namespace ghum;
namespace bs = benchsupport;

int main(int argc, char** argv) {
  std::string trace_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--trace <file>]\n", argv[0]);
      return 2;
    }
  }

  bs::print_figure_header(
      "Figure 5", "Quantum Volume memory usage over time (system vs managed)",
      "system: slow GPU ramp during init, long end-to-end; managed: GPU "
      "usage peaks immediately; computation phases similar");

  const std::uint32_t qubits = 20;  // paper 33: largest that fits GPU memory
  for (apps::MemMode mode : {apps::MemMode::kSystem, apps::MemMode::kManaged}) {
    core::SystemConfig cfg = bs::qv_config(pagetable::kSystemPage64K, false);
    cfg.profiler_enabled = true;
    cfg.profiler_period = sim::microseconds(100);
    const bool dump_trace = !trace_path.empty() && mode == apps::MemMode::kSystem;
    if (dump_trace) {
      cfg.event_log = true;
      cfg.link_monitor = true;
    }
    core::System sys{cfg};
    runtime::Runtime rt{sys};
    const auto r =
        apps::run_qvsim(rt, mode, bs::qv_sim_config(bs::Scale::kDefault, qubits));
    sys.profiler().mark();

    std::printf("\n-- %s version: gpu_init=%.3f ms compute=%.3f ms --\n",
                std::string{to_string(mode)}.c_str(), r.times.gpu_init_s * 1e3,
                r.times.compute_s * 1e3);
    const auto& samples = sys.profiler().samples();
    std::printf("data\tfig05_%s\ttime_ms\tcpu_rss_mib\tgpu_used_mib\n",
                std::string{to_string(mode)}.c_str());
    const std::size_t step = samples.size() > 40 ? samples.size() / 40 : 1;
    for (std::size_t i = 0; i < samples.size(); i += step) {
      const auto& s = samples[i];
      std::printf("data\tfig05_%s\t%.3f\t%.2f\t%.2f\n",
                  std::string{to_string(mode)}.c_str(), sim::to_milliseconds(s.time),
                  static_cast<double>(s.cpu_rss_bytes) / (1 << 20),
                  static_cast<double>(s.gpu_used_bytes) / (1 << 20));
    }

    if (dump_trace) {
      sys.link_monitor().stop();
      const std::string trace = profile::to_chrome_trace(
          sys.events(), sys.workload(), &sys.link_monitor().samples());
      if (std::FILE* f = std::fopen(trace_path.c_str(), "w")) {
        std::fwrite(trace.data(), 1, trace.size(), f);
        std::fclose(f);
        std::printf("wrote Chrome trace: %s (%zu bytes)\n", trace_path.c_str(),
                    trace.size());
      } else {
        std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
        return 1;
      }
    }
  }
  return 0;
}
