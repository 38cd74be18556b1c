// Figure 4: memory usage over time in hotspot, system vs managed version.
//
// Paper shape — system version: GPU usage stays flat at the driver
// baseline while CPU RSS ramps during initialization and stays up through
// the computation (data is accessed remotely, never migrated). Managed
// version: the same CPU ramp, then at the start of computation a steep RSS
// drop mirrored by a sharp GPU-usage rise (on-demand migration).
//
// With --trace <path>, the managed run additionally records the full event
// log, the link monitor, and causal spans, and dumps an enriched Chrome
// trace (open in chrome://tracing or https://ui.perfetto.dev).

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
      "Figure 4", "hotspot memory usage over time (system vs managed)",
      "system: flat GPU usage, CPU RSS ramp persists; managed: RSS drop + "
      "GPU spike when computation begins migrating pages");

  for (apps::MemMode mode : {apps::MemMode::kSystem, apps::MemMode::kManaged}) {
    core::SystemConfig cfg = bs::rodinia_config(pagetable::kSystemPage64K, false);
    cfg.profiler_enabled = true;
    cfg.profiler_period = sim::microseconds(100);
    const bool dump_trace =
        !trace_path.empty() && mode == apps::MemMode::kManaged;
    if (dump_trace) {
      cfg.event_log = true;
      cfg.link_monitor = true;
    }
    core::System sys{cfg};
    runtime::Runtime rt{sys};
    (void)apps::run_hotspot(rt, mode, bs::hotspot_config(bs::Scale::kDefault));
    sys.profiler().mark();

    std::printf("\n-- %s version --\n", std::string{to_string(mode)}.c_str());
    std::printf("data\tfig04_%s\ttime_ms\tcpu_rss_mib\tgpu_used_mib\n",
                std::string{to_string(mode)}.c_str());
    const auto& samples = sys.profiler().samples();
    // Thin the series for readability: ~40 rows.
    const std::size_t step = samples.size() > 40 ? samples.size() / 40 : 1;
    for (std::size_t i = 0; i < samples.size(); i += step) {
      const auto& s = samples[i];
      std::printf("data\tfig04_%s\t%.3f\t%.2f\t%.2f\n",
                  std::string{to_string(mode)}.c_str(), sim::to_milliseconds(s.time),
                  static_cast<double>(s.cpu_rss_bytes) / (1 << 20),
                  static_cast<double>(s.gpu_used_bytes) / (1 << 20));
    }
    std::printf("peak: cpu_rss=%.1f MiB gpu_used=%.1f MiB, final gpu=%.1f MiB\n",
                static_cast<double>(sys.profiler().peak_cpu_rss()) / (1 << 20),
                static_cast<double>(sys.profiler().peak_gpu_used()) / (1 << 20),
                static_cast<double>(samples.back().gpu_used_bytes) / (1 << 20));

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
