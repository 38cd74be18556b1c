#include "benchsupport/report.hpp"

#include <algorithm>
#include <cstdio>

namespace ghum::benchsupport {

void print_figure_header(std::string_view figure, std::string_view caption,
                         std::string_view paper_expectation) {
  std::printf("\n## %.*s — %.*s\n", static_cast<int>(figure.size()), figure.data(),
              static_cast<int>(caption.size()), caption.data());
  std::printf("paper: %.*s\n", static_cast<int>(paper_expectation.size()),
              paper_expectation.data());
}

void print_report_table_header() {
  std::printf("%-12s %-9s %8s %9s %10s %10s %10s %10s %12s\n", "app", "mode",
              "ctx_ms", "alloc_ms", "cpuinit_ms", "gpuinit_ms", "compute_ms",
              "dealloc_ms", "total_ms");
}

void print_report_row(const apps::AppReport& r) {
  std::printf("%-12s %-9s %8.1f %9.3f %10.3f %10.3f %10.3f %10.3f %12.3f\n",
              r.app.c_str(), std::string{to_string(r.mode)}.c_str(),
              r.times.context_s * 1e3, r.times.alloc_s * 1e3,
              r.times.cpu_init_s * 1e3, r.times.gpu_init_s * 1e3,
              r.times.compute_s * 1e3, r.times.dealloc_s * 1e3,
              r.times.reported_total_s() * 1e3);
}

double speedup(double baseline_s, double value_s) {
  return value_s > 0 ? baseline_s / value_s : 0.0;
}

void print_metric(std::string_view name, double value, std::string_view unit) {
  std::printf("metric\t%.*s\t%g\t%.*s\n", static_cast<int>(name.size()), name.data(),
              value, static_cast<int>(unit.size()), unit.data());
}

void print_counts(const Counts& counts) {
  std::printf(" ");
  for (const auto& [name, value] : counts) {
    std::printf(" %.*s=%llu", static_cast<int>(name.size()), name.data(),
                static_cast<unsigned long long>(value));
  }
  std::printf("\n");
}

void json_counts(std::FILE* f, const Counts& counts) {
  for (const auto& [name, value] : counts) {
    std::fprintf(f, "  \"%.*s\": %llu,\n", static_cast<int>(name.size()),
                 name.data(), static_cast<unsigned long long>(value));
  }
}

void json_object(std::FILE* f, std::string_view name, const Counts& counts) {
  std::fprintf(f, "  \"%.*s\": {", static_cast<int>(name.size()), name.data());
  for (std::size_t i = 0; i < counts.size(); ++i) {
    std::fprintf(f, "%s\"%.*s\": %llu", i == 0 ? "" : ", ",
                 static_cast<int>(counts[i].first.size()), counts[i].first.data(),
                 static_cast<unsigned long long>(counts[i].second));
  }
  std::fprintf(f, "},\n");
}

void print_gates(const Gates& gates) {
  std::printf("gates:");
  for (const auto& [name, ok] : gates) {
    std::printf(" %.*s=%s", static_cast<int>(name.size()), name.data(),
                ok ? "ok" : "FAIL");
  }
  std::printf("\n");
}

void json_gates(std::FILE* f, const Gates& gates) {
  std::fprintf(f, "  \"gates\": {");
  for (std::size_t i = 0; i < gates.size(); ++i) {
    std::string key{gates[i].first};
    std::replace(key.begin(), key.end(), '-', '_');
    std::fprintf(f, "%s\"%s_ok\": %s", i == 0 ? "" : ", ", key.c_str(),
                 gates[i].second ? "true" : "false");
  }
  std::fprintf(f, "},\n");
}

int verdict(std::string_view bench, std::size_t failures) {
  const int n = static_cast<int>(bench.size());
  if (failures != 0) {
    std::fprintf(stderr, "FAIL: %zu %.*s check failures\n", failures, n,
                 bench.data());
    return 1;
  }
  std::printf("all %.*s checks passed\n", n, bench.data());
  return 0;
}

void json_tail(std::FILE* f, std::size_t failures) {
  std::fprintf(f, "  \"total_failures\": %zu,\n", failures);
  std::fprintf(f, "  \"ok\": %s\n", failures == 0 ? "true" : "false");
  std::fprintf(f, "}\n");
}

bool write_artifact(const std::string& path,
                    const std::function<void(std::FILE*)>& body) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  body(f);
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
  return true;
}

}  // namespace ghum::benchsupport
