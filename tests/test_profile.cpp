#include <gtest/gtest.h>

#include "core/system.hpp"
#include "obs/json_check.hpp"
#include "profile/memory_profiler.hpp"
#include "profile/trace_export.hpp"
#include "profile/tracer.hpp"
#include "profile/workload_analysis.hpp"
#include "runtime/runtime.hpp"

namespace ghum {
namespace {

core::SystemConfig prof_config() {
  core::SystemConfig cfg;
  cfg.system_page_size = pagetable::kSystemPage64K;
  cfg.hbm_capacity = 8ull << 20;
  cfg.ddr_capacity = 64ull << 20;
  cfg.gpu_driver_baseline = 1ull << 20;
  cfg.event_log = true;
  cfg.profiler_enabled = true;
  cfg.profiler_period = sim::microseconds(10);
  return cfg;
}

TEST(MemoryProfiler, SamplesOnThePeriodDuringAdvances) {
  core::System sys{prof_config()};
  sys.advance(sim::microseconds(100));
  const auto& samples = sys.profiler().samples();
  // Initial mark + ~10 periodic samples.
  EXPECT_GE(samples.size(), 10u);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].time, samples[i - 1].time);
  }
}

TEST(MemoryProfiler, GpuUsedIncludesDriverBaseline) {
  core::System sys{prof_config()};
  sys.profiler().mark();
  EXPECT_EQ(sys.profiler().samples().back().gpu_used_bytes, 1ull << 20);
}

TEST(MemoryProfiler, RssRampsDuringCpuInitialization) {
  core::System sys{prof_config()};
  runtime::Runtime rt{sys};
  core::Buffer b = rt.malloc_system(2 << 20);
  sys.host_phase_begin("init");
  {
    auto s = rt.host_span<float>(b);
    for (std::size_t i = 0; i < s.size(); ++i) s.store(i, 1.0f);
  }
  (void)sys.host_phase_end();
  sys.profiler().mark();
  const auto& samples = sys.profiler().samples();
  // RSS must be non-decreasing during the ramp and reach the buffer size.
  EXPECT_EQ(samples.back().cpu_rss_bytes, 2ull << 20);
  bool saw_partial = false;
  for (const auto& s : samples) {
    if (s.cpu_rss_bytes > 0 && s.cpu_rss_bytes < (2ull << 20)) saw_partial = true;
  }
  EXPECT_TRUE(saw_partial) << "profiler should capture the ramp, not just ends";
}

TEST(MemoryProfiler, PeaksAndTsvOutput) {
  core::System sys{prof_config()};
  runtime::Runtime rt{sys};
  core::Buffer b = rt.malloc_device(2 << 20);
  sys.profiler().mark();
  rt.free(b);
  sys.profiler().mark();
  EXPECT_EQ(sys.profiler().peak_gpu_used(), (2ull << 20) + (1ull << 20));
  const std::string tsv = sys.profiler().to_tsv();
  EXPECT_NE(tsv.find("time_ms"), std::string::npos);
  EXPECT_NE(tsv.find('\n'), std::string::npos);
}

TEST(Tracer, SummarizesByTypeAndWindow) {
  core::System sys{prof_config()};
  runtime::Runtime rt{sys};
  core::Buffer b = rt.malloc_managed(4 << 20);
  const sim::Picos mid = sys.now();
  (void)rt.launch("k", 0, [&] {
    auto s = rt.device_span<float>(b);
    s.store(0, 1.0f);
    s.store((2 << 20) / 4, 1.0f);  // second block
  });
  profile::Tracer tracer{sys.events()};
  const auto all = tracer.summarize();
  EXPECT_EQ(all.managed_gpu_faults, 2u);
  const auto before = tracer.summarize(0, mid);
  EXPECT_EQ(before.managed_gpu_faults, 0u);
  EXPECT_FALSE(tracer.to_text().empty());
}

/// Advances \p clock to the absolute time \p t (never backwards).
void advance_to(sim::Clock& clock, sim::Picos t) { clock.advance(t - clock.now()); }

TEST(Tracer, LinkDegradeWindowsCountByOverlapNotByBeginEvent) {
  sim::Clock clock;
  sim::EventLog log{clock};
  log.set_enabled(true);
  auto window = [&](sim::Picos b, sim::Picos e) {
    advance_to(clock, b);
    log.record(sim::EventType::kLinkDegradeBegin);
    advance_to(clock, e);
    log.record(sim::EventType::kLinkDegradeEnd);
  };
  window(sim::microseconds(1), sim::microseconds(5));     // entirely before
  window(sim::microseconds(10), sim::microseconds(30));   // straddles t0
  window(sim::microseconds(40), sim::microseconds(60));   // fully inside
  window(sim::microseconds(90), sim::microseconds(200));  // straddles t1
  window(sim::microseconds(300), sim::microseconds(310)); // entirely after
  profile::Tracer tracer{log};
  // Regression: a window whose Begin fell before t0 but whose End lands
  // inside [t0, t1) used to be invisible (only Begin events were counted).
  const auto s = tracer.summarize(sim::microseconds(20), sim::microseconds(100));
  EXPECT_EQ(s.link_degrade_windows, 3u);
  // The full-range summary still sees every window once.
  EXPECT_EQ(tracer.summarize().link_degrade_windows, 5u);
}

TEST(Tracer, OpenLinkDegradeWindowCountsUntilEndOfLog) {
  sim::Clock clock;
  sim::EventLog log{clock};
  log.set_enabled(true);
  clock.advance(sim::microseconds(10));
  log.record(sim::EventType::kLinkDegradeBegin);
  profile::Tracer tracer{log};
  // Still degrading when the log ends: visible to any window it overlaps...
  EXPECT_EQ(tracer.summarize(sim::microseconds(20), sim::microseconds(100))
                .link_degrade_windows,
            1u);
  EXPECT_EQ(tracer.summarize().link_degrade_windows, 1u);
  // ...but not to one that closed before the degradation began.
  EXPECT_EQ(tracer.summarize(0, sim::microseconds(5)).link_degrade_windows, 0u);
}

TEST(Tracer, SummaryAndTraceSeeTheSameLinkDegradeWindows) {
  // Two closed windows, a stray End and a window still open at the end:
  // the summary and the Chrome trace pair Begin/End events the same way.
  sim::Clock clock;
  sim::EventLog log{clock};
  log.set_enabled(true);
  for (const auto type :
       {sim::EventType::kLinkDegradeBegin, sim::EventType::kLinkDegradeEnd,
        sim::EventType::kLinkDegradeEnd,  // stray: no window open
        sim::EventType::kLinkDegradeBegin, sim::EventType::kLinkDegradeEnd,
        sim::EventType::kLinkDegradeBegin, sim::EventType::kMigrationH2D}) {
    clock.advance(sim::microseconds(10));
    log.record(type);
  }
  const std::size_t windows = profile::Tracer{log}.summarize().link_degrade_windows;
  EXPECT_EQ(windows, 3u);

  const std::string json = profile::to_chrome_trace(log, profile::WorkloadAnalysis{});
  std::string err;
  ASSERT_TRUE(obs::json_valid(json, &err)) << err;
  auto count = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (auto at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"name\":\"link degraded\""), windows);
  EXPECT_EQ(count("\"open_ended\":true"), 1u);
  EXPECT_EQ(count("\"open_ended\":false"), windows - 1);
  // The open window runs from its Begin (60 us) to the last event (70 us).
  const auto open = json.find("\"open_ended\":true");
  const std::string line = json.substr(json.rfind('\n', open) + 1,
                                       open - json.rfind('\n', open));
  EXPECT_NE(line.find("\"ts\":60.000,\"dur\":10.000"), std::string::npos) << line;
}

TEST(WorkloadAnalysis, MatchingAndTotals) {
  profile::WorkloadAnalysis wa;
  cache::KernelRecord r1{.name = "srad.coeff", .kernel_id = 1, .start = 0,
                         .duration = sim::microseconds(5), .traffic = {}};
  r1.traffic.hbm_read_bytes = 100;
  cache::KernelRecord r2 = r1;
  r2.name = "srad.update";
  r2.traffic.hbm_read_bytes = 50;
  cache::KernelRecord r3 = r1;
  r3.name = "other";
  wa.add(r1);
  wa.add(r2);
  wa.add(r3);
  EXPECT_EQ(wa.matching("srad").size(), 2u);
  EXPECT_EQ(wa.total("srad").hbm_read_bytes, 150u);
  EXPECT_EQ(wa.total("nope").hbm_read_bytes, 0u);
  EXPECT_FALSE(wa.to_table().empty());
}

TEST(WorkloadAnalysis, ThroughputComputation) {
  cache::KernelRecord r{.name = "k", .kernel_id = 1, .start = 0,
                        .duration = sim::milliseconds(1), .traffic = {}};
  r.traffic.l1l2_bytes = 1 << 20;
  // 1 MiB / 1 ms = ~1.07 GB/s.
  EXPECT_NEAR(r.l1l2_throughput_Bps(), static_cast<double>(1 << 20) / 1e-3, 1.0);
}

TEST(TraceExport, ProducesWellFormedChromeTrace) {
  core::System sys{prof_config()};
  runtime::Runtime rt{sys};
  core::Buffer b = rt.malloc_managed(4 << 20);
  (void)rt.launch("my_kernel", 0, [&] {
    auto s = rt.device_span<float>(b);
    s.store(0, 1.0f);
  });
  const std::string json = profile::to_chrome_trace(sys.events(), sys.workload());
  // Structural sanity: document shape, the kernel duration event, and at
  // least one memory-system instant event.
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"my_kernel\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("gpu_managed_fault"), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  long braces = 0, brackets = 0;
  for (char c : json) {
    braces += c == '{';
    braces -= c == '}';
    brackets += c == '[';
    brackets -= c == ']';
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(TraceExport, KernelArgsCarryTrafficCounters) {
  core::System sys{prof_config()};
  runtime::Runtime rt{sys};
  core::Buffer b = rt.malloc_device(1 << 20);
  (void)rt.launch("k", 0, [&] {
    auto s = rt.device_span<float>(b);
    for (std::size_t i = 0; i < s.size(); ++i) s.store(i, 1.0f);
  });
  const std::string json = profile::to_chrome_trace(sys.events(), sys.workload());
  EXPECT_NE(json.find("\"hbm_bytes\":1048576"), std::string::npos);
}

TEST(MemoryProfiler, StopEmitsFinalSampleWhenPeriodExceedsRun) {
  // Regression: a run shorter than one profiler period used to leave only
  // the t0 sample, losing the end state Figures 4/5 plot.
  core::SystemConfig cfg = prof_config();
  cfg.profiler_period = sim::milliseconds(10);  // far beyond the run below
  core::System sys{cfg};
  runtime::Runtime rt{sys};
  core::Buffer b = rt.malloc_device(2 << 20);
  sys.advance(sim::microseconds(5));
  sys.profiler().stop();
  const auto& samples = sys.profiler().samples();
  ASSERT_GE(samples.size(), 2u);
  EXPECT_EQ(samples.back().time, sys.now());
  EXPECT_EQ(samples.back().gpu_used_bytes, (2ull << 20) + (1ull << 20));
  rt.free(b);
}

TEST(MemoryProfiler, NoDuplicateTimestamps) {
  core::System sys{prof_config()};
  sys.profiler().mark();  // same time as the start() sample
  sys.advance(sim::microseconds(40));
  sys.profiler().mark();  // may coincide with a periodic sample
  sys.profiler().stop();
  const auto& samples = sys.profiler().samples();
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LT(samples[i - 1].time, samples[i].time) << "duplicate sample at " << i;
  }
}

TEST(Tracer, ToTextListsEventsAndTruncates) {
  sim::Clock clock;
  sim::EventLog log{clock};
  log.set_enabled(true);
  for (int i = 0; i < 5; ++i) {
    clock.advance(sim::microseconds(1));
    log.record(sim::EventType::kMigrationH2D,
               0xabc0ull + static_cast<std::uint64_t>(i), 64);
  }
  profile::Tracer tracer{log};
  const std::string full = tracer.to_text();
  EXPECT_NE(full.find("migration_h2d"), std::string::npos);
  EXPECT_NE(full.find("va=0xabc0"), std::string::npos);
  EXPECT_EQ(full.find("more)"), std::string::npos);
  // Truncation reports how many events were dropped.
  const std::string cut = tracer.to_text(2);
  EXPECT_NE(cut.find("... (3 more)"), std::string::npos);
}

TEST(Tracer, SummarizeWindowEdgesAreHalfOpen) {
  sim::Clock clock;
  sim::EventLog log{clock};
  log.set_enabled(true);
  const sim::Picos t0 = sim::microseconds(10);
  const sim::Picos t1 = sim::microseconds(20);
  advance_to(clock, t0);
  log.record(sim::EventType::kMigrationH2D, 0, 1);
  advance_to(clock, sim::microseconds(15));
  log.record(sim::EventType::kMigrationH2D, 0, 2);
  advance_to(clock, t1);
  log.record(sim::EventType::kMigrationH2D, 0, 4);
  profile::Tracer tracer{log};
  // [t0, t1): the event at t0 is included, the one exactly at t1 is not.
  const auto s = tracer.summarize(t0, t1);
  EXPECT_EQ(s.migrations_h2d, 2u);
  EXPECT_EQ(s.migrated_h2d_bytes, 3u);
  // Empty window.
  const auto empty = tracer.summarize(t0, t0);
  EXPECT_EQ(empty.migrations_h2d, 0u);
  EXPECT_EQ(empty.migrated_h2d_bytes, 0u);
}

TEST(TraceExport, ParsesAsStrictJson) {
  core::System sys{prof_config()};
  runtime::Runtime rt{sys};
  core::Buffer b = rt.malloc_managed(4 << 20);
  (void)rt.launch("k", 0, [&] {
    auto s = rt.device_span<float>(b);
    s.store(0, 1.0f);
  });
  std::string err;
  EXPECT_TRUE(obs::json_valid(
      profile::to_chrome_trace(sys.events(), sys.workload()), &err))
      << err;
}

TEST(TraceExport, EscapesHostileKernelNames) {
  // Caller-supplied kernel names can contain quotes, backslashes and
  // control characters; the exporter must keep the document parseable.
  core::System sys{prof_config()};
  runtime::Runtime rt{sys};
  core::Buffer b = rt.malloc_device(1 << 20);
  (void)rt.launch("step \"k\"\\x\ttail\n", 0, [&] {
    auto s = rt.device_span<float>(b);
    s.store(0, 1.0f);
  });
  const std::string json = profile::to_chrome_trace(sys.events(), sys.workload());
  std::string err;
  ASSERT_TRUE(obs::json_valid(json, &err)) << err;
  EXPECT_NE(json.find(R"(step \"k\"\\x\ttail\n)"), std::string::npos);
}

TEST(KernelTraffic, AggregationOperator) {
  cache::KernelTraffic a, b;
  a.hbm_read_bytes = 1;
  a.c2c_write_bytes = 2;
  a.managed_faults = 3;
  b.hbm_read_bytes = 10;
  b.l1l2_bytes = 5;
  a += b;
  EXPECT_EQ(a.hbm_read_bytes, 11u);
  EXPECT_EQ(a.c2c_write_bytes, 2u);
  EXPECT_EQ(a.l1l2_bytes, 5u);
  EXPECT_EQ(a.gpu_local_bytes(), 11u);
  EXPECT_EQ(a.gpu_remote_bytes(), 2u);
}

}  // namespace
}  // namespace ghum
