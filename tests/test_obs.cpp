#include <gtest/gtest.h>

#include <algorithm>
#include <regex>
#include <set>

#include "apps/hotspot.hpp"
#include "chk/snapshot.hpp"
#include "core/system.hpp"
#include "obs/json_check.hpp"
#include "obs/link_monitor.hpp"
#include "obs/metrics.hpp"
#include "profile/trace_export.hpp"
#include "profile/tracer.hpp"
#include "runtime/runtime.hpp"
#include "sim/fnv.hpp"
#include "tenant/scheduler.hpp"

namespace ghum {
namespace {

// ---------------------------------------------------------------------------
// Metrics registry semantics.
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, InstrumentsAreStableAndCumulative) {
  obs::MetricsRegistry reg;
  obs::Counter& c = reg.counter("reqs_total");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);
  // Re-registering the same name+labels returns the same instrument.
  EXPECT_EQ(&reg.counter("reqs_total"), &c);

  obs::Gauge& g = reg.gauge("depth");
  g.set(7);
  g.add(-3);
  EXPECT_EQ(g.value(), 4);
}

TEST(MetricsRegistry, LabelOrderCanonicalizes) {
  obs::MetricsRegistry reg;
  obs::Counter& a = reg.counter("x_total", {{"dir", "h2d"}, {"node", "gpu"}});
  obs::Counter& b = reg.counter("x_total", {{"node", "gpu"}, {"dir", "h2d"}});
  EXPECT_EQ(&a, &b) << "label key order must not create distinct series";
  obs::Counter& other = reg.counter("x_total", {{"dir", "d2h"}, {"node", "gpu"}});
  EXPECT_NE(&a, &other);
}

TEST(MetricsRegistry, KindMismatchThrows) {
  obs::MetricsRegistry reg;
  (void)reg.counter("dual");
  EXPECT_THROW((void)reg.gauge("dual"), std::logic_error);
  EXPECT_THROW((void)reg.histogram("dual"), std::logic_error);
}

TEST(Histogram, PowerOfTwoBucketsAndExactSums) {
  obs::Histogram h;
  h.observe(0);    // bucket 0 (bit width 0)
  h.observe(1);    // bucket 1: [1, 1]
  h.observe(2);    // bucket 2: [2, 3]
  h.observe(3);    // bucket 2
  h.observe(4);    // bucket 3: [4, 7]
  h.observe(1024); // bucket 11
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.sum(), 1034u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1024u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 2u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.bucket(11), 1u);
  EXPECT_EQ(obs::Histogram::bucket_bound(0), 0u);
  EXPECT_EQ(obs::Histogram::bucket_bound(1), 1u);
  EXPECT_EQ(obs::Histogram::bucket_bound(2), 3u);
  EXPECT_EQ(obs::Histogram::bucket_bound(11), 2047u);
  EXPECT_EQ(obs::Histogram::bucket_bound(64), ~0ull);
}

TEST(MetricsRegistry, ExpositionIsDeterministicAndParses) {
  auto build = [](bool reversed) {
    obs::MetricsRegistry reg;
    if (reversed) {
      reg.gauge("zz").set(1);
      reg.counter("aa_total", {{"k", "v"}}).inc(3);
    } else {
      reg.counter("aa_total", {{"k", "v"}}).inc(3);
      reg.gauge("zz").set(1);
    }
    reg.histogram("hh").observe(5);
    return reg;
  };
  const obs::MetricsRegistry r1 = build(false);
  const obs::MetricsRegistry r2 = build(true);
  // Registration order must not leak into the exposition.
  EXPECT_EQ(r1.to_prometheus(), r2.to_prometheus());
  EXPECT_EQ(r1.to_json(), r2.to_json());
  EXPECT_NE(r1.to_prometheus().find("# TYPE aa_total counter"),
            std::string::npos);
  EXPECT_NE(r1.to_prometheus().find("aa_total{k=\"v\"} 3"), std::string::npos);
  std::string err;
  EXPECT_TRUE(obs::json_valid(r1.to_json(), &err)) << err;
}

TEST(MetricsRegistry, LabelValuesAreEscapedInJson) {
  obs::MetricsRegistry reg;
  reg.counter("esc_total", {{"name", "we\"ird\\path\n"}}).inc();
  std::string err;
  EXPECT_TRUE(obs::json_valid(reg.to_json(), &err)) << err;
}

TEST(MetricsRegistry, PrometheusEscapesExactlyBackslashQuoteNewline) {
  // The exposition format defines exactly three label-value escapes:
  // \\ for backslash, \" for quote, \n for newline. Anything else —
  // including tabs and carriage returns — passes through raw; escaping it
  // (e.g. "\t") would make scrapers read a literal backslash-t.
  obs::MetricsRegistry reg;
  reg.counter("esc_total", {{"p", "a\\b\"c\nd\te\rf"}}).inc(2);
  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("esc_total{p=\"a\\\\b\\\"c\\nd\te\rf\"} 2"),
            std::string::npos)
      << prom;
}

TEST(MetricsRegistry, HostileLabelValuesRoundTripBothExpositions) {
  // Names no scraper should ever see but every exporter must survive:
  // quotes, backslashes, newlines, tabs, and raw control bytes.
  const std::vector<std::string> hostile = {
      "plain", "with \"quotes\"", "back\\slash", "new\nline",
      "tab\tand\rcr",  std::string{"ctrl\x01\x1f"},
  };
  obs::MetricsRegistry reg;
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    reg.counter("hostile_total", {{"v", hostile[i]}}).inc(i + 1);
  }
  // Distinct hostile values stay distinct series...
  EXPECT_EQ(reg.size(), hostile.size());
  for (std::size_t i = 0; i < hostile.size(); ++i) {
    EXPECT_EQ(reg.counter("hostile_total", {{"v", hostile[i]}}).value(), i + 1);
  }
  // ...the JSON snapshot stays strictly parseable (control bytes become
  // \u00XX, which the validator accepts and raw bytes would fail)...
  std::string err;
  ASSERT_TRUE(obs::json_valid(reg.to_json(), &err)) << err;
  EXPECT_NE(reg.to_json().find("\\u0001"), std::string::npos);
  // ...and the Prometheus exposition contains each value under its own
  // escaping rules, with no invalid \t-style escapes introduced.
  const std::string prom = reg.to_prometheus();
  EXPECT_NE(prom.find("with \\\"quotes\\\""), std::string::npos);
  EXPECT_NE(prom.find("back\\\\slash"), std::string::npos);
  EXPECT_NE(prom.find("new\\nline"), std::string::npos);
  EXPECT_NE(prom.find("tab\tand\rcr"), std::string::npos);
  EXPECT_EQ(prom.find("\\t"), std::string::npos)
      << "\\t is not a valid exposition escape";
}

TEST(Histogram, ExactPowerOfTwoBoundariesLandInTheRightBucket) {
  // Bucket i holds values of bit width i: an exact power 2^k is the FIRST
  // value of bucket k+1, and 2^k - 1 is the LAST value of bucket k.
  for (std::size_t k = 1; k < 63; ++k) {
    obs::Histogram h;
    h.observe(1ull << k);
    h.observe((1ull << k) - 1);
    EXPECT_EQ(h.bucket(k + 1), 1u) << "2^" << k;
    EXPECT_EQ(h.bucket(k), 1u) << "2^" << k << " - 1";
    EXPECT_EQ(obs::Histogram::bucket_bound(k), (1ull << k) - 1);
  }
  obs::Histogram edge;
  edge.observe(~0ull);  // bit width 64: the last bucket
  EXPECT_EQ(edge.bucket(64), 1u);
  EXPECT_EQ(edge.max(), ~0ull);
  // A bucket's inclusive bound observed directly never spills over.
  obs::Histogram bound;
  bound.observe(obs::Histogram::bucket_bound(11));  // 2047
  EXPECT_EQ(bound.bucket(11), 1u);
  EXPECT_EQ(bound.bucket(12), 0u);
  EXPECT_EQ(bound.quantile_upper_bound(100), 2047u);
}

// ---------------------------------------------------------------------------
// JSON validator.
// ---------------------------------------------------------------------------

TEST(JsonCheck, AcceptsValidDocuments) {
  for (const char* ok :
       {"{}", "[]", "null", "true", "-1.5e3", "\"a\\u00e9\\n\"",
        R"({"a":[1,2,{"b":null}],"c":"x"})", "  [0]  "}) {
    std::string err;
    EXPECT_TRUE(obs::json_valid(ok, &err)) << ok << ": " << err;
  }
}

TEST(JsonCheck, RejectsInvalidDocuments) {
  for (const char* bad :
       {"", "{", "[1,]", "{\"a\":}", "{'a':1}", "01", "1.", "+1", "nul",
        "\"unterminated", "\"bad\\q\"", "[1] extra", "{\"a\":1,}",
        "\"raw\ncontrol\""}) {
    EXPECT_FALSE(obs::json_valid(bad)) << bad;
  }
}

// ---------------------------------------------------------------------------
// Machine integration: counters at record sites, TLB families, snapshots.
// ---------------------------------------------------------------------------

core::SystemConfig obs_config() {
  core::SystemConfig cfg;
  cfg.system_page_size = pagetable::kSystemPage64K;
  cfg.hbm_capacity = 8ull << 20;
  cfg.ddr_capacity = 64ull << 20;
  cfg.event_log = true;
  return cfg;
}

/// Managed working set double the HBM, initialized on the host so every
/// GPU touch is a populated-block fault: forces the fault -> H2D migration
/// -> eviction chain the causal tests walk.
void run_oversubscribed_managed(core::System& sys) {
  runtime::Runtime rt{sys};
  core::Buffer b = rt.malloc_managed(16ull << 20);
  {
    auto h = rt.host_span<float>(b);
    for (std::uint64_t off = 0; off < (16ull << 20); off += 2ull << 20) {
      h.store(off / sizeof(float), 1.0f);
    }
  }
  (void)rt.launch("touch_all", 0, [&] {
    auto s = rt.device_span<float>(b);
    for (std::uint64_t off = 0; off < (16ull << 20); off += 2ull << 20) {
      s.store(off / sizeof(float), 1.0f);
    }
  });
}

TEST(ObsIntegration, CountersMatchTracerOnOversubscribedRun) {
  core::System sys{obs_config()};
  run_oversubscribed_managed(sys);
  const profile::TraceSummary ts = profile::Tracer{sys.events()}.summarize();
  const obs::MemSysMetrics& met = sys.machine().metrics();
  EXPECT_GT(ts.managed_gpu_faults, 0u);
  EXPECT_GT(ts.evictions, 0u);
  EXPECT_EQ(met.faults_gpu_managed->value(), ts.managed_gpu_faults);
  EXPECT_EQ(met.migrations_h2d->value(), ts.migrations_h2d);
  EXPECT_EQ(met.evictions->value(), ts.evictions);
  EXPECT_EQ(met.evicted_bytes->value(), ts.evicted_bytes);
  EXPECT_EQ(met.eviction_batch_bytes->count(), ts.evictions);
  EXPECT_EQ(met.eviction_batch_bytes->sum(), ts.evicted_bytes);
}

TEST(ObsIntegration, CountersCountEvenWithEventLogDisabled) {
  core::SystemConfig cfg = obs_config();
  cfg.event_log = false;
  core::System sys{cfg};
  run_oversubscribed_managed(sys);
  // The log is off (no events recorded), but the registry still counts:
  // observability must not depend on trace capture being enabled.
  EXPECT_TRUE(sys.events().events().empty());
  EXPECT_GT(sys.machine().metrics().faults_gpu_managed->value(), 0u);
  EXPECT_GT(sys.machine().metrics().evictions->value(), 0u);
}

TEST(ObsIntegration, TlbFamiliesMirrorMmuCounters) {
  core::System sys{obs_config()};
  run_oversubscribed_managed(sys);
  core::Machine& m = sys.machine();
  EXPECT_EQ(m.obs().counter("ghum_tlb_hits_total", {{"mmu", "gmmu_gpu"}}).value(),
            m.gmmu().utlb_gpu().hits());
  EXPECT_EQ(
      m.obs().counter("ghum_tlb_misses_total", {{"mmu", "gmmu_gpu"}}).value(),
      m.gmmu().utlb_gpu().misses());
  EXPECT_GT(m.gmmu().utlb_gpu().hits() + m.gmmu().utlb_gpu().misses(), 0u);
}

TEST(ObsIntegration, SnapshotsAreBitIdenticalAcrossRuns) {
  auto snapshot = [] {
    core::System sys{obs_config()};
    run_oversubscribed_managed(sys);
    return sys.metrics_json();
  };
  const std::string a = snapshot();
  const std::string b = snapshot();
  EXPECT_EQ(a, b);
  std::string err;
  EXPECT_TRUE(obs::json_valid(a, &err)) << err;
}

// ---------------------------------------------------------------------------
// Metric catalog naming convention (the DESIGN.md Section 13 audit).
// ---------------------------------------------------------------------------

TEST(ObsNaming, EveryRegisteredInstrumentMatchesTheConvention) {
  // The ghum_* catalog convention: lowercase snake_case under the ghum_
  // prefix; counters end in _total; gauges name their unit (_bytes,
  // _permille, _runs, _count); histograms name their sample unit (_bytes,
  // _picos, _ns, _us, _attempts).
  const std::regex name_re{"ghum_[a-z0-9]+(_[a-z0-9]+)*"};
  const std::regex counter_re{".*_total"};
  const std::regex gauge_re{".*_(bytes|permille|runs|count)"};
  const std::regex histogram_re{".*_(bytes|picos|ns|us|attempts)"};
  std::size_t audited = 0;
  const auto audit = [&](const obs::MetricsRegistry& reg) {
    reg.for_each([&](const obs::MetricsRegistry::InstrumentView& v) {
      const std::string n{v.name};
      ++audited;
      EXPECT_TRUE(std::regex_match(n, name_re)) << n;
      if (v.counter != nullptr) {
        EXPECT_TRUE(std::regex_match(n, counter_re))
            << n << ": counters must end in _total";
      } else if (v.gauge != nullptr) {
        EXPECT_TRUE(std::regex_match(n, gauge_re))
            << n << ": gauges must name their unit";
      } else if (v.histogram != nullptr) {
        EXPECT_TRUE(std::regex_match(n, histogram_re))
            << n << ": histograms must name their sample unit";
      }
    });
  };
  // A machine registry after a faulting, migrating, evicting run — plus a
  // checkpoint so the chk_* family registers too.
  core::System sys{obs_config()};
  run_oversubscribed_managed(sys);
  (void)chk::Snapshotter::snapshot(sys);
  sys.machine().sync_obs_gauges();
  audit(sys.machine().obs());
  EXPECT_GT(audited, 40u) << "audit saw suspiciously few instruments";
}

// ---------------------------------------------------------------------------
// Causal span tracing.
// ---------------------------------------------------------------------------

TEST(Spans, FaultMigrationEvictionShareTheRootSpan) {
  core::System sys{obs_config()};
  run_oversubscribed_managed(sys);
  const auto& events = sys.events().events();

  std::set<std::uint32_t> fault_spans;
  for (const auto& e : events) {
    if (e.type == sim::EventType::kGpuManagedFault) {
      EXPECT_NE(e.span, 0u) << "managed fault outside any span";
      fault_spans.insert(e.span);
    }
  }
  ASSERT_FALSE(fault_spans.empty());

  // Every migration and eviction in this run is fault-triggered, so each
  // must carry the span of the GPU fault it was servicing.
  std::size_t chained_evictions = 0;
  for (const auto& e : events) {
    switch (e.type) {
      case sim::EventType::kMigrationH2D:
      case sim::EventType::kMigrationD2H:
      case sim::EventType::kEviction:
        EXPECT_NE(e.span, 0u) << sim::to_string(e.type) << " outside any span";
        EXPECT_TRUE(fault_spans.count(e.span))
            << sim::to_string(e.type) << " span " << e.span
            << " does not belong to any GPU fault";
        chained_evictions += e.type == sim::EventType::kEviction;
        break;
      default:
        break;
    }
  }
  EXPECT_GT(chained_evictions, 0u) << "scenario must exercise evictions";
}

TEST(Spans, DistinctFaultsOpenDistinctSpans) {
  core::System sys{obs_config()};
  runtime::Runtime rt{sys};
  core::Buffer b = rt.malloc_managed(4ull << 20);
  (void)rt.launch("two_blocks", 0, [&] {
    auto s = rt.device_span<float>(b);
    s.store(0, 1.0f);
    s.store((2ull << 20) / sizeof(float), 1.0f);
  });
  std::set<std::uint32_t> spans;
  for (const auto& e : sys.events().events()) {
    if (e.type == sim::EventType::kGpuManagedFault) spans.insert(e.span);
  }
  EXPECT_EQ(spans.size(), 2u) << "independent faults must not share a span";
}

TEST(Spans, MigrationRetriesInheritTheFaultSpan) {
  core::SystemConfig cfg = obs_config();
  cfg.faults.enabled = true;
  cfg.faults.seed = 7;
  cfg.faults.migration_batch_fail_prob = 0.5;
  core::System sysf{cfg};
  run_oversubscribed_managed(sysf);
  const auto& events = sysf.events().events();
  std::set<std::uint32_t> fault_spans;
  for (const auto& e : events) {
    if (e.type == sim::EventType::kGpuManagedFault ||
        e.type == sim::EventType::kGpuFirstTouchFault) {
      fault_spans.insert(e.span);
    }
  }
  // Every retry happens inside some causal span. A fault whose own block
  // migration ultimately aborts records no kGpuManagedFault event, so not
  // every retry span can be matched to a fault event — but retries raised
  // while servicing a *completed* fault must carry that fault's span.
  std::size_t retries = 0, rooted = 0;
  for (const auto& e : events) {
    if (e.type != sim::EventType::kFaultMigrationRetry) continue;
    ++retries;
    EXPECT_NE(e.span, 0u) << "retry outside any span";
    rooted += fault_spans.count(e.span);
  }
  EXPECT_GT(retries, 0u) << "fail_prob=0.5 must produce at least one retry";
  EXPECT_GT(rooted, 0u) << "no retry shares a span with the fault it serviced";
}

TEST(Spans, SpanSequenceAdvancesWhileLogDisabled) {
  // Enabling the log must never change simulator decisions, so span ids
  // are consumed identically either way.
  sim::Clock clock;
  sim::EventLog log{clock};
  {
    sim::SpanScope s{log};
    log.record(sim::EventType::kMigrationH2D);  // dropped: log disabled
  }
  EXPECT_TRUE(log.events().empty());
  log.set_enabled(true);
  { sim::SpanScope s{log}; }
  clock.advance(1);
  log.record(sim::EventType::kMigrationH2D);
  ASSERT_EQ(log.events().size(), 1u);
  EXPECT_EQ(log.events()[0].span, 0u);  // scope already closed
  EXPECT_EQ(log.events()[0].time, 1);
  log.set_current_tenant(4);
  {
    sim::SpanScope s{log};
    clock.advance(1);
    log.record(sim::EventType::kMigrationH2D);
  }
  ASSERT_EQ(log.events().size(), 2u);
  EXPECT_EQ(log.events()[1].span, 3u);  // two ids consumed before this one
  EXPECT_EQ(log.events()[1].time, 2);
  EXPECT_EQ(log.events()[1].tenant, 4u);
}

// ---------------------------------------------------------------------------
// Link monitor.
// ---------------------------------------------------------------------------

TEST(LinkMonitor, WindowByteSumsMatchInterconnectTotals) {
  core::SystemConfig cfg = obs_config();
  cfg.link_monitor = true;
  cfg.link_monitor_window = sim::microseconds(20);
  core::System sys{cfg};
  run_oversubscribed_managed(sys);
  sys.link_monitor().stop();
  const auto& samples = sys.link_monitor().samples();
  ASSERT_FALSE(samples.empty());
  std::uint64_t h2d = 0, d2h = 0;
  for (const auto& s : samples) {
    EXPECT_LT(s.t0, s.t1);
    EXPECT_LE(s.h2d_util_permille, 1000u);
    EXPECT_LE(s.d2h_util_permille, 1000u);
    h2d += s.h2d_bytes;
    d2h += s.d2h_bytes;
  }
  core::Machine& m = sys.machine();
  EXPECT_EQ(h2d, m.c2c().bytes_moved(interconnect::Direction::kCpuToGpu));
  EXPECT_EQ(d2h, m.c2c().bytes_moved(interconnect::Direction::kGpuToCpu));
  EXPECT_GT(h2d, 0u);
  const auto busiest = std::max_element(
      samples.begin(), samples.end(), [](const auto& a, const auto& b) {
        return a.h2d_util_permille < b.h2d_util_permille;
      });
  EXPECT_GT(busiest->h2d_util_permille, 0u);
}

TEST(LinkMonitor, WindowsDoNotStraddleACheckpointRestoreCut) {
  // Snapshot a machine mid-window, restore it, and keep driving traffic:
  // the donor's monitor keeps its pre-cut history, and the restored
  // monitor restarts empty with its first window opening AT the cut — no
  // window spans the cut, and the pre-cut byte history is not re-counted
  // into the restored run's first sample.
  core::SystemConfig cfg = obs_config();
  cfg.link_monitor = true;
  cfg.link_monitor_window = sim::microseconds(20);
  core::System sys{cfg};
  run_oversubscribed_managed(sys);
  const sim::Picos cut = sys.now();
  ASSERT_GT(cut, 0);
  const chk::Blob blob = chk::Snapshotter::snapshot(sys);

  std::unique_ptr<core::System> twin = chk::Snapshotter::restore(blob, &sys);
  ASSERT_EQ(twin->now(), cut);
  ASSERT_TRUE(twin->link_monitor().running());
  EXPECT_TRUE(twin->link_monitor().samples().empty())
      << "restored monitor must restart its series empty";

  // Drive fresh traffic on the restored machine.
  const std::uint64_t h2d_at_cut =
      twin->machine().c2c().bytes_moved(interconnect::Direction::kCpuToGpu);
  run_oversubscribed_managed(*twin);
  twin->link_monitor().stop();
  const auto& post = twin->link_monitor().samples();
  ASSERT_FALSE(post.empty());
  std::uint64_t post_h2d = 0;
  for (const auto& s : post) {
    EXPECT_GE(s.t0, cut) << "restored window straddles the cut";
    EXPECT_LT(s.t0, s.t1);
    post_h2d += s.h2d_bytes;
  }
  EXPECT_EQ(post[0].t0, cut) << "first restored window must open at the cut";
  EXPECT_EQ(post_h2d,
            twin->machine().c2c().bytes_moved(
                interconnect::Direction::kCpuToGpu) -
                h2d_at_cut)
      << "restored windows must count exactly the post-cut traffic";

  // The donor side is untouched: stopping it emits a final partial window
  // that ends at the donor's own clock, never beyond the cut.
  sys.link_monitor().stop();
  const auto& pre = sys.link_monitor().samples();
  ASSERT_FALSE(pre.empty());
  for (const auto& s : pre) EXPECT_LE(s.t1, cut);
  EXPECT_EQ(pre.back().t1, cut);
}

// ---------------------------------------------------------------------------
// Enriched trace export.
// ---------------------------------------------------------------------------

TEST(TraceExportEnriched, FlowEventsAndLinkCountersParse) {
  core::SystemConfig cfg = obs_config();
  cfg.link_monitor = true;
  core::System sys{cfg};
  run_oversubscribed_managed(sys);
  sys.link_monitor().stop();
  const std::string json = profile::to_chrome_trace(
      sys.events(), sys.workload(), &sys.link_monitor().samples());
  std::string err;
  ASSERT_TRUE(obs::json_valid(json, &err)) << err;
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos) << "no flow starts";
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos) << "no flow finishes";
  EXPECT_NE(json.find("C2C util (permille)"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
}

TEST(TraceExportEnriched, TenantLanesAppearForStampedEvents) {
  // Synthetic two-tenant log: lane metadata and per-lane routing are purely
  // a function of Event::tenant, so a hand-built log exercises them.
  sim::Clock clock;
  sim::EventLog log{clock};
  log.set_enabled(true);
  log.set_current_tenant(1);
  clock.advance(sim::microseconds(1));
  log.record(sim::EventType::kGpuManagedFault, 0x1000, 64);
  log.set_current_tenant(2);
  clock.advance(sim::microseconds(1));
  log.record(sim::EventType::kMigrationH2D, 0x2000, 128);
  profile::WorkloadAnalysis wa;
  const std::string json = profile::to_chrome_trace(log, wa);
  std::string err;
  ASSERT_TRUE(obs::json_valid(json, &err)) << err;
  EXPECT_NE(json.find("\"Tenant 1 MemSys\""), std::string::npos);
  EXPECT_NE(json.find("\"Tenant 2 MemSys\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":101"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":102"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Whole-document trace pin.
// ---------------------------------------------------------------------------

TEST(TraceGolden, TwoTenantMachineTraceIsPinned) {
  // The whole to_chrome_trace() document, byte for byte, as an FNV-1a
  // digest: two managed tenants with their own MemSys lanes, causal spans
  // of several events, the link monitor's counter track, and two C2C
  // degrade windows — one closed mid-run, one still open at the end.
  core::SystemConfig cfg = obs_config();
  cfg.link_monitor = true;
  cfg.faults.enabled = true;
  cfg.faults.link_degrade = {
      {.start = sim::microseconds(8'100), .duration = sim::microseconds(100)},
      {.start = sim::microseconds(8'240), .duration = sim::milliseconds(1'000)}};
  core::System sys{cfg};
  tenant::Scheduler sched{sys};
  for (const std::uint64_t seed : {42ull, 43ull}) {
    tenant::JobSpec spec;
    spec.name = "hotspot";
    spec.mode = apps::MemMode::kManaged;
    spec.footprint_bytes = 4ull << 20;
    spec.make = [seed](runtime::Runtime& rt) {
      apps::HotspotConfig h;
      h.rows = 128;
      h.cols = 128;
      h.iterations = 3;
      h.seed = seed;
      return apps::hotspot_steps(rt, apps::MemMode::kManaged, h);
    };
    ASSERT_EQ(sched.submit(std::move(spec)), Status::kSuccess);
  }
  sched.run_all();
  sys.link_monitor().stop();

  const std::string json = profile::to_chrome_trace(
      sys.events(), sys.workload(), {&sys.link_monitor().samples()});
  std::string err;
  ASSERT_TRUE(obs::json_valid(json, &err)) << err;
  for (const char* part :
       {"\"Tenant 1 MemSys\"", "\"tid\":102", "\"open_ended\":true",
        "\"open_ended\":false", "\"ph\":\"s\"", "\"ph\":\"f\"",
        "\"ph\":\"C\""}) {
    EXPECT_NE(json.find(part), std::string::npos) << part;
  }
  const std::uint64_t digest = sim::fnv1a(json.data(), json.size());
  EXPECT_EQ(digest, 0x66cecacae4f92b3dull) << std::hex << digest;
}

}  // namespace
}  // namespace ghum
