#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "apps/hotspot.hpp"
#include "fleet/arrival.hpp"
#include "fleet/controller.hpp"
#include "obs/alerts.hpp"
#include "obs/fleet_trace.hpp"
#include "obs/json_check.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "sim/fnv.hpp"
#include "tenant/scheduler.hpp"

/// Fleet observability tests (DESIGN.md Section 13): the deterministic
/// flight recorder, the SLO alert engine on top of it, the cross-node
/// causal trace exporter, and the fleet controller integration — federated
/// metrics, alert firings in the digest, and a root span that demonstrably
/// crosses a node boundary through a loss-replay chain.

namespace ghum {
namespace {

constexpr sim::Picos kFar = sim::milliseconds(10'000);

// ---------------------------------------------------------------------------
// TimeSeries: the flight recorder.
// ---------------------------------------------------------------------------

TEST(TimeSeries, EdgesAreCadenceMultiplesIndependentOfChopping) {
  // Recorders over the same simulated state, advanced in one coarse, one
  // ragged and one edge-by-edge slicing: identical edges, values, digest.
  // The state changes only between advance() calls (samplers are pure
  // reads) and is a function of simulated time: 1 up to t = 350, 2 after.
  auto build = [](const std::vector<sim::Picos>& steps) {
    obs::TimeSeries ts{100};
    std::int64_t v = 0;
    ts.add("state", [&v] { return v; });
    for (sim::Picos t : steps) {
      v = t <= 350 ? 1 : 2;
      ts.advance(t);
    }
    EXPECT_EQ(ts.size(), 11u);
    EXPECT_EQ(ts.value_at(0, 3), 1);  // edge 300
    EXPECT_EQ(ts.value_at(0, 4), 2);  // edge 400
    return ts.digest();
  };
  const std::uint64_t coarse = build({350, 1000});
  EXPECT_EQ(coarse, build({1, 99, 100, 101, 350, 350, 999, 1000}));
  EXPECT_EQ(coarse, build({0, 100, 200, 300, 350, 400, 500, 600, 700, 800,
                           900, 1000}));

  obs::TimeSeries ts{100};
  ts.add("zero", [] { return 0; });
  ts.advance(1000);
  ASSERT_EQ(ts.size(), 11u);  // edges 0, 100, ..., 1000
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(ts.time_at(i), static_cast<sim::Picos>(100 * i));
  }
  EXPECT_EQ(ts.last_edge(), 1000);
  // Advancing backwards (or to the same time) samples nothing new.
  ts.advance(1000);
  ts.advance(500);
  EXPECT_EQ(ts.size(), 11u);
}

TEST(TimeSeries, RingOverwritesOldestAndCountsDrops) {
  obs::TimeSeries ts{10, 4};
  std::int64_t v = 0;
  const std::size_t s = ts.add("v", [&v] { return v; });
  for (int i = 0; i <= 9; ++i) {
    v = i;
    ts.advance(10 * i);
  }
  // 10 edges (0..90) through a capacity-4 ring: 6 dropped, newest 4 kept.
  EXPECT_EQ(ts.size(), 4u);
  EXPECT_EQ(ts.dropped(), 6u);
  EXPECT_EQ(ts.time_at(0), 60);
  EXPECT_EQ(ts.time_at(3), 90);
  EXPECT_EQ(ts.value_at(s, 0), 6);
  EXPECT_EQ(ts.value_at(s, 3), 9);
}

TEST(TimeSeries, WindowAggregatesRetainedSamplesOnly) {
  obs::TimeSeries ts{10};
  std::int64_t v = 0;
  const std::size_t s = ts.add("v", [&v] { return v; });
  for (int i = 0; i <= 5; ++i) {
    v = i * i;  // 0 1 4 9 16 25 at t = 0 10 20 30 40 50
    ts.advance(10 * i);
  }
  const obs::SeriesWindow w = ts.window(s, 10, 40);
  EXPECT_EQ(w.count, 4u);
  EXPECT_EQ(w.min, 1);
  EXPECT_EQ(w.max, 16);
  EXPECT_EQ(w.sum, 30);
  EXPECT_EQ(w.avg(), 7);
  EXPECT_EQ(ts.window(s, 1000, 2000).count, 0u);
  EXPECT_EQ(ts.window(obs::TimeSeries::kNoSeries, 0, 100).count, 0u);
}

TEST(TimeSeries, LateRegisteredSeriesReadsZeroForMissedEdges) {
  obs::TimeSeries ts{10};
  ts.add("early", [] { return 7; });
  ts.advance(20);
  const std::size_t late = ts.add("late", [] { return 9; });
  ts.advance(40);
  ASSERT_EQ(ts.size(), 5u);
  EXPECT_EQ(ts.value_at(late, 0), 0);  // edge 0: series did not exist yet
  EXPECT_EQ(ts.value_at(late, 2), 0);  // edge 20
  EXPECT_EQ(ts.value_at(late, 3), 9);  // edge 30: first sampled edge
}

TEST(TimeSeries, ExportsParseAndAreDeterministic) {
  auto build = [] {
    obs::TimeSeries ts{100};
    std::int64_t v = 0;
    ts.add("a.b-c", [&v] { return v; });
    ts.add("d", [&v] { return -v; });
    for (sim::Picos t = 0; t <= 500; t += 100) {
      v += 3;
      ts.advance(t);
    }
    return ts;
  };
  const obs::TimeSeries t1 = build();
  const obs::TimeSeries t2 = build();
  EXPECT_EQ(t1.to_tsv(), t2.to_tsv());
  EXPECT_EQ(t1.to_json(), t2.to_json());
  EXPECT_EQ(t1.digest(), t2.digest());
  std::string err;
  EXPECT_TRUE(obs::json_valid(t1.to_json(), &err)) << err;
  EXPECT_EQ(t1.to_tsv().substr(0, 18), "time_ps\ta.b-c\td\n0\t");
  EXPECT_EQ(t1.find("d"), 1u);
  EXPECT_EQ(t1.find("nope"), obs::TimeSeries::kNoSeries);
}

// ---------------------------------------------------------------------------
// AlertEngine: threshold / for-duration / burn-window semantics.
// ---------------------------------------------------------------------------

obs::AlertRule above(std::string name, std::string instr, std::int64_t thr,
                     sim::Picos for_d = 0, sim::Picos burn = 0) {
  obs::AlertRule r;
  r.name = std::move(name);
  r.instrument = std::move(instr);
  r.predicate = obs::AlertPredicate::kAbove;
  r.threshold = thr;
  r.for_duration = for_d;
  r.burn_window = burn;
  return r;
}

TEST(AlertEngine, OpensAfterForDurationAndClosesOnRecovery) {
  obs::TimeSeries ts{10};
  std::int64_t v = 0;
  ts.add("depth", [&v] { return v; });
  obs::AlertEngine eng{ts, {above("deep", "depth", 5, 20)}};

  v = 9;            // breach starts at edge 0
  ts.advance(10);   // edges 0, 10: breach held 10 < 20 — not open yet
  EXPECT_EQ(eng.evaluate(), 0u);
  EXPECT_FALSE(eng.is_open(0));
  ts.advance(20);   // edge 20: breach has held 20 — opens
  EXPECT_EQ(eng.evaluate(), 1u);
  EXPECT_TRUE(eng.is_open(0));
  EXPECT_EQ(eng.open_count(), 1u);
  v = 5;            // exactly at threshold: kAbove requires strictly >
  ts.advance(30);
  EXPECT_EQ(eng.evaluate(), 1u);
  EXPECT_FALSE(eng.is_open(0));

  ASSERT_EQ(eng.events().size(), 2u);
  EXPECT_EQ(eng.events()[0].time, 20);
  EXPECT_TRUE(eng.events()[0].open);
  EXPECT_EQ(eng.events()[0].value, 9);
  EXPECT_EQ(eng.events()[1].time, 30);
  EXPECT_FALSE(eng.events()[1].open);
}

TEST(AlertEngine, BreachRunResetsWhenValueRecovers) {
  obs::TimeSeries ts{10};
  std::int64_t v = 0;
  ts.add("depth", [&v] { return v; });
  obs::AlertEngine eng{ts, {above("deep", "depth", 5, 20)}};
  // Breach, dip, breach again: the for-duration clock restarts at the dip.
  v = 9;
  ts.advance(10);
  v = 0;
  ts.advance(20);
  v = 9;
  ts.advance(30);
  eng.evaluate();
  EXPECT_FALSE(eng.is_open(0)) << "dip at t=20 must reset the breach run";
  ts.advance(50);  // breach has now held 30..50 >= 20
  eng.evaluate();
  EXPECT_TRUE(eng.is_open(0));
}

TEST(AlertEngine, BurnWindowAveragesIgnoreSingleEdgeSpikes) {
  obs::TimeSeries ts{10};
  std::int64_t v = 0;
  ts.add("rate", [&v] { return v; });
  // Instantaneous twin vs a 40 ps trailing-average twin of the same rule.
  obs::AlertEngine eng{
      ts, {above("spiky", "rate", 10), above("burn", "rate", 10, 0, 40)}};
  v = 100;          // spike over edges 0 and 10
  ts.advance(10);
  v = 0;
  ts.advance(30);
  eng.evaluate();
  // The instantaneous rule opened on the spike and closed right after it;
  // the burn rule is still open — the trailing average at edge 30 is
  // avg{100,100,0,0} = 50, well above threshold.
  ASSERT_GE(eng.events().size(), 2u);
  EXPECT_EQ(eng.events()[0].rule, 0u);
  EXPECT_TRUE(eng.events()[0].open);
  EXPECT_FALSE(eng.is_open(0));
  EXPECT_TRUE(eng.is_open(1));
  // Once the spike slides out of the 40 ps window the burn rule closes too.
  ts.advance(50);
  eng.evaluate();
  EXPECT_FALSE(eng.is_open(1));
  // Sustained load keeps the burn rule open.
  v = 50;
  ts.advance(200);
  eng.evaluate();
  EXPECT_TRUE(eng.is_open(1));
}

TEST(AlertEngine, UnresolvedInstrumentsAreReportedAndNeverFire) {
  obs::TimeSeries ts{10};
  ts.add("real", [] { return 100; });
  obs::AlertEngine eng{ts, {above("ok", "real", 1), above("bad", "ghost", 1)}};
  ASSERT_EQ(eng.unresolved().size(), 1u);
  EXPECT_EQ(eng.unresolved()[0], 1u);
  ts.advance(100);
  eng.evaluate();
  EXPECT_TRUE(eng.is_open(0));
  EXPECT_FALSE(eng.is_open(1));
  for (const obs::AlertEvent& e : eng.events()) EXPECT_NE(e.rule, 1u);
}

TEST(AlertEngine, DigestIsBitIdenticalAcrossEqualRuns) {
  auto run = [] {
    obs::TimeSeries ts{10};
    std::int64_t v = 0;
    ts.add("v", [&v] { return v; });
    obs::AlertEngine eng{ts, {above("a", "v", 3, 20)}};
    for (int i = 1; i <= 20; ++i) {
      v = (i % 7) - 1;
      ts.advance(10 * i);
      eng.evaluate();
    }
    return eng.digest();
  };
  EXPECT_EQ(run(), run());
}

// ---------------------------------------------------------------------------
// Differential check: TimeSeries and AlertEngine against a per-edge model.
// ---------------------------------------------------------------------------

/// Reference recorder that samples every cadence edge one by one into its
/// own row and drops the oldest row past capacity, with an alert evaluator
/// on top that rescans every retained row on each call.
struct EdgeModel {
  EdgeModel(sim::Picos c, std::size_t cap) : cadence(c), capacity(cap) {}

  sim::Picos cadence;
  std::size_t capacity;
  std::vector<std::string> names;
  std::vector<std::function<std::int64_t()>> samplers;
  std::deque<std::pair<sim::Picos, std::vector<std::int64_t>>> rows;
  std::uint64_t dropped = 0;
  sim::Picos last_edge = -1;

  void advance(sim::Picos now) {
    for (sim::Picos e = last_edge < 0 ? 0 : last_edge + cadence; e <= now;
         e += cadence) {
      std::vector<std::int64_t> row;
      for (const auto& f : samplers) row.push_back(f());
      rows.emplace_back(e, std::move(row));
      if (rows.size() > capacity) {
        rows.pop_front();
        ++dropped;
      }
      last_edge = e;
    }
  }
  std::int64_t value(std::size_t s, std::size_t i) const {
    return s < rows[i].second.size() ? rows[i].second[s] : 0;
  }
  obs::SeriesWindow window(std::size_t s, sim::Picos t0, sim::Picos t1) const {
    obs::SeriesWindow w;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].first < t0 || rows[i].first > t1) continue;
      const std::int64_t v = value(s, i);
      w.min = w.count == 0 ? v : std::min(w.min, v);
      w.max = w.count == 0 ? v : std::max(w.max, v);
      w.sum += v;
      ++w.count;
    }
    return w;
  }
  /// (time, values...) per retained row, as the exporters print them.
  std::vector<std::vector<std::int64_t>> table() const {
    std::vector<std::vector<std::int64_t>> out;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      out.push_back({rows[i].first});
      for (std::size_t s = 0; s < names.size(); ++s) {
        out.back().push_back(value(s, i));
      }
    }
    return out;
  }
  std::string tsv() const {
    std::string out = "time_ps";
    for (const std::string& n : names) out += "\t" + n;
    out += '\n';
    for (const auto& row : table()) {
      for (std::size_t c = 0; c < row.size(); ++c) {
        if (c != 0) out += '\t';
        out += std::to_string(row[c]);
      }
      out += '\n';
    }
    return out;
  }
  std::string json() const {
    std::string out = "{\"cadence_ps\":" + std::to_string(cadence) +
                      ",\"dropped\":" + std::to_string(dropped) +
                      ",\"series\":[";
    for (std::size_t s = 0; s < names.size(); ++s) {
      out += (s == 0 ? "\"" : ",\"") + names[s] + '"';
    }
    out += "],\"samples\":[";
    bool first = true;
    for (const auto& row : table()) {
      out += first ? "\n[" : ",\n[";
      first = false;
      for (std::size_t c = 0; c < row.size(); ++c) {
        if (c != 0) out += ',';
        out += std::to_string(row[c]);
      }
      out += ']';
    }
    return out + "\n]}\n";
  }
  std::uint64_t digest() const {
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t x) {
      for (int b = 0; b < 8; ++b) {
        h ^= (x >> (8 * b)) & 0xff;
        h *= 0x100000001b3ull;
      }
    };
    mix(dropped);
    for (const auto& row : table()) {
      for (std::int64_t v : row) mix(static_cast<std::uint64_t>(v));
    }
    return h;
  }

  struct RuleRun {
    obs::AlertRule rule;
    std::size_t series;
    bool open = false;
    sim::Picos breach_since = -1;
  };
  std::vector<RuleRun> rules;
  std::vector<obs::AlertEvent> events;
  sim::Picos consumed = -1;

  void evaluate() {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const sim::Picos edge = rows[i].first;
      if (edge <= consumed) continue;
      for (std::uint32_t ri = 0; ri < rules.size(); ++ri) {
        RuleRun& r = rules[ri];
        std::int64_t v = value(r.series, i);
        if (r.rule.burn_window > 0) {
          const obs::SeriesWindow w =
              window(r.series, edge - r.rule.burn_window + 1, edge);
          if (w.count != 0) v = w.avg();
        }
        const bool breach = r.rule.predicate == obs::AlertPredicate::kAbove
                                ? v > r.rule.threshold
                                : v < r.rule.threshold;
        if (!breach) {
          r.breach_since = -1;
          if (r.open) events.push_back({edge, ri, false, v});
          r.open = false;
          continue;
        }
        if (r.breach_since < 0) r.breach_since = edge;
        if (!r.open && edge - r.breach_since >= r.rule.for_duration) {
          r.open = true;
          events.push_back({edge, ri, true, v});
        }
      }
      consumed = edge;
    }
  }
};

TEST(TimeSeriesDifferential, RandomAdvancesMatchPerEdgeModel) {
  std::size_t burn_events = 0;  // over all seeds
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng{seed};
    const auto pick = [&rng](std::uint64_t n) {
      return static_cast<std::int64_t>(rng() % n);
    };
    const sim::Picos cadence = std::array<sim::Picos, 3>{1, 7, 10}[seed % 3];
    const std::size_t capacity =
        std::array<std::size_t, 4>{1, 2, 5, 48}[seed % 4];
    obs::TimeSeries ts{cadence, capacity};
    EdgeModel model{cadence, capacity};
    std::array<std::int64_t, 3> state{0, 0, 0};
    const auto add = [&](std::size_t s) {
      const std::string name = "s" + std::to_string(s);
      const auto read = [&state, s] { return state[s]; };
      EXPECT_EQ(ts.add(name, read), s);
      model.names.push_back(name);
      model.samplers.push_back(read);
    };
    add(0);
    add(1);
    // Instantaneous rules (one with a for-duration) and burn-window rules,
    // one of them wider than everything the recorder retains.
    const sim::Picos retained = static_cast<sim::Picos>(capacity) * cadence;
    std::vector<obs::AlertRule> rules = {
        above("hot", "s0", 5, 2 * cadence),
        above("burn", "s0", 4, 0, 3 * cadence),
        above("wide", "s1", 3, cadence, 4 * retained),
        above("cold", "s1", 6)};
    rules[3].predicate = obs::AlertPredicate::kBelow;
    obs::AlertEngine eng{ts, rules};
    for (const obs::AlertRule& r : rules) {
      model.rules.push_back(
          {.rule = r, .series = r.instrument == "s0" ? 0u : 1u});
    }

    sim::Picos now = pick(3) - 1;  // the first call may lie before edge 0
    for (int step = 0; step < 80; ++step) {
      if (step == 30) add(2);  // registered late: reads 0 for earlier edges
      for (std::int64_t& v : state) v = pick(10);
      const std::int64_t roll = pick(10);
      if (roll == 0) {
        now -= pick(4 * cadence);  // backward: records nothing
      } else if (roll == 1) {
        // One call that spans more than the whole capacity.
        now += retained + (1 + pick(3)) * cadence;
      } else if (roll > 2) {
        now += pick(4 * cadence);  // roll == 2 repeats the same time
      }
      ts.advance(now);
      model.advance(now);
      if (pick(3) != 0) {
        eng.evaluate();
        model.evaluate();
      }

      ASSERT_EQ(ts.size(), model.rows.size());
      ASSERT_EQ(ts.dropped(), model.dropped);
      ASSERT_EQ(ts.last_edge(), model.last_edge);
      for (std::size_t i = 0; i < ts.size(); ++i) {
        ASSERT_EQ(ts.time_at(i), model.rows[i].first);
        for (std::size_t s = 0; s < ts.series_count(); ++s) {
          ASSERT_EQ(ts.value_at(s, i), model.value(s, i)) << "series " << s;
        }
      }
      const sim::Picos t0 = now - pick(6 * cadence);
      const sim::Picos t1 = t0 + pick(8 * cadence) - cadence;
      for (std::size_t s = 0; s < ts.series_count(); ++s) {
        const obs::SeriesWindow got = ts.window(s, t0, t1);
        const obs::SeriesWindow want = model.window(s, t0, t1);
        EXPECT_EQ(got.count, want.count)
            << "window [" << t0 << ", " << t1 << "]";
        EXPECT_EQ(got.min, want.min);
        EXPECT_EQ(got.max, want.max);
        EXPECT_EQ(got.sum, want.sum);
      }
    }
    EXPECT_EQ(ts.digest(), model.digest());
    EXPECT_EQ(ts.to_tsv(), model.tsv());
    EXPECT_EQ(ts.to_json(), model.json());

    ASSERT_EQ(eng.events().size(), model.events.size());
    for (std::size_t i = 0; i < model.events.size(); ++i) {
      const obs::AlertEvent& a = eng.events()[i];
      const obs::AlertEvent& b = model.events[i];
      EXPECT_EQ(a.time, b.time) << "event " << i;
      EXPECT_EQ(a.rule, b.rule) << "event " << i;
      EXPECT_EQ(a.open, b.open) << "event " << i;
      EXPECT_EQ(a.value, b.value) << "event " << i;
      burn_events += rules[b.rule].burn_window > 0 ? 1 : 0;
    }
  }
  EXPECT_GT(burn_events, 0u) << "no burn-window rule ever fired";
}

// ---------------------------------------------------------------------------
// Fleet trace export.
// ---------------------------------------------------------------------------

TEST(FleetTrace, ExportParsesWithHostileLabelsAndRendersLanes) {
  std::vector<obs::FleetTraceEvent> ev;
  obs::FleetTraceEvent a;
  a.time = sim::microseconds(1);
  a.kind = obs::FleetTraceKind::kArrival;
  a.label = "we\"ird\\na\nme\x01";  // must not break the JSON
  ev.push_back(a);
  obs::FleetTraceEvent p;
  p.time = sim::microseconds(2);
  p.kind = obs::FleetTraceKind::kPlacement;
  p.node = 0;
  p.tenant = 3;
  ev.push_back(p);
  obs::FleetTraceEvent f;
  f.time = sim::microseconds(3);
  f.duration = sim::microseconds(1);
  f.kind = obs::FleetTraceKind::kLinkFlap;
  ev.push_back(f);

  const std::string json = obs::export_fleet_trace(ev, 2);
  std::string err;
  ASSERT_TRUE(obs::json_valid(json, &err)) << err;
  EXPECT_NE(json.find("fleet control"), std::string::npos);
  EXPECT_NE(json.find("node 0"), std::string::npos);
  EXPECT_NE(json.find("node 1"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << "no duration events";
}

TEST(FleetTrace, FlowArrowsCrossNodeLanesPerRootSpan) {
  // One root span born on node 0 that finishes on node 1: the exporter
  // must chain s -> t -> f across the two pid lanes.
  std::vector<obs::FleetTraceEvent> ev;
  const obs::TraceContext ctx{42, 0};
  obs::FleetTraceEvent loss;
  loss.time = 10;
  loss.kind = obs::FleetTraceKind::kNodeLoss;
  loss.node = 0;
  loss.ctx = ctx;
  ev.push_back(loss);
  obs::FleetTraceEvent retry;
  retry.time = 20;
  retry.kind = obs::FleetTraceKind::kReplacementRetry;
  retry.ctx = ctx;
  ev.push_back(retry);
  obs::FleetTraceEvent fin;
  fin.time = 30;
  fin.kind = obs::FleetTraceKind::kJobFinish;
  fin.node = 1;
  fin.tenant = 2;
  fin.ctx = ctx;
  ev.push_back(fin);

  const std::string json = obs::export_fleet_trace(ev, 2);
  std::string err;
  ASSERT_TRUE(obs::json_valid(json, &err)) << err;
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos) << "no flow start";
  EXPECT_NE(json.find("\"ph\":\"t\""), std::string::npos) << "no flow step";
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos) << "no flow finish";
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fleet controller integration.
// ---------------------------------------------------------------------------

core::SystemConfig node_cfg() {
  core::SystemConfig cfg;
  cfg.system_page_size = pagetable::kSystemPage64K;
  cfg.hbm_capacity = 16ull << 20;
  cfg.ddr_capacity = 256ull << 20;
  cfg.gpu_driver_baseline = 1ull << 20;
  cfg.event_log = true;
  return cfg;
}

struct Solo {
  sim::Picos end = 0;
  std::uint64_t checksum = 0;
};

const Solo& solo() {
  static const Solo s = [] {
    core::System sys{node_cfg()};
    tenant::Scheduler sched{sys, {}};
    tenant::JobSpec spec;
    spec.name = "hotspot";
    spec.mode = apps::MemMode::kManaged;
    spec.footprint_bytes = 1ull << 20;
    spec.make = [](runtime::Runtime& rt) {
      apps::HotspotConfig h;
      h.rows = 128;
      h.cols = 128;
      h.iterations = 3;
      return apps::hotspot_steps(rt, apps::MemMode::kManaged, h);
    };
    tenant::TenantId id = tenant::kNoTenant;
    (void)sched.submit(std::move(spec), &id);
    sched.run_all();
    return Solo{sys.now(), sched.job(id).report.checksum};
  }();
  return s;
}

std::vector<fleet::JobTemplate> catalog() {
  fleet::JobTemplate t;
  t.name = "hotspot";
  t.mode = apps::MemMode::kManaged;
  t.make = [](runtime::Runtime& rt) {
    apps::HotspotConfig h;
    h.rows = 128;
    h.cols = 128;
    h.iterations = 3;
    return apps::hotspot_steps(rt, apps::MemMode::kManaged, h);
  };
  t.footprint_bytes = 1ull << 20;
  t.est_cost = solo().end;
  t.solo_checksum = solo().checksum;
  return {t};
}

fleet::FleetConfig obs_fleet(std::uint32_t nodes) {
  fleet::FleetConfig f;
  f.nodes = nodes;
  f.spares = 0;
  f.node_config = node_cfg();
  f.scheduler.policy = tenant::Policy::kPriority;
  f.obs.enabled = true;
  f.obs.cadence = solo().end / 8;
  return f;
}

fleet::JobRequest make_req(std::uint64_t id, sim::Picos arrival) {
  fleet::JobRequest r;
  r.id = id;
  r.arrival = arrival;
  r.tmpl = 0;
  r.priority = 0;
  r.deadline = kFar;
  r.replicas = 1;
  return r;
}

std::vector<fleet::JobRequest> stream(std::uint64_t n, sim::Picos gap) {
  std::vector<fleet::JobRequest> out;
  for (std::uint64_t i = 0; i < n; ++i) out.push_back(make_req(i, gap * i));
  return out;
}

TEST(FleetObs, RecorderSamplesNodeAndFleetSeriesDuringRun) {
  fleet::Controller ctl{obs_fleet(2), catalog()};
  ASSERT_EQ(ctl.run(stream(6, solo().end / 2)), Status::kSuccess);
  const obs::TimeSeries* ts = ctl.recorder();
  ASSERT_NE(ts, nullptr);
  EXPECT_GT(ts->size(), 0u);
  for (const char* name :
       {"node0.placed_bytes", "node0.live_jobs", "node0.queue_depth",
        "node0.gpu_used_bytes", "node1.live_jobs", "fleet.pending_jobs",
        "class0.slo_attainment_permille", "fabric.total_bytes"}) {
    EXPECT_NE(ts->find(name), obs::TimeSeries::kNoSeries) << name;
  }
  // Something actually happened on node 0 at some edge.
  const obs::SeriesWindow w =
      ts->window(ts->find("node0.live_jobs"), 0, ts->last_edge());
  EXPECT_GT(w.max, 0);
  // SLO attainment starts at the all-on-time sentinel and stays a permille.
  const obs::SeriesWindow slo =
      ts->window(ts->find("class0.slo_attainment_permille"), 0, ts->last_edge());
  EXPECT_LE(slo.max, 1000);
  EXPECT_GE(slo.min, 0);
  std::string err;
  EXPECT_TRUE(obs::json_valid(ts->to_json(), &err)) << err;
}

TEST(FleetObs, DisabledObsKeepsRecorderAlertsAndTraceEmpty) {
  fleet::FleetConfig f = obs_fleet(2);
  f.obs.enabled = false;
  fleet::Controller ctl{f, catalog()};
  ASSERT_EQ(ctl.run(stream(2, solo().end)), Status::kSuccess);
  EXPECT_EQ(ctl.recorder(), nullptr);
  EXPECT_EQ(ctl.alert_engine(), nullptr);
  EXPECT_TRUE(ctl.trace_events().empty());
  for (const fleet::FleetJob& j : ctl.jobs()) {
    EXPECT_FALSE(j.ctx.traced());
  }
}

TEST(FleetObs, QueueDepthAlertFiresDeterministically) {
  auto run = [](std::uint64_t* opened, std::uint64_t* closed) -> std::uint64_t {
    fleet::FleetConfig f = obs_fleet(1);
    obs::AlertRule r;
    r.name = "node0-backlog";
    r.instrument = "node0.queue_depth";
    r.predicate = obs::AlertPredicate::kAbove;
    r.threshold = 1;
    r.for_duration = 0;
    r.severity = obs::AlertSeverity::kWarning;
    f.obs.alerts = {r};
    fleet::Controller ctl{f, catalog()};
    // Jobs arrive 4x faster than one node can serve them: the queue grows
    // past 1 at the sampled edges, then the drain empties it — the alert
    // must open and close.
    (void)ctl.run(stream(8, solo().end / 4));
    if (ctl.alert_engine() == nullptr) {
      ADD_FAILURE() << "alert engine missing with obs enabled";
      return 0;
    }
    EXPECT_TRUE(ctl.alert_engine()->unresolved().empty());
    *opened = ctl.metrics().counter("ghum_fleet_alerts_opened_total").value();
    *closed = ctl.metrics().counter("ghum_fleet_alerts_closed_total").value();
    return ctl.digest();
  };
  std::uint64_t o1 = 0, c1 = 0, o2 = 0, c2 = 0;
  const std::uint64_t d1 = run(&o1, &c1);
  const std::uint64_t d2 = run(&o2, &c2);
  EXPECT_GE(o1, 1u) << "backlog alert never opened";
  EXPECT_EQ(o1, c1) << "alert left open after the fleet drained";
  EXPECT_EQ(o1, o2);
  EXPECT_EQ(c1, c2);
  EXPECT_EQ(d1, d2) << "alert firings must be bit-for-bit reproducible";
}

TEST(FleetObs, LossReplayCarriesRootSpanAcrossNodes) {
  fleet::FleetConfig f = obs_fleet(2);
  f.faults.node_loss = {{.time = solo().end / 2, .node = 0}};
  f.replace_max_retries = 6;
  f.replace_backoff = solo().end / 4;
  fleet::Controller ctl{f, catalog()};
  ASSERT_EQ(ctl.run(stream(4, 0)), Status::kSuccess);

  // At least one job died with node 0 and finished elsewhere, carrying the
  // fault's root span: origin node != completion node.
  std::size_t crossed = 0;
  for (const fleet::FleetJob& j : ctl.jobs()) {
    if (j.state != fleet::FleetJobState::kFinished) continue;
    EXPECT_TRUE(j.ctx.traced());
    ASSERT_NE(j.completion_node, fleet::kNoNode);
    if (j.replayed_after_loss) {
      EXPECT_EQ(j.ctx.origin_node, 0u) << "replayed span must root at the fault";
      EXPECT_NE(j.completion_node, j.ctx.origin_node);
      ++crossed;
    }
  }
  EXPECT_GT(crossed, 0u) << "no span crossed a node boundary";

  // The trace renders both node lanes, the loss, and flow arrows.
  const std::string json = ctl.chrome_trace();
  std::string err;
  ASSERT_TRUE(obs::json_valid(json, &err)) << err;
  EXPECT_NE(json.find("node loss"), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  bool saw_loss = false, saw_retry = false, saw_transfer = false;
  for (const obs::FleetTraceEvent& e : ctl.trace_events()) {
    saw_loss |= e.kind == obs::FleetTraceKind::kNodeLoss;
    saw_retry |= e.kind == obs::FleetTraceKind::kReplacementRetry;
  }
  ASSERT_NE(ctl.fabric(), nullptr);
  for (const net::TransferRecord& r : ctl.fabric()->log()) {
    saw_transfer |= r.ctx.traced();
  }
  EXPECT_TRUE(saw_loss);
  EXPECT_TRUE(saw_retry);
  EXPECT_TRUE(saw_transfer) << "no fabric transfer carried a trace context";
}

TEST(FleetObs, ChaosFleetDigestsMatchPinnedGoldens) {
  // The heartbeat + lossy-fabric + burn-window stack of bench_chaosnet and
  // bench_fleetscope in miniature, with a dense cadence and a small
  // recorder so advance() calls span many edges and old samples are
  // dropped. The constants were recorded with a recorder that stored one
  // row per edge: storage may change, what is recorded may not.
  constexpr std::uint64_t kRecorderDigest = 0x4d390c83652a7d04ull;
  constexpr std::uint64_t kAlertDigest = 0x8c167f744491e220ull;
  constexpr std::uint64_t kFleetDigest = 0x926a1129ffe3d6a6ull;

  fleet::FleetConfig f = obs_fleet(2);
  f.spares = 1;
  f.heartbeat.enabled = true;
  f.heartbeat.interval = sim::microseconds(20);
  f.heartbeat.miss_threshold = 6;
  f.faults.messages.enabled = true;
  f.faults.messages.drop_prob = 0.1;
  f.faults.messages.corrupt_prob = 0.05;
  f.faults.node_loss = {{.time = solo().end / 2, .node = 1}};
  f.obs.cadence = solo().end / 64;
  f.obs.ring_capacity = 32;
  f.obs.alerts = {
      above("backlog", "fleet.pending_jobs", 0, f.obs.cadence),
      above("retrans", "fabric.retransmits", 0),
      above("burn", "node0.live_jobs", 0, 0, 8 * f.obs.cadence)};
  fleet::Controller ctl{f, catalog()};
  ASSERT_EQ(ctl.run(stream(6, solo().end / 4)), Status::kSuccess);

  const obs::TimeSeries* ts = ctl.recorder();
  const obs::AlertEngine* ae = ctl.alert_engine();
  ASSERT_NE(ts, nullptr);
  ASSERT_NE(ae, nullptr);
  EXPECT_EQ(ts->size(), ts->capacity());
  EXPECT_GT(ts->dropped(), 0u);
  EXPECT_TRUE(ae->unresolved().empty());
  std::array<std::size_t, 3> fired{};
  for (const obs::AlertEvent& e : ae->events()) ++fired[e.rule];
  EXPECT_GT(fired[0], 0u);
  EXPECT_GT(fired[2], 0u) << "the burn-window rule never fired";
  EXPECT_EQ(ts->digest(), kRecorderDigest) << std::hex << ts->digest();
  EXPECT_EQ(ae->digest(), kAlertDigest) << std::hex << ae->digest();
  EXPECT_EQ(ctl.digest(), kFleetDigest) << std::hex << ctl.digest();
}

TEST(TraceGolden, FleetLossAndLinkFlapTraceIsPinned) {
  // The whole Controller::chrome_trace() document, byte for byte, as an
  // FNV-1a digest: control, alert and fabric lanes, node lanes with
  // per-tenant threads, a node loss whose root span crosses to a survivor,
  // fabric transfers and a link-flap window.
  fleet::FleetConfig f = obs_fleet(2);
  f.spares = 1;
  f.faults.node_loss = {{.time = solo().end / 2, .node = 0}};
  f.faults.link_flap = {{.start = solo().end / 4,
                         .duration = solo().end / 4,
                         .node_a = 1,
                         .node_b = 2}};
  f.replace_max_retries = 6;
  f.replace_backoff = solo().end / 4;
  f.obs.alerts = {above("backlog", "fleet.pending_jobs", 0)};
  fleet::Controller ctl{f, catalog()};
  ASSERT_EQ(ctl.run(stream(4, solo().end / 8)), Status::kSuccess);

  const std::string json = ctl.chrome_trace();
  std::string err;
  ASSERT_TRUE(obs::json_valid(json, &err)) << err;
  for (const char* part :
       {"\"node loss\"", "link flap 1-2", "\"ph\":\"X\"", "\"ph\":\"s\"",
        "\"ph\":\"f\"", "\"name\":\"tenant 1\"", "alert open"}) {
    EXPECT_NE(json.find(part), std::string::npos) << part;
  }
  const std::uint64_t digest = sim::fnv1a(json.data(), json.size());
  EXPECT_EQ(digest, 0xe38f27153addebf8ull) << std::hex << digest;
}

/// Label-blind per-name counter sums over one registry.
std::map<std::string, std::uint64_t> counter_sums(
    const obs::MetricsRegistry& reg) {
  std::map<std::string, std::uint64_t> out;
  reg.for_each([&](const obs::MetricsRegistry::InstrumentView& v) {
    if (v.counter != nullptr) out[std::string{v.name}] += v.counter->value();
  });
  return out;
}

TEST(FleetObs, FederatedRegistryEqualsPerNodeSums) {
  fleet::Controller ctl{obs_fleet(2), catalog()};
  ASSERT_EQ(ctl.run(stream(6, solo().end / 2)), Status::kSuccess);

  obs::MetricsRegistry fed = ctl.federated_metrics();
  // Every federated instrument carries the node label.
  fed.for_each([&](const obs::MetricsRegistry::InstrumentView& v) {
    bool has_node = false;
    for (const obs::Label& l : *v.labels) has_node |= l.key == "node";
    EXPECT_TRUE(has_node) << v.name;
  });

  // Ground truth: the fleet registry plus every node's machine registry.
  std::map<std::string, std::uint64_t> expect = counter_sums(ctl.metrics());
  for (fleet::NodeId id = 0; id < 2; ++id) {
    const obs::MetricsRegistry* nm = ctl.node_metrics(id);
    ASSERT_NE(nm, nullptr);
    for (const auto& [name, v] : counter_sums(*nm)) expect[name] += v;
  }
  const std::map<std::string, std::uint64_t> got = counter_sums(fed);
  EXPECT_EQ(got, expect) << "federated counters diverge from per-node sums";
  // And the machines actually counted something (nonzero equality).
  ASSERT_TRUE(expect.count("ghum_faults_total"));
  EXPECT_GT(expect.at("ghum_faults_total"), 0u);

  // The federated exposition parses and mentions every source label.
  const std::string prom = ctl.metrics_prometheus();
  EXPECT_NE(prom.find("node=\"fleet\""), std::string::npos);
  EXPECT_NE(prom.find("node=\"0\""), std::string::npos);
  EXPECT_NE(prom.find("node=\"1\""), std::string::npos);
  const std::string json = ctl.metrics_json();
  std::string err;
  EXPECT_TRUE(obs::json_valid(json, &err)) << err;
}

TEST(FleetObs, RegistryMergePreservesCountsGaugesAndHistograms) {
  obs::MetricsRegistry a;
  a.counter("x_total").inc(3);
  a.gauge("g_bytes").set(10);
  a.histogram("h_bytes").observe(4);
  a.histogram("h_bytes").observe(1024);
  obs::MetricsRegistry b;
  b.counter("x_total").inc(5);
  b.gauge("g_bytes").set(-4);
  b.histogram("h_bytes").observe(0);

  obs::MetricsRegistry fed;
  fed.merge_from(a, {{"node", "0"}});
  fed.merge_from(b, {{"node", "1"}});
  // Distinct node labels keep the sources separate...
  EXPECT_EQ(fed.counter("x_total", {{"node", "0"}}).value(), 3u);
  EXPECT_EQ(fed.counter("x_total", {{"node", "1"}}).value(), 5u);
  // ...while merging both under one label accumulates exactly.
  obs::MetricsRegistry sum;
  sum.merge_from(a, {{"node", "all"}});
  sum.merge_from(b, {{"node", "all"}});
  EXPECT_EQ(sum.counter("x_total", {{"node", "all"}}).value(), 8u);
  EXPECT_EQ(sum.gauge("g_bytes", {{"node", "all"}}).value(), 6);
  const obs::Histogram& h = sum.histogram("h_bytes", {{"node", "all"}});
  EXPECT_EQ(h.count(), 3u);
  EXPECT_EQ(h.sum(), 1028u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 1024u);
}

}  // namespace
}  // namespace ghum
