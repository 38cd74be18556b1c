// Crash recovery bench (DESIGN.md Section 10). Two parts, both enforced
// (nonzero exit on any violation):
//
// Part A — restore equivalence. Every tier-1 application x memory mode is
// run twice: once straight through, once snapshotted mid-run by
// chk::Snapshotter, restored into a fresh core::System (donor adoption +
// Runtime::rebind, the donor destroyed), and continued there. The
// interrupted run must be bit-identical to the straight one: same
// simulated end time, same EventLog digest, same output checksum. The
// table also reports snapshot blob size and serialize/deserialize cost.
//
// Part B — crash scenarios under the co-scheduler. GPU channel resets,
// an ECC storm past the retirement budget, and a stalled job are injected
// against tenant workloads with the recovery ladder enabled. Checked per
// scenario: the victim ends exactly as the ladder prescribes (replayed to
// the correct checksum, or failed with Status::kErrorUnrecoverable once
// the restart budget is spent), the co-tenant's output is unchanged from
// a crash-free co-run, the scheduler terminates (never hangs), and the
// whole scenario is reproducible run to run. Results land in
// BENCH_recovery.json.
//
// Flags:
//   --smoke       small problem sizes (the ctest "perf" smoke target)
//   --out <file>  output JSON path (default BENCH_recovery.json)

#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "benchsupport/report.hpp"
#include "benchsupport/scenarios.hpp"
#include "chk/snapshot.hpp"
#include "runtime/runtime.hpp"
#include "tenant/scheduler.hpp"

using namespace ghum;
namespace bs = benchsupport;

namespace {

// ---------------------------------------------------------------------------
// Part A: restore equivalence across the app x mode matrix.
// ---------------------------------------------------------------------------

struct StepApp {
  std::string name;
  std::function<core::SystemConfig()> config;
  std::function<apps::AppCoro(runtime::Runtime&, apps::MemMode, bs::Scale)> steps;
};

std::vector<StepApp> step_apps() {
  auto rodinia = [] {
    core::SystemConfig cfg = bs::rodinia_config(pagetable::kSystemPage64K, false);
    cfg.event_log = true;
    return cfg;
  };
  return {
      {"hotspot", rodinia,
       [](runtime::Runtime& rt, apps::MemMode m, bs::Scale s) {
         return apps::hotspot_steps(rt, m, bs::hotspot_config(s));
       }},
      {"pathfinder", rodinia,
       [](runtime::Runtime& rt, apps::MemMode m, bs::Scale s) {
         return apps::pathfinder_steps(rt, m, bs::pathfinder_config(s));
       }},
      {"needle", rodinia,
       [](runtime::Runtime& rt, apps::MemMode m, bs::Scale s) {
         return apps::needle_steps(rt, m, bs::needle_config(s));
       }},
      {"bfs", rodinia,
       [](runtime::Runtime& rt, apps::MemMode m, bs::Scale s) {
         return apps::bfs_steps(rt, m, bs::bfs_config(s));
       }},
      {"srad", rodinia,
       [](runtime::Runtime& rt, apps::MemMode m, bs::Scale s) {
         return apps::srad_steps(rt, m, bs::srad_config(s));
       }},
      {"qiskit",
       [] {
         core::SystemConfig cfg = bs::qv_config(pagetable::kSystemPage64K, false);
         cfg.event_log = true;
         return cfg;
       },
       [](runtime::Runtime& rt, apps::MemMode m, bs::Scale s) {
         return apps::qvsim_steps(rt, m, bs::qv_sim_config(s, 17));
       }},
  };
}

struct RunOutcome {
  sim::Picos end = 0;
  std::uint64_t digest = 0;
  std::uint64_t checksum = 0;
  int steps = 0;
  std::size_t blob_bytes = 0;
};

/// Uninterrupted reference run; counts coroutine steps so the interrupted
/// run can cut at the midpoint.
RunOutcome run_straight(const StepApp& app, apps::MemMode mode, bs::Scale s) {
  core::System sys{app.config()};
  runtime::Runtime rt{sys};
  apps::AppCoro coro = app.steps(rt, mode, s);
  RunOutcome out;
  while (coro.step()) ++out.steps;
  ++out.steps;  // the final step
  out.end = sys.now();
  out.digest = sys.events().digest(sys.now());
  out.checksum = coro.report().checksum;
  return out;
}

/// The same run snapshotted after \p cut steps, restored into a fresh
/// System (the donor is destroyed before the continuation), and finished
/// there. Bit-identical to run_straight or the bench fails.
RunOutcome run_interrupted(const StepApp& app, apps::MemMode mode, bs::Scale s,
                           int cut) {
  auto sys = std::make_unique<core::System>(app.config());
  auto rt = std::make_unique<runtime::Runtime>(*sys);
  apps::AppCoro coro = app.steps(*rt, mode, s);

  bool alive = true;
  for (int i = 0; i < cut && alive; ++i) alive = coro.step();

  RunOutcome out;
  const chk::Blob blob = chk::Snapshotter::snapshot(*sys);
  out.blob_bytes = blob.size();
  std::unique_ptr<core::System> restored =
      chk::Snapshotter::restore(blob, sys.get());
  rt->rebind(*restored);
  sys.reset();  // the donor dies; dangling pointers would surface here

  while (alive) alive = coro.step();
  out.end = restored->now();
  out.digest = restored->events().digest(restored->now());
  out.checksum = coro.report().checksum;
  return out;
}

struct MatrixCell {
  std::string app;
  std::string mode;
  double sim_ms = 0;
  int steps = 0;
  int cut = 0;
  double snap_kib = 0;
  bool repro_ok = false;
};

// ---------------------------------------------------------------------------
// Part B: crash scenarios under the co-scheduler.
// ---------------------------------------------------------------------------

core::SystemConfig scenario_config() {
  core::SystemConfig cfg = bs::rodinia_config(pagetable::kSystemPage64K, false);
  cfg.event_log = true;
  return cfg;
}

tenant::JobSpec victim_spec(bs::Scale s, std::uint64_t seed) {
  tenant::JobSpec spec;
  spec.name = "hotspot";
  spec.mode = apps::MemMode::kManaged;
  spec.footprint_bytes = 1ull << 20;
  spec.make = [s, seed](runtime::Runtime& rt) {
    apps::HotspotConfig h = bs::hotspot_config(s);
    h.seed = seed;
    return apps::hotspot_steps(rt, apps::MemMode::kManaged, h);
  };
  return spec;
}

/// A job that yields forever without touching the machine: zero simulated
/// progress per quantum, which is exactly what the stall watchdog hunts.
apps::AppCoro stuck_steps(runtime::Runtime&) {
  for (;;) co_yield 0;
}

tenant::JobSpec stuck_spec() {
  tenant::JobSpec spec;
  spec.name = "stuck";
  spec.footprint_bytes = 0;
  spec.make = [](runtime::Runtime& rt) { return stuck_steps(rt); };
  return spec;
}

/// Simulated end time of the victim run solo and crash-free — crash
/// schedules aim at fractions of this.
sim::Picos solo_end_time(bs::Scale s) {
  core::System sys{scenario_config()};
  tenant::Scheduler sched{sys, {}};
  (void)sched.submit(victim_spec(s, 42));
  sched.run_all();
  return sys.now();
}

/// Reference checksums from a crash-free co-run of victim + sibling under
/// the same recovery-enabled scheduler config.
std::pair<std::uint64_t, std::uint64_t> clean_corun(bs::Scale s) {
  core::System sys{scenario_config()};
  tenant::SchedulerConfig scfg;
  scfg.recovery.enabled = true;
  tenant::Scheduler sched{sys, scfg};
  (void)sched.submit(victim_spec(s, 42));
  (void)sched.submit(victim_spec(s, 43));
  sched.run_all();
  return {sched.job(1).report.checksum, sched.job(2).report.checksum};
}

struct ScenarioOutcome {
  std::string outcome;  ///< "replayed" | "unrecoverable" | something wrong
  std::uint32_t restarts = 0;
  double replayed_ms = 0;
  sim::Picos end = 0;
  std::uint64_t digest = 0;
  bool victim_ok = false;
  bool sibling_ok = false;
};

struct Scenario {
  std::string name;
  std::function<ScenarioOutcome()> run;
};

std::string status_or_state(const tenant::Job& j) {
  if (j.state == tenant::JobState::kFinished) return "finished";
  return std::string{"failed("} + std::string{to_string(j.status)} + ")";
}

/// Common driver: configure faults + recovery, co-run victim (+ optional
/// sibling), and classify what the ladder did to the victim.
ScenarioOutcome run_scenario(const fault::FaultConfig& faults,
                             const tenant::RecoveryConfig& recovery,
                             bs::Scale s, bool with_sibling, bool stuck_victim,
                             std::uint64_t clean_victim,
                             std::uint64_t clean_sibling) {
  core::SystemConfig cfg = scenario_config();
  cfg.faults = faults;
  cfg.faults.enabled = true;
  core::System sys{cfg};
  tenant::SchedulerConfig scfg;
  scfg.recovery = recovery;
  scfg.recovery.enabled = true;
  tenant::Scheduler sched{sys, scfg};
  tenant::TenantId victim = tenant::kNoTenant;
  tenant::TenantId sibling = tenant::kNoTenant;
  (void)sched.submit(stuck_victim ? stuck_spec() : victim_spec(s, 42), &victim);
  if (with_sibling) (void)sched.submit(victim_spec(s, 43), &sibling);
  sched.run_all();  // bounded by the watchdog + restart budget: never hangs

  const tenant::Job& j = sched.job(victim);
  ScenarioOutcome out;
  out.restarts = j.restarts;
  out.replayed_ms = sim::to_milliseconds(j.replayed);
  out.end = sys.now();
  out.digest = sys.events().digest(sys.now());
  if (j.state == tenant::JobState::kFinished) {
    out.outcome = j.restarts > 0 ? "replayed" : "finished";
    out.victim_ok = !stuck_victim && j.report.checksum == clean_victim &&
                    j.restarts > 0 && j.replayed > 0;
  } else {
    out.outcome = status_or_state(j);
    // Graceful failure: the terminal status must be the attributed
    // escalation, never a hang or a raw crash code.
    out.victim_ok = j.status == Status::kErrorUnrecoverable;
  }
  if (with_sibling) {
    const tenant::Job& sib = sched.job(sibling);
    out.sibling_ok = sib.state == tenant::JobState::kFinished &&
                     sib.report.checksum == clean_sibling;
  } else {
    out.sibling_ok = true;  // solo scenario
  }
  return out;
}

struct ScenarioCell {
  std::string name;
  std::string outcome;
  std::uint32_t restarts = 0;
  double replayed_ms = 0;
  bool victim_ok = false;
  bool sibling_ok = false;
  bool repro_ok = false;
};

}  // namespace

int main(int argc, char** argv) {
  bs::Scale scale = bs::Scale::kDefault;
  std::string out_path = "BENCH_recovery.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      scale = bs::Scale::kSmall;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out <file>]\n", argv[0]);
      return 2;
    }
  }

  bs::print_figure_header(
      "Recovery", "checkpoint/restore equivalence and the crash ladder",
      "a run snapshotted mid-flight and restored into a fresh machine is "
      "bit-identical to an uninterrupted one; injected crashes end replayed "
      "or failed-with-attribution, with co-tenants unharmed");

  std::size_t failures = 0;

  // -- Part A ---------------------------------------------------------------
  std::printf("restore equivalence (snapshot at steps/2, donor destroyed)\n");
  std::printf("%-12s %-9s %10s %6s %5s %9s %6s\n", "app", "mode", "sim_ms",
              "steps", "cut", "snap_kib", "repro");
  std::vector<MatrixCell> matrix;
  for (const StepApp& app : step_apps()) {
    for (apps::MemMode mode : {apps::MemMode::kExplicit, apps::MemMode::kManaged,
                               apps::MemMode::kSystem}) {
      const RunOutcome straight = run_straight(app, mode, scale);
      const int cut = straight.steps / 2 > 0 ? straight.steps / 2 : 1;
      const RunOutcome resumed = run_interrupted(app, mode, scale, cut);
      MatrixCell c;
      c.app = app.name;
      c.mode = std::string{to_string(mode)};
      c.sim_ms = sim::to_milliseconds(straight.end);
      c.steps = straight.steps;
      c.cut = cut;
      c.snap_kib = static_cast<double>(resumed.blob_bytes) / 1024.0;
      c.repro_ok = resumed.end == straight.end &&
                   resumed.digest == straight.digest &&
                   resumed.checksum == straight.checksum;
      if (!c.repro_ok) {
        ++failures;
        std::fprintf(stderr,
                     "  [%s/%s] DIVERGED: end %lld vs %lld, digest %016llx vs "
                     "%016llx, checksum %016llx vs %016llx\n",
                     c.app.c_str(), c.mode.c_str(),
                     static_cast<long long>(resumed.end),
                     static_cast<long long>(straight.end),
                     static_cast<unsigned long long>(resumed.digest),
                     static_cast<unsigned long long>(straight.digest),
                     static_cast<unsigned long long>(resumed.checksum),
                     static_cast<unsigned long long>(straight.checksum));
      }
      std::printf("%-12s %-9s %10.3f %6d %5d %9.1f %6s\n", c.app.c_str(),
                  c.mode.c_str(), c.sim_ms, c.steps, c.cut, c.snap_kib,
                  c.repro_ok ? "ok" : "FAIL");
      std::printf("data\trestore\t%s\t%s\t%.4f\t%d\t%d\t%.1f\t%d\n",
                  c.app.c_str(), c.mode.c_str(), c.sim_ms, c.steps, c.cut,
                  c.snap_kib, c.repro_ok ? 1 : 0);
      matrix.push_back(std::move(c));
    }
  }

  // -- Part B ---------------------------------------------------------------
  const sim::Picos solo = solo_end_time(scale);
  const sim::Picos mid = solo / 2;
  const auto [clean_victim, clean_sibling] = clean_corun(scale);

  std::vector<Scenario> scenarios;
  scenarios.push_back({"gpu_reset_replay", [&] {
                         fault::FaultConfig f;
                         f.gpu_resets = {{.time = mid}};
                         tenant::RecoveryConfig r;
                         r.max_restarts = 2;
                         return run_scenario(f, r, scale, true, false,
                                             clean_victim, clean_sibling);
                       }});
  scenarios.push_back({"gpu_reset_budget", [&] {
                         fault::FaultConfig f;
                         // One reset per incarnation, spaced tighter than any
                         // incarnation's time to completion.
                         f.gpu_resets = {{.time = mid},
                                         {.time = mid + mid / 4},
                                         {.time = mid + mid / 2},
                                         {.time = mid + (3 * mid) / 4},
                                         {.time = mid + mid}};
                         tenant::RecoveryConfig r;
                         r.max_restarts = 2;
                         return run_scenario(f, r, scale, true, false,
                                             clean_victim, clean_sibling);
                       }});
  scenarios.push_back({"ecc_storm", [&] {
                         fault::FaultConfig f;
                         // Second retirement blows the 3 MiB budget: the
                         // device is dying, the escalation is terminal and
                         // no restart is attempted. Solo by design — frame
                         // retirement is device-global, so whichever tenant
                         // is executing would absorb the storm.
                         f.ecc_events = {{.time = mid / 2},
                                         {.time = mid}};
                         f.ecc_retirement_budget = 3ull << 20;
                         tenant::RecoveryConfig r;
                         r.max_restarts = 2;
                         return run_scenario(f, r, scale, false, false,
                                             clean_victim, clean_sibling);
                       }});
  scenarios.push_back({"watchdog_stall", [&] {
                         fault::FaultConfig f;
                         tenant::RecoveryConfig r;
                         r.max_restarts = 1;
                         r.stall_quanta = 4;
                         return run_scenario(f, r, scale, true, true,
                                             clean_victim, clean_sibling);
                       }});

  std::printf("\ncrash scenarios (recovery ladder on, co-tenant checked)\n");
  std::printf("%-17s %-22s %8s %11s %7s %8s %6s\n", "scenario", "outcome",
              "restarts", "replayed_ms", "victim", "sibling", "repro");
  std::vector<ScenarioCell> cells;
  for (const Scenario& sc : scenarios) {
    const ScenarioOutcome a = sc.run();
    const ScenarioOutcome b = sc.run();  // determinism: same crash, same story
    ScenarioCell c;
    c.name = sc.name;
    c.outcome = a.outcome;
    c.restarts = a.restarts;
    c.replayed_ms = a.replayed_ms;
    c.victim_ok = a.victim_ok;
    c.sibling_ok = a.sibling_ok;
    c.repro_ok = a.end == b.end && a.digest == b.digest &&
                 a.outcome == b.outcome && a.restarts == b.restarts;
    if (!c.victim_ok || !c.sibling_ok || !c.repro_ok) {
      ++failures;
      std::fprintf(stderr, "  [%s] victim=%s sibling=%s repro=%s outcome=%s\n",
                   c.name.c_str(), c.victim_ok ? "ok" : "FAIL",
                   c.sibling_ok ? "ok" : "FAIL", c.repro_ok ? "ok" : "FAIL",
                   c.outcome.c_str());
    }
    std::printf("%-17s %-22s %8u %11.3f %7s %8s %6s\n", c.name.c_str(),
                c.outcome.c_str(), c.restarts, c.replayed_ms,
                c.victim_ok ? "ok" : "FAIL", c.sibling_ok ? "ok" : "FAIL",
                c.repro_ok ? "ok" : "FAIL");
    std::printf("data\tscenario\t%s\t%s\t%u\t%.4f\t%d\t%d\t%d\n",
                c.name.c_str(), c.outcome.c_str(), c.restarts, c.replayed_ms,
                c.victim_ok ? 1 : 0, c.sibling_ok ? 1 : 0, c.repro_ok ? 1 : 0);
    cells.push_back(std::move(c));
  }

  if (!bs::write_artifact(out_path, [&](std::FILE* f) {
        std::fprintf(f, "{\n  \"bench\": \"recovery\",\n  \"scale\": \"%s\",\n",
                     scale == bs::Scale::kSmall ? "small" : "default");
        std::fprintf(f, "  \"restore_matrix\": [\n");
        for (std::size_t i = 0; i < matrix.size(); ++i) {
          const MatrixCell& c = matrix[i];
          std::fprintf(f,
                       "    {\"app\": \"%s\", \"mode\": \"%s\", \"sim_ms\": %.4f, "
                       "\"steps\": %d, \"cut\": %d, \"snap_kib\": %.1f, "
                       "\"repro_ok\": %s}%s\n",
                       c.app.c_str(), c.mode.c_str(), c.sim_ms, c.steps, c.cut,
                       c.snap_kib, c.repro_ok ? "true" : "false",
                       i + 1 < matrix.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n  \"scenarios\": [\n");
        for (std::size_t i = 0; i < cells.size(); ++i) {
          const ScenarioCell& c = cells[i];
          std::fprintf(f,
                       "    {\"scenario\": \"%s\", \"outcome\": \"%s\", "
                       "\"restarts\": %u, \"replayed_ms\": %.4f, "
                       "\"victim_ok\": %s, \"sibling_ok\": %s, \"repro_ok\": %s}%s\n",
                       c.name.c_str(), c.outcome.c_str(), c.restarts, c.replayed_ms,
                       c.victim_ok ? "true" : "false",
                       c.sibling_ok ? "true" : "false",
                       c.repro_ok ? "true" : "false",
                       i + 1 < cells.size() ? "," : "");
        }
        std::fprintf(f, "  ],\n");
        bs::json_tail(f, failures);
      })) {
    return 1;
  }

  return bs::verdict("recovery", failures);
}
