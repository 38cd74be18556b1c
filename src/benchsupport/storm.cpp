#include "benchsupport/storm.hpp"

#include <algorithm>
#include <cstring>
#include <functional>
#include <string>
#include <utility>

#include "benchsupport/report.hpp"
#include "tenant/scheduler.hpp"

namespace ghum::benchsupport::storm {

bool parse_cli(int argc, char** argv, Scale& scale, std::string& out,
               std::string* trace) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      scale = Scale::kSmall;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (trace != nullptr && std::strcmp(argv[i], "--trace") == 0 &&
               i + 1 < argc) {
      *trace = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out <file>]%s\n", argv[0],
                   trace != nullptr ? " [--trace <file>]" : "");
      return false;
    }
  }
  return true;
}

core::SystemConfig node_config() {
  core::SystemConfig cfg = rodinia_config(pagetable::kSystemPage64K, false);
  cfg.event_log = true;
  return cfg;
}

std::vector<fleet::JobTemplate> catalog(Scale s) {
  const apps::MemMode m = apps::MemMode::kManaged;
  std::vector<fleet::JobTemplate> out;
  const auto add = [&](std::string name, std::uint64_t footprint,
                       std::function<apps::AppCoro(runtime::Runtime&)> make) {
    fleet::JobTemplate t;
    t.name = std::move(name);
    t.mode = m;
    t.make = std::move(make);
    t.footprint_bytes = footprint;
    out.push_back(std::move(t));
  };
  add("hotspot", 2ull << 20, [s, m](runtime::Runtime& rt) {
    return apps::hotspot_steps(rt, m, hotspot_config(s));
  });
  add("pathfinder", 1ull << 20, [s, m](runtime::Runtime& rt) {
    return apps::pathfinder_steps(rt, m, pathfinder_config(s));
  });
  add("needle", 4ull << 20, [s, m](runtime::Runtime& rt) {
    return apps::needle_steps(rt, m, needle_config(s));
  });
  add("bfs", 2ull << 20, [s, m](runtime::Runtime& rt) {
    return apps::bfs_steps(rt, m, bfs_config(s));
  });
  add("srad", 4ull << 20, [s, m](runtime::Runtime& rt) {
    return apps::srad_steps(rt, m, srad_config(s));
  });
  add("qvsim", 8ull << 20, [s, m](runtime::Runtime& rt) {
    return apps::qvsim_steps(rt, m, qv_sim_config(s, 16));
  });
  return out;
}

void measure_solo(fleet::JobTemplate& t) {
  core::System sys{node_config()};
  tenant::SchedulerConfig scfg;
  scfg.policy = tenant::Policy::kFifo;
  tenant::Scheduler sched{sys, scfg};
  const auto spec = [&] {
    tenant::JobSpec s;
    s.name = t.name;
    s.mode = t.mode;
    s.make = t.make;
    s.footprint_bytes = t.footprint_bytes;
    return s;
  };
  tenant::TenantId first = tenant::kNoTenant;
  tenant::TenantId last = tenant::kNoTenant;
  (void)sched.submit(spec(), &first);
  (void)sched.submit(spec(), nullptr);
  (void)sched.submit(spec(), &last);
  sched.run_all();
  t.solo_checksum = sched.job(first).report.checksum;
  t.est_cost = std::max<sim::Picos>(
      1, (sched.job(last).finished_at - sched.job(first).finished_at) / 2);
}

Storm build(Scale s) {
  Storm st;
  st.scale = s;
  st.templates = catalog(s);
  std::printf("solo reference runs\n");
  std::printf("%-12s %12s %12s %18s\n", "app", "cost_ms", "foot_mib",
              "solo_checksum");
  sim::Picos mean_cost = 0;
  for (fleet::JobTemplate& t : st.templates) {
    measure_solo(t);
    mean_cost += t.est_cost;
    std::printf("%-12s %12.3f %12.1f   %016llx\n", t.name.c_str(),
                sim::to_milliseconds(t.est_cost),
                static_cast<double>(t.footprint_bytes) / (1 << 20),
                static_cast<unsigned long long>(t.solo_checksum));
  }
  mean_cost /= static_cast<sim::Picos>(st.templates.size());

  // Open-loop arrival stream: offered load ~1.0 of the 4-node fleet, so
  // nodes stay busy (faults catch jobs mid-flight) and losing half the
  // fleet mid-storm overloads the survivors — the admission controller
  // has real work to do.
  fleet::ArrivalConfig& acfg = st.arrivals;
  acfg.count = s == Scale::kSmall ? 48 : 240;
  acfg.mean_interarrival = mean_cost / 4;
  acfg.priority_classes = 3;
  acfg.class_weights = {1, 2, 3};
  acfg.deadline_floor = sim::milliseconds(64);
  acfg.top_replicas = 2;
  st.requests = fleet::generate_arrivals(acfg, st.templates);
  st.horizon = acfg.mean_interarrival * static_cast<sim::Picos>(acfg.count);

  // Kill node 1, degrade node 0 (live migration to the spare), kill
  // node 2 — survivors are node 3 and the migrated spare.
  fleet::FleetConfig& fcfg = st.fleet;
  fcfg.nodes = 4;
  fcfg.spares = 1;
  fcfg.node_config = node_config();
  fcfg.scheduler.policy = tenant::Policy::kPriority;
  fcfg.placement = fleet::PlacementPolicy::kLoadBalance;
  fcfg.node_footprint_budget = 24ull << 20;
  fcfg.shed_protect_classes = 1;
  fcfg.replace_max_retries = 6;
  fcfg.replace_backoff = sim::milliseconds(2);
  fcfg.faults.node_loss = {{.time = (st.horizon * 3) / 10, .node = 1},
                           {.time = (st.horizon * 7) / 10, .node = 2}};
  fcfg.faults.node_degrade = {
      {.time = st.horizon / 2, .node = 0, .slow_factor = 4}};
  fcfg.faults.evacuate_degraded = true;
  return st;
}

Outcome harvest(fleet::Controller& ctl, std::uint32_t classes) {
  Outcome o;
  o.digest = ctl.digest();
  for (const fleet::FleetJob& j : ctl.jobs()) {
    if (j.state == fleet::FleetJobState::kFinished) {
      ++o.finished;
      if (j.migrated) ++o.migrated;
      if (j.replayed_after_loss) ++o.replayed;
      if (j.checksum != ctl.templates()[j.req.tmpl].solo_checksum) {
        ++o.checksum_mismatches;
      }
    } else if (j.state == fleet::FleetJobState::kFailed) {
      ++o.failed;
    }
    o.makespan = std::max(o.makespan, j.finished_at);
  }
  for (std::uint32_t c = 0; c < classes; ++c) {
    o.classes.push_back(ctl.slo_summary(c));
  }
  o.nodes = ctl.node_status();
  obs::MetricsRegistry& m = ctl.metrics();
  o.shed = m.counter("ghum_fleet_shed_total").value();
  o.node_losses = m.counter("ghum_fleet_node_losses_total").value();
  o.evacuations = m.counter("ghum_fleet_evacuations_total").value();
  return o;
}

void print_top_violators(const fleet::Controller& ctl) {
  for (const fleet::FleetJob& j : ctl.jobs()) {
    if (!j.slo_violation || j.req.priority != 0) continue;
    std::printf("  violator job=%llu tmpl=%s arrival=%.3f placed=%.3f "
                "finished=%.3f deadline=%.3f state=%s status=%s "
                "placements=%u losses=%u%s%s\n",
                static_cast<unsigned long long>(j.req.id),
                ctl.templates()[j.req.tmpl].name.c_str(),
                sim::to_milliseconds(j.req.arrival),
                sim::to_milliseconds(j.first_placed_at),
                sim::to_milliseconds(j.finished_at),
                sim::to_milliseconds(j.req.deadline),
                std::string{to_string(j.state)}.c_str(),
                std::string{to_string(j.status)}.c_str(), j.placements,
                j.loss_attempts, j.migrated ? " migrated" : "",
                j.replayed_after_loss ? " replayed" : "");
  }
}

void print_outcome(const Outcome& o) {
  std::printf("\n%-7s %9s %9s %7s %10s %10s %10s %10s\n", "class", "submit",
              "finish", "fail", "violations", "p50_ms", "p95_ms", "p99_ms");
  for (const fleet::SloSummary& c : o.classes) {
    std::printf("%-7u %9llu %9llu %7llu %10llu %10.3f %10.3f %10.3f\n",
                c.priority, static_cast<unsigned long long>(c.submitted),
                static_cast<unsigned long long>(c.finished),
                static_cast<unsigned long long>(c.failed),
                static_cast<unsigned long long>(c.violations),
                sim::to_milliseconds(c.p50), sim::to_milliseconds(c.p95),
                sim::to_milliseconds(c.p99));
    std::printf("data\tslo\t%u\t%llu\t%llu\t%llu\t%llu\n", c.priority,
                static_cast<unsigned long long>(c.submitted),
                static_cast<unsigned long long>(c.finished),
                static_cast<unsigned long long>(c.failed),
                static_cast<unsigned long long>(c.violations));
  }
  std::printf("\nnodes after the storm\n");
  for (const fleet::NodeStatus& n : o.nodes) {
    std::printf("  node %u: %-8s local_now=%.3f ms live=%u%s\n", n.id,
                std::string{to_string(n.state)}.c_str(),
                sim::to_milliseconds(n.local_now), n.live_jobs,
                n.suspected ? " SUSPECTED" : "");
  }
  std::printf(
      "\nfinished=%llu failed=%llu shed=%llu migrated=%llu replayed=%llu\n",
      static_cast<unsigned long long>(o.finished),
      static_cast<unsigned long long>(o.failed),
      static_cast<unsigned long long>(o.shed),
      static_cast<unsigned long long>(o.migrated),
      static_cast<unsigned long long>(o.replayed));
}

void json_head(std::FILE* f, std::string_view bench, const Storm& st) {
  std::fprintf(f, "{\n  \"bench\": \"%.*s\",\n  \"scale\": \"%s\",\n",
               static_cast<int>(bench.size()), bench.data(),
               st.scale == Scale::kSmall ? "small" : "default");
  std::fprintf(f, "  \"requests\": %llu,\n",
               static_cast<unsigned long long>(st.arrivals.count));
}

void json_totals(std::FILE* f, const Outcome& o) {
  json_counts(f, {{"finished", o.finished},
                  {"failed", o.failed},
                  {"shed", o.shed},
                  {"migrated", o.migrated},
                  {"replayed_after_loss", o.replayed}});
}

void json_slo(std::FILE* f, const Outcome& o) {
  std::fprintf(f, "  \"makespan_ms\": %.4f,\n", sim::to_milliseconds(o.makespan));
  std::fprintf(f, "  \"classes\": [\n");
  for (std::size_t i = 0; i < o.classes.size(); ++i) {
    const fleet::SloSummary& c = o.classes[i];
    std::fprintf(f,
                 "    {\"class\": %u, \"submitted\": %llu, \"finished\": "
                 "%llu, \"failed\": %llu, \"violations\": %llu, "
                 "\"p50_ms\": %.4f, \"p95_ms\": %.4f, \"p99_ms\": %.4f}%s\n",
                 c.priority, static_cast<unsigned long long>(c.submitted),
                 static_cast<unsigned long long>(c.finished),
                 static_cast<unsigned long long>(c.failed),
                 static_cast<unsigned long long>(c.violations),
                 sim::to_milliseconds(c.p50), sim::to_milliseconds(c.p95),
                 sim::to_milliseconds(c.p99),
                 i + 1 < o.classes.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
}

}  // namespace ghum::benchsupport::storm
