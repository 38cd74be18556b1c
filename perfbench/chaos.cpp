// fleet-chaos: the bench_chaosnet storm scaled to 128 nodes plus 1 spare.
// A lossy fabric (drops, corruptions, duplicates, reorders, and the first
// evacuation blob corrupted end-to-end), heartbeat failure detection, the
// obs flight recorder and alert rules, two silent node deaths and one
// degrade with evacuation, serving 256 requests over the six-template
// managed-mode catalog at Scale::kSmall. One unit is one request brought
// to a terminal state by Controller::run. Set-up is the solo calibration
// runs, arrival generation and Controller construction; every batch needs
// its own Controller, so every batch is preceded by a set-up.
//
// Each run cycles through kInputSets input sets (app seeds, arrival and
// message-fault streams) derived from the workload seed, one per batch,
// and runs every set at least once: a set's host time and peak memory
// move from seed to seed, and a run spreads that over the sets.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "benchsupport/scenarios.hpp"
#include "fleet/arrival.hpp"
#include "fleet/controller.hpp"
#include "tenant/scheduler.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace ghum;
namespace bs = benchsupport;

core::SystemConfig node_config() {
  core::SystemConfig cfg = bs::rodinia_config(pagetable::kSystemPage64K, false);
  cfg.event_log = true;
  return cfg;
}

/// The six-app managed-mode catalog of bench_chaosnet, with app input
/// seeds derived from the workload seed.
std::vector<fleet::JobTemplate> catalog(std::uint64_t seed) {
  const bs::Scale s = bs::Scale::kSmall;
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
  apps::HotspotConfig hotspot = bs::hotspot_config(s);
  hotspot.seed = derive_seed(seed, 100);
  add("hotspot", 2ull << 20, [=](runtime::Runtime& rt) { return apps::hotspot_steps(rt, m, hotspot); });
  apps::PathfinderConfig pathfinder = bs::pathfinder_config(s);
  pathfinder.seed = derive_seed(seed, 101);
  add("pathfinder", 1ull << 20,
      [=](runtime::Runtime& rt) { return apps::pathfinder_steps(rt, m, pathfinder); });
  apps::NeedleConfig needle = bs::needle_config(s);
  needle.seed = derive_seed(seed, 102);
  add("needle", 4ull << 20, [=](runtime::Runtime& rt) { return apps::needle_steps(rt, m, needle); });
  apps::BfsConfig bfs = bs::bfs_config(s);
  bfs.seed = derive_seed(seed, 103);
  add("bfs", 2ull << 20, [=](runtime::Runtime& rt) { return apps::bfs_steps(rt, m, bfs); });
  apps::SradConfig srad = bs::srad_config(s);
  srad.seed = derive_seed(seed, 104);
  add("srad", 4ull << 20, [=](runtime::Runtime& rt) { return apps::srad_steps(rt, m, srad); });
  apps::QvConfig qv = bs::qv_sim_config(s, 16);
  qv.seed = derive_seed(seed, 105);
  add("qvsim", 8ull << 20, [=](runtime::Runtime& rt) { return apps::qvsim_steps(rt, m, qv); });
  return out;
}

/// bench_chaosnet's solo reference: checksum of the first uninterrupted
/// incarnation, predicted cost from the marginal second/third.
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

/// Drives \p inner step for step, timing each step as an apps.step span.
/// Yields exactly where \p inner yields and returns its report, so the
/// fleet sees the same job.
apps::AppCoro timed_steps(apps::AppCoro inner, SpanLog* log, std::uint64_t incarnation) {
  for (;;) {
    bool more = false;
    {
      Scope s{log, "apps.step", incarnation};
      more = inner.step();
    }
    if (!more) break;
    co_yield 0;
  }
  co_return std::move(inner.report());
}

fleet::FleetConfig fleet_config(std::uint64_t message_seed,
                                 const std::vector<fleet::JobRequest>& requests,
                                 sim::Picos mean_interarrival, std::uint32_t nodes) {
  const sim::Picos horizon = mean_interarrival * static_cast<sim::Picos>(requests.size());
  fleet::FleetConfig f;
  f.nodes = nodes;
  f.spares = 1;
  f.node_config = node_config();
  f.scheduler.policy = tenant::Policy::kPriority;
  f.placement = fleet::PlacementPolicy::kLoadBalance;
  f.node_footprint_budget = 24ull << 20;
  f.shed_protect_classes = 1;
  f.replace_max_retries = 6;
  f.replace_backoff = sim::milliseconds(2);
  f.faults.node_loss = {{.time = (horizon * 3) / 10, .node = 1},
                        {.time = (horizon * 7) / 10, .node = 2}};
  f.faults.node_degrade = {{.time = horizon / 2, .node = 0, .slow_factor = 4}};
  f.faults.evacuate_degraded = true;
  f.faults.messages.enabled = true;
  f.faults.messages.seed = message_seed;
  // A third of bench_chaosnet's loss rates. At its 3% drop / 2% corrupt,
  // 128 nodes miss ~10% of heartbeat edges each and some node is suspected
  // at nearly every edge, so the heartbeat watch never closes: with
  // bench_chaosnet's miss threshold of 4, live nodes are declared dead by
  // the dozen (28-61 per run, varying by seed); with 8 or 10, run() does not
  // return. Here a live node misses ~3% of edges.
  f.faults.messages.drop_prob = 0.01;
  f.faults.messages.corrupt_prob = 0.005;
  f.faults.messages.duplicate_prob = 0.005;
  f.faults.messages.reorder_prob = 0.005;
  f.faults.messages.e2e_corrupt_bulk = {0};
  f.faults.messages.bulk_threshold = 4096;
  f.heartbeat.enabled = true;
  // Twice bench_chaosnet's edge rate. After the last loss the controller
  // keeps probing while any live node is suspected, and at 128 nodes an
  // edge finds none suspected only a few percent of the time, so a run
  // ends after a geometric number of extra edges, each carrying the
  // recorder samples of one interval. At horizon / 128 (1024 samples per
  // edge) that tail made one input set's probes range from 12k to 38k and
  // its batch from 3.1 to 5.6 s, and one seed's run probe 36% more than
  // another's; horizon / 256 halves the cost of an edge. Shorter intervals
  // declare live nodes dead: misses come in bursts (a live node's longest
  // run of misses is 2-3 edges here and 4-5 at horizon / 512, where 6
  // happened).
  f.heartbeat.interval = std::max<sim::Picos>(sim::microseconds(50), horizon / 256);
  // Eight consecutive misses before a node is declared dead, well past
  // those bursts: no false deaths over the run.
  f.heartbeat.miss_threshold = 8;
  f.obs.enabled = true;
  // 256 times bench_chaosnet's sampling rate. The fleet's control plane,
  // fabric and detection cost ~4% of run() next to the app steps; sampling
  // this often brings the fleet's own share to about a third, so a change
  // in fleet, net or obs moves throughput. The ring bounds the memory.
  f.obs.cadence = std::max<sim::Picos>(1, mean_interarrival / 512);
  f.obs.ring_capacity = 8192;
  obs::AlertRule backlog;
  backlog.name = "fleet-backlog";
  backlog.instrument = "fleet.pending_jobs";
  backlog.predicate = obs::AlertPredicate::kAbove;
  backlog.threshold = 2;
  backlog.for_duration = f.obs.cadence;
  backlog.severity = obs::AlertSeverity::kWarning;
  obs::AlertRule retrans;
  retrans.name = "net-retransmit-storm";
  retrans.instrument = "fabric.retransmits";
  retrans.predicate = obs::AlertPredicate::kAbove;
  retrans.threshold = 0;
  retrans.for_duration = 0;
  retrans.severity = obs::AlertSeverity::kWarning;
  f.obs.alerts = {backlog, retrans};
  return f;
}

constexpr std::uint64_t kInputSets = 8;

/// Simulated results and counters of one Controller::run.
struct RunResult {
  std::uint64_t digest = 0;
  std::uint64_t finished = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  double makespan_ms = 0;
  double queue_wait_p99_us = 0;
  double job_latency_p99_us = 0;
  std::uint64_t hb_probes = 0, hb_misses = 0, placements = 0, replace_retries = 0,
                evacuations = 0, evac_rerequests = 0;
  std::uint64_t net_msgs = 0, net_bytes = 0;
  net::ReliableTotals net;
  std::uint64_t recorder_samples = 0, recorder_dropped = 0, alert_transitions = 0;
};

class Chaos final : public Workload {
 public:
  explicit Chaos(const Params& p)
      : p_(p), nodes_(p.small ? 8 : 128), requests_(p.small ? 48 : 256) {}

  int input_sets() const override { return kInputSets; }
  bool needs_setup() const override { return ctl_ == nullptr; }

  void setup(SpanLog* log) override {
    // A set-up repeated before the same batch replaces the last one's
    // Controller; tearing that down is not set-up work.
    const std::int64_t t0 = now_ns();
    ctl_.reset();
    untimed_ns_ += now_ns() - t0;
    Scope root{log, "bench.setup", setups_};
    set_ = batches_ % kInputSets;
    const std::uint64_t seed = derive_seed(p_.seed, 1000 + set_);
    templates_ = catalog(seed);
    sim::Picos mean_cost = 0;
    {
      Scope s{log, "apps.calibrate", 0};
      for (fleet::JobTemplate& t : templates_) {
        measure_solo(t);
        mean_cost += t.est_cost;
      }
    }
    mean_cost /= static_cast<sim::Picos>(templates_.size());
    fleet::ArrivalConfig acfg;
    {
      Scope s{log, "fleet.arrivals", 0};
      // bench_chaosnet's arrival process; the heartbeat interval and the
      // recorder cadence scale with it.
      acfg.seed = derive_seed(seed, 200);
      acfg.count = requests_;
      acfg.mean_interarrival = mean_cost / 4;
      acfg.priority_classes = 3;
      acfg.class_weights = {1, 2, 3};
      acfg.deadline_floor = sim::milliseconds(64);
      acfg.top_replicas = 2;
      requests_list_ = fleet::generate_arrivals(acfg, templates_);
    }
    std::vector<fleet::JobTemplate> served = templates_;
    if (log != nullptr) {
      for (fleet::JobTemplate& t : served) {
        t.make = [make = t.make, log, this](runtime::Runtime& rt) {
          return timed_steps(make(rt), log, incarnations_++);
        };
      }
    }
    Scope s{log, "fleet.build", 0};
    ctl_ = std::make_unique<fleet::Controller>(
        fleet_config(derive_seed(seed, 201), requests_list_, acfg.mean_interarrival, nodes_),
        std::move(served));
    ++setups_;
  }

  std::int64_t untimed_ns() override { return std::exchange(untimed_ns_, 0); }

  std::uint64_t run_batch(SpanLog* log) override {
    Scope root{log, "bench.batch", batches_};
    Scope s{log, "fleet.run", batches_};
    (void)ctl_->run(requests_list_);
    return requests_list_.size();
  }

  void check_batch(SpanLog* log) override {
    RunResult r = collect();
    std::uint64_t bad = 0;
    // Every request ends finished or failed, and a finished one carries
    // its template's solo checksum.
    for (const fleet::FleetJob& j : ctl_->jobs()) {
      std::uint64_t reference = templates_[j.req.tmpl].solo_checksum;
      if (p_.corrupt_reference) reference ^= 1;
      if (!j.terminal() ||
          (j.state == fleet::FleetJobState::kFinished && j.checksum != reference)) {
        ++bad;
      }
    }
    if (bad > 0) std::printf("fleet-chaos: %" PRIu64 " jobs unfinished or off their solo checksum\n", bad);
    attempted += requests_list_.size();
    if (r.finished + r.failed != requests_list_.size()) {
      std::printf("fleet-chaos: finished + failed != submitted\n");
      ++bad;
    }
    // Both silent deaths (nodes 1 and 2) are found through missed
    // heartbeats, and no live node is declared dead.
    obs::MetricsRegistry& m = ctl_->metrics();
    const std::uint64_t detected = m.counter("ghum_fleet_detected_losses_total").value();
    const std::uint64_t losses = m.counter("ghum_fleet_node_losses_total").value();
    const std::vector<fleet::NodeStatus> nodes = ctl_->node_status();
    if (detected != 2 || losses != 2 || nodes[1].state != fleet::NodeState::kDead ||
        nodes[2].state != fleet::NodeState::kDead) {
      std::printf("fleet-chaos: %" PRIu64 " node losses, %" PRIu64
                  " detected; expected nodes 1 and 2 only\n",
                  losses, detected);
      ++bad;
    }
    // The storm is seeded: a batch reproduces the last one on its input set.
    if (batches_ < kInputSets) {
      digests_[set_] = r.digest;
    } else if (r.digest != digests_[set_]) {
      std::printf("fleet-chaos: batch %" PRIu64 " digest differs from input set %" PRIu64 "\n",
                  batches_, set_);
      ++bad;
    }
    failed += std::min<std::uint64_t>(bad, requests_list_.size());
    if (log != nullptr) traced_ = r;
    ++batches_;
    ctl_.reset();
  }

  /// The first two input sets' digests: every run has at least two
  /// batches.
  std::uint64_t digest() const override {
    return fnv_mix(fnv_mix(kFnvBasis, digests_[0]), digests_[1]);
  }

  void layer_metrics(const SpanLog& log, Metrics& m) const override {
    if (!traced_) return;
    const RunResult& r = *traced_;
    m["sim.digest"] = static_cast<double>(digest() & kDigestMask);
    m["sim.makespan_ms"] = r.makespan_ms;
    m["sim.sim_s"] = r.makespan_ms / 1e3;
    m["tenant.queue_wait_us.p99"] = r.queue_wait_p99_us;
    m["fleet.job_latency_us.p99"] = r.job_latency_p99_us;
    m["fleet.finished"] = static_cast<double>(r.finished);
    m["fleet.failed"] = static_cast<double>(r.failed);
    m["fleet.shed"] = static_cast<double>(r.shed);
    m["fleet.heartbeat_probes"] = static_cast<double>(r.hb_probes);
    m["fleet.heartbeat_misses"] = static_cast<double>(r.hb_misses);
    m["fleet.placements"] = static_cast<double>(r.placements);
    m["fleet.replacement_retries"] = static_cast<double>(r.replace_retries);
    m["fleet.evacuations"] = static_cast<double>(r.evacuations);
    m["chk.evac_rerequests"] = static_cast<double>(r.evac_rerequests);
    m["net.msgs"] = static_cast<double>(r.net_msgs);
    m["net.bytes"] = static_cast<double>(r.net_bytes);
    m["net.retransmits"] = static_cast<double>(r.net.retransmits);
    m["net.recovered_sends"] = static_cast<double>(r.net.recovered_sends);
    m["net.exhausted"] = static_cast<double>(r.net.exhausted);
    const double attempts = static_cast<double>(r.net.sends + r.net.retransmits);
    m["net.goodput_ratio"] =
        attempts > 0 ? static_cast<double>(r.net.sends - r.net.exhausted) / attempts : 0;
    m["obs.recorder_samples"] = static_cast<double>(r.recorder_samples);
    m["obs.recorder_dropped"] = static_cast<double>(r.recorder_dropped);
    m["obs.alert_transitions"] = static_cast<double>(r.alert_transitions);

    // Host time per Controller::run, split into app steps and the fleet's
    // own work (control plane, fabric, detection, recorder).
    const std::vector<double> runs = durations(log, "fleet.run");
    double steps = 0;
    for (const double d : durations(log, "apps.step")) steps += d;
    // Calibration steps are not wrapped; every apps.step span is inside a run.
    const double run_s = mean(runs);
    const double step_s = runs.empty() ? 0 : steps / static_cast<double>(runs.size());
    m["fleet.run_s"] = run_s;
    m["apps.step_s"] = step_s;
    m["fleet.self_s"] = run_s - step_s;
    m["fleet.self_share"] = run_s > 0 ? (run_s - step_s) / run_s : 0;
    m["fleet.build_s"] = median(durations(log, "fleet.build"));
  }

 private:
  RunResult collect() {
    RunResult r;
    r.digest = ctl_->digest();
    net::Fabric* fab = ctl_->fabric();
    r.digest = fnv_mix(r.digest, fab->digest());
    if (const obs::AlertEngine* ae = ctl_->alert_engine()) {
      for (const obs::AlertEvent& e : ae->events()) {
        r.digest = fnv_mix(r.digest, static_cast<std::uint64_t>(e.time));
        r.digest = fnv_mix(r.digest, (static_cast<std::uint64_t>(e.rule) << 1) | (e.open ? 1u : 0u));
      }
      r.alert_transitions = ae->events().size();
    }
    sim::Picos makespan = 0;
    for (const fleet::FleetJob& j : ctl_->jobs()) {
      if (j.state == fleet::FleetJobState::kFinished) ++r.finished;
      if (j.state == fleet::FleetJobState::kFailed) ++r.failed;
      makespan = std::max(makespan, j.finished_at);
    }
    r.makespan_ms = sim::to_milliseconds(makespan);
    obs::MetricsRegistry& m = ctl_->metrics();
    r.shed = m.counter("ghum_fleet_shed_total").value();
    r.queue_wait_p99_us =
        static_cast<double>(histogram_family(m, "ghum_fleet_queue_wait_us").quantile_upper_bound(99));
    r.job_latency_p99_us =
        static_cast<double>(histogram_family(m, "ghum_fleet_job_latency_us").quantile_upper_bound(99));
    r.hb_probes = m.counter("ghum_fleet_heartbeat_probes_total").value();
    r.hb_misses = m.counter("ghum_fleet_heartbeat_misses_total").value();
    r.placements = m.counter("ghum_fleet_placements_total").value();
    r.replace_retries = m.counter("ghum_fleet_replacement_retries_total").value();
    r.evacuations = m.counter("ghum_fleet_evacuations_total").value();
    r.evac_rerequests = m.counter("ghum_fleet_evac_rerequests_total").value();
    r.net_msgs = fab->totals().total_msgs();
    r.net_bytes = fab->totals().total_bytes();
    r.net = fab->reliable_totals();
    if (const obs::TimeSeries* ts = ctl_->recorder()) {
      r.recorder_samples = ts->size() * ts->series_count();
      r.recorder_dropped = ts->dropped() * ts->series_count();
    }
    return r;
  }

  Params p_;
  std::uint32_t nodes_;
  std::uint64_t requests_;
  std::vector<fleet::JobTemplate> templates_;
  std::vector<fleet::JobRequest> requests_list_;
  std::unique_ptr<fleet::Controller> ctl_;
  std::uint64_t setups_ = 0;
  std::uint64_t batches_ = 0;
  std::int64_t untimed_ns_ = 0;
  std::uint64_t incarnations_ = 0;
  std::uint64_t set_ = 0;  ///< input set of the batch being set up / run
  std::uint64_t digests_[kInputSets] = {};
  std::optional<RunResult> traced_;  ///< the last traced batch
};

}  // namespace

std::unique_ptr<Workload> make_chaos(const Params& p) { return std::make_unique<Chaos>(p); }

}  // namespace perfbench
