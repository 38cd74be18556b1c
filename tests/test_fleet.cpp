#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "apps/hotspot.hpp"
#include "benchsupport/storm.hpp"
#include "fleet/arrival.hpp"
#include "fleet/controller.hpp"
#include "sim/fnv.hpp"
#include "tenant/scheduler.hpp"

/// Fleet-controller tests (DESIGN.md Section 11): deterministic arrivals,
/// placement and anti-affinity, node-loss replay with bounded retries,
/// degrade-and-evacuate live migration, admission control (shed + deadline
/// expiry), SLO accounting, and the bit-for-bit digest contract.

namespace ghum {
namespace {

constexpr sim::Picos kFar = sim::milliseconds(10'000);

core::SystemConfig node_cfg() {
  core::SystemConfig cfg;
  cfg.system_page_size = pagetable::kSystemPage64K;
  cfg.hbm_capacity = 16ull << 20;
  cfg.ddr_capacity = 256ull << 20;
  cfg.gpu_driver_baseline = 1ull << 20;
  cfg.event_log = true;
  return cfg;
}

apps::HotspotConfig small_hotspot() {
  apps::HotspotConfig h;
  h.rows = 128;
  h.cols = 128;
  h.iterations = 3;
  return h;
}

struct Solo {
  sim::Picos end = 0;
  std::uint64_t checksum = 0;
};

/// Uninterrupted single-node, single-tenant reference run of the one job
/// template every fleet test uses (measured once, cached).
const Solo& solo() {
  static const Solo s = [] {
    core::System sys{node_cfg()};
    tenant::Scheduler sched{sys, {}};
    tenant::JobSpec spec;
    spec.name = "hotspot";
    spec.mode = apps::MemMode::kManaged;
    spec.footprint_bytes = 1ull << 20;
    spec.make = [](runtime::Runtime& rt) {
      return apps::hotspot_steps(rt, apps::MemMode::kManaged, small_hotspot());
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
    return apps::hotspot_steps(rt, apps::MemMode::kManaged, small_hotspot());
  };
  t.footprint_bytes = 1ull << 20;
  t.est_cost = solo().end;
  t.solo_checksum = solo().checksum;
  return {t};
}

fleet::FleetConfig small_fleet(std::uint32_t nodes, std::uint32_t spares = 0) {
  fleet::FleetConfig f;
  f.nodes = nodes;
  f.spares = spares;
  f.node_config = node_cfg();
  f.scheduler.policy = tenant::Policy::kPriority;
  return f;
}

fleet::JobRequest make_req(std::uint64_t id, sim::Picos arrival,
                           std::uint32_t priority = 0,
                           sim::Picos deadline = kFar,
                           std::uint32_t replicas = 1) {
  fleet::JobRequest r;
  r.id = id;
  r.arrival = arrival;
  r.tmpl = 0;
  r.priority = priority;
  r.deadline = deadline;
  r.replicas = replicas;
  return r;
}

// --- arrival process ---------------------------------------------------------

TEST(FleetArrival, SameConfigYieldsBitIdenticalStream) {
  fleet::ArrivalConfig a;
  a.seed = 7;
  a.count = 64;
  a.priority_classes = 3;
  a.class_weights = {1, 2, 3};
  a.deadline_floor = sim::microseconds(50);
  a.top_replicas = 2;
  const auto s1 = fleet::generate_arrivals(a, catalog());
  const auto s2 = fleet::generate_arrivals(a, catalog());
  ASSERT_EQ(s1.size(), 64u);
  ASSERT_EQ(s2.size(), 64u);
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].id, i);
    EXPECT_EQ(s1[i].arrival, s2[i].arrival);
    EXPECT_EQ(s1[i].tmpl, s2[i].tmpl);
    EXPECT_EQ(s1[i].priority, s2[i].priority);
    EXPECT_EQ(s1[i].deadline, s2[i].deadline);
    EXPECT_EQ(s1[i].replicas, s2[i].replicas);
    // Sorted by arrival, deadlines respect the floor, replicas only for
    // the top class.
    if (i > 0) {
      EXPECT_GE(s1[i].arrival, s1[i - 1].arrival);
    }
    EXPECT_LT(s1[i].priority, 3u);
    EXPECT_GE(s1[i].deadline, s1[i].arrival + a.deadline_floor);
    EXPECT_EQ(s1[i].replicas, s1[i].priority == 0 ? 2u : 1u);
  }
}

TEST(FleetArrival, RejectsEmptyTemplatesAndZeroWeights) {
  fleet::ArrivalConfig a;
  a.count = 4;
  EXPECT_THROW((void)fleet::generate_arrivals(a, {}), std::invalid_argument);
  a.priority_classes = 2;
  a.class_weights = {0, 0};
  EXPECT_THROW((void)fleet::generate_arrivals(a, catalog()),
               std::invalid_argument);
}

// --- controller construction and error surface -------------------------------

TEST(FleetController, ConstructorRejectsMalformedConfigs) {
  auto expect_invalid = [](auto&& build) {
    try {
      build();
      FAIL() << "malformed fleet config must throw";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status(), Status::kErrorInvalidValue);
    }
  };
  expect_invalid([] { fleet::Controller ctl{small_fleet(2), {}}; });
  expect_invalid([] { fleet::Controller ctl{small_fleet(0), catalog()}; });
  expect_invalid([] {
    auto f = small_fleet(2);
    f.faults.node_loss = {{.time = 0, .node = 5}};
    fleet::Controller ctl{f, catalog()};
  });
  expect_invalid([] {
    auto f = small_fleet(2);
    f.faults.node_degrade = {{.time = 0, .node = 0, .slow_factor = 0}};
    fleet::Controller ctl{f, catalog()};
  });
}

TEST(FleetController, RunIsOneShotAndErrorsAreStickyUntilRead) {
  fleet::Controller ctl{small_fleet(1), catalog()};
  // A request naming an unknown template is rejected and recorded.
  fleet::Controller bad{small_fleet(1), catalog()};
  auto alien = make_req(0, 0);
  alien.tmpl = 9;
  EXPECT_EQ(bad.run({alien}), Status::kErrorInvalidValue);
  EXPECT_EQ(bad.peek_last_error(), Status::kErrorInvalidValue);

  EXPECT_EQ(ctl.run({make_req(0, 0)}), Status::kSuccess);
  EXPECT_EQ(ctl.peek_last_error(), Status::kSuccess);
  // Second run: one-shot. get_last_error reads clear (sticky until read).
  EXPECT_EQ(ctl.run({make_req(1, 0)}), Status::kErrorInvalidValue);
  EXPECT_EQ(ctl.peek_last_error(), Status::kErrorInvalidValue);
  EXPECT_EQ(ctl.get_last_error(), Status::kErrorInvalidValue);
  EXPECT_EQ(ctl.get_last_error(), Status::kSuccess);
}

TEST(FleetController, RejectsArrivalsOutOfOrder) {
  // A request stream whose arrival times decrease would drive fleet time
  // backwards; it is rejected before anything runs, like an unknown
  // template. Equal arrival times are fine.
  fleet::Controller ctl{small_fleet(1), catalog()};
  EXPECT_EQ(ctl.run({make_req(0, 0), make_req(1, solo().end),
                     make_req(2, solo().end / 2)}),
            Status::kErrorInvalidValue);
  EXPECT_EQ(ctl.get_last_error(), Status::kErrorInvalidValue);
  EXPECT_EQ(ctl.metrics().counter("ghum_fleet_arrivals_total").value(), 0u);
  EXPECT_TRUE(ctl.jobs().empty());

  fleet::Controller ok{small_fleet(1), catalog()};
  EXPECT_EQ(ok.run({make_req(0, 0), make_req(1, 0)}), Status::kSuccess);
}

// --- placement and SLO accounting --------------------------------------------

TEST(FleetController, ServesRequestsMatchingSoloResults) {
  fleet::Controller ctl{small_fleet(2), catalog()};
  const std::vector<fleet::JobRequest> reqs = {
      make_req(0, 0), make_req(1, 0), make_req(2, 0), make_req(3, 0)};
  ASSERT_EQ(ctl.run(reqs), Status::kSuccess);

  for (const fleet::FleetJob& j : ctl.jobs()) {
    EXPECT_EQ(j.state, fleet::FleetJobState::kFinished);
    EXPECT_EQ(j.checksum, solo().checksum);
    EXPECT_FALSE(j.slo_violation);
    EXPECT_GE(j.latency, 0);
  }
  fleet::SloSummary s = ctl.slo_summary(0);
  EXPECT_EQ(s.submitted, 4u);
  EXPECT_EQ(s.finished, 4u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.violations, 0u);
  EXPECT_GT(s.p99, 0);
  EXPECT_LE(s.p50, s.p99);
  EXPECT_LE(s.p95, s.p99);

  const auto status = ctl.node_status();
  ASSERT_EQ(status.size(), 2u);
  for (const fleet::NodeStatus& n : status) {
    EXPECT_EQ(n.state, fleet::NodeState::kAlive);
    EXPECT_EQ(n.live_jobs, 0u);
    EXPECT_GT(n.local_now, 0);
  }
  EXPECT_EQ(ctl.metrics().counter("ghum_fleet_finished_total").value(), 4u);
  EXPECT_EQ(ctl.metrics().counter("ghum_fleet_node_losses_total").value(), 0u);
}

TEST(FleetController, IdenticalRunsProduceIdenticalDigests) {
  auto fleet_cfg = [] {
    auto f = small_fleet(2, 1);
    f.faults.node_loss = {{.time = solo().end, .node = 1}};
    f.faults.node_degrade = {
        {.time = 2 * solo().end, .node = 0, .slow_factor = 3}};
    return f;
  };
  fleet::ArrivalConfig a;
  a.count = 8;
  a.mean_interarrival = solo().end / 2;
  a.priority_classes = 2;
  a.deadline_floor = kFar;
  const auto reqs = fleet::generate_arrivals(a, catalog());

  fleet::Controller c1{fleet_cfg(), catalog()};
  fleet::Controller c2{fleet_cfg(), catalog()};
  ASSERT_EQ(c1.run(reqs), Status::kSuccess);
  ASSERT_EQ(c2.run(reqs), Status::kSuccess);
  EXPECT_EQ(c1.digest(), c2.digest());

  // A different stream lands on a different fingerprint.
  fleet::Controller c3{fleet_cfg(), catalog()};
  a.seed ^= 0xbeef;
  ASSERT_EQ(c3.run(fleet::generate_arrivals(a, catalog())), Status::kSuccess);
  EXPECT_NE(c1.digest(), c3.digest());
}

// --- fault domain ------------------------------------------------------------

TEST(FleetFault, NodeLossReplaysVictimsOnSurvivors) {
  auto f = small_fleet(2);
  f.faults.node_loss = {{.time = solo().end / 2, .node = 1}};
  fleet::Controller ctl{f, catalog()};
  ASSERT_EQ(ctl.run({make_req(0, 0), make_req(1, 0)}), Status::kSuccess);

  std::uint32_t replayed = 0;
  for (const fleet::FleetJob& j : ctl.jobs()) {
    EXPECT_EQ(j.state, fleet::FleetJobState::kFinished);
    EXPECT_EQ(j.checksum, solo().checksum);
    if (j.replayed_after_loss) {
      ++replayed;
      EXPECT_EQ(j.loss_attempts, 1u);
      EXPECT_EQ(j.placements, 2u);  // original + re-placement
    }
  }
  EXPECT_EQ(replayed, 1u);
  EXPECT_EQ(ctl.metrics().counter("ghum_fleet_node_losses_total").value(), 1u);
  EXPECT_GE(ctl.metrics().counter("ghum_fleet_replacement_retries_total").value(),
            1u);
  const auto status = ctl.node_status();
  EXPECT_EQ(status[1].state, fleet::NodeState::kDead);
  EXPECT_EQ(status[1].live_jobs, 0u);
  EXPECT_EQ(status[0].state, fleet::NodeState::kAlive);
}

TEST(FleetFault, LosingTheOnlyNodeExhaustsRetriesIntoNodeLost) {
  auto f = small_fleet(1);
  f.faults.node_loss = {{.time = solo().end / 2, .node = 0}};
  f.replace_max_retries = 2;
  f.replace_backoff = sim::microseconds(10);
  fleet::Controller ctl{f, catalog()};
  // Job 1 arrives after the fleet is gone: it is never replayed, so its
  // terminal cause is the deadline, not the loss.
  ASSERT_EQ(ctl.run({make_req(0, 0), make_req(1, 2 * solo().end)}),
            Status::kSuccess);

  const auto& jobs = ctl.jobs();
  EXPECT_EQ(jobs[0].state, fleet::FleetJobState::kFailed);
  EXPECT_EQ(jobs[0].status, Status::kErrorNodeLost);
  EXPECT_EQ(jobs[0].loss_attempts, 2u);
  EXPECT_EQ(jobs[1].state, fleet::FleetJobState::kFailed);
  EXPECT_EQ(jobs[1].status, Status::kErrorDeadlineExceeded);
  // Both failures were recorded on the sticky error surface.
  EXPECT_NE(ctl.get_last_error(), Status::kSuccess);
}

TEST(FleetFault, DegradeEvacuatesToSpareMidFlight) {
  auto f = small_fleet(1, 1);
  f.faults.node_degrade = {
      {.time = solo().end / 2, .node = 0, .slow_factor = 4}};
  fleet::Controller ctl{f, catalog()};
  ASSERT_EQ(ctl.run({make_req(0, 0)}), Status::kSuccess);

  const fleet::FleetJob& j = ctl.jobs()[0];
  EXPECT_EQ(j.state, fleet::FleetJobState::kFinished);
  EXPECT_EQ(j.checksum, solo().checksum);
  EXPECT_TRUE(j.migrated);
  EXPECT_FALSE(j.replayed_after_loss);

  const auto status = ctl.node_status();
  EXPECT_EQ(status[0].state, fleet::NodeState::kRetired);
  EXPECT_EQ(status[1].state, fleet::NodeState::kAlive);
  EXPECT_EQ(status[1].slow_factor, 1u);
  // The job finished on the spare, later than solo (transfer cost charged).
  EXPECT_GT(status[1].local_now, solo().end);
  EXPECT_EQ(ctl.metrics().counter("ghum_fleet_evacuations_total").value(), 1u);
  EXPECT_EQ(ctl.metrics().counter("ghum_fleet_migrated_jobs_total").value(), 1u);
  EXPECT_GT(ctl.metrics().counter("ghum_fleet_migrated_bytes_total").value(),
            0u);
}

TEST(FleetFault, DegradeWithoutSpareKeepsRunningSlow) {
  auto f = small_fleet(1, 0);
  f.faults.node_degrade = {
      {.time = solo().end / 2, .node = 0, .slow_factor = 4}};
  fleet::Controller ctl{f, catalog()};
  ASSERT_EQ(ctl.run({make_req(0, 0)}), Status::kSuccess);

  const fleet::FleetJob& j = ctl.jobs()[0];
  EXPECT_EQ(j.state, fleet::FleetJobState::kFinished);
  EXPECT_EQ(j.checksum, solo().checksum);
  EXPECT_FALSE(j.migrated);

  const auto status = ctl.node_status();
  EXPECT_EQ(status[0].state, fleet::NodeState::kDegraded);
  EXPECT_EQ(status[0].slow_factor, 4u);
  // Slow-factor dilation: the back half of the run took 4x as long.
  EXPECT_GT(status[0].local_now, solo().end);
  EXPECT_EQ(ctl.metrics().counter("ghum_fleet_evacuations_total").value(), 0u);
}

TEST(FleetFault, AntiAffinityReplicaSurvivesNodeLossWithoutReplay) {
  auto f = small_fleet(2);
  f.faults.node_loss = {{.time = solo().end / 2, .node = 1}};
  fleet::Controller ctl{f, catalog()};
  ASSERT_EQ(ctl.run({make_req(0, 0, 0, kFar, /*replicas=*/2)}),
            Status::kSuccess);

  const fleet::FleetJob& j = ctl.jobs()[0];
  EXPECT_EQ(j.placements, 2u);  // one replica per node (anti-affinity)
  EXPECT_EQ(j.state, fleet::FleetJobState::kFinished);
  EXPECT_EQ(j.checksum, solo().checksum);
  // The surviving replica carried the job: no replay, no retry spent.
  EXPECT_FALSE(j.replayed_after_loss);
  EXPECT_EQ(j.loss_attempts, 0u);
  EXPECT_EQ(ctl.metrics().counter("ghum_fleet_replacement_retries_total").value(),
            0u);
}

TEST(FleetFault, RedundantReplicaCompletionIsHarmless) {
  fleet::Controller ctl{small_fleet(2), catalog()};
  ASSERT_EQ(ctl.run({make_req(0, 0, 0, kFar, /*replicas=*/2)}),
            Status::kSuccess);
  const fleet::FleetJob& j = ctl.jobs()[0];
  EXPECT_EQ(j.placements, 2u);
  EXPECT_EQ(j.state, fleet::FleetJobState::kFinished);
  EXPECT_EQ(j.checksum, solo().checksum);
  EXPECT_EQ(ctl.metrics().counter("ghum_fleet_finished_total").value(), 1u);
}

// --- admission control -------------------------------------------------------

TEST(FleetAdmission, ShedDropsLowestPriorityAndNeverTheProtectedClass) {
  auto f = small_fleet(2);
  f.node_footprint_budget = 1ull << 20;  // one job per node
  f.shed_protect_classes = 1;
  f.faults.node_loss = {{.time = solo().end / 4, .node = 1}};
  fleet::Controller ctl{f, catalog()};
  const std::vector<fleet::JobRequest> reqs = {
      make_req(0, 0, 0), make_req(1, 0, 1), make_req(2, 0, 1),
      make_req(3, 0, 1), make_req(4, 0, 1)};
  ASSERT_EQ(ctl.run(reqs), Status::kSuccess);

  // The protected top-class job rode out the storm untouched.
  EXPECT_EQ(ctl.jobs()[0].state, fleet::FleetJobState::kFinished);
  EXPECT_EQ(ctl.jobs()[0].checksum, solo().checksum);
  // Losing half the fleet halved capacity: every unprotected pending job
  // was shed gracefully with the loss as its cause — the fleet never stalls.
  for (std::size_t i = 1; i < ctl.jobs().size(); ++i) {
    EXPECT_EQ(ctl.jobs()[i].state, fleet::FleetJobState::kFailed) << i;
    EXPECT_EQ(ctl.jobs()[i].status, Status::kErrorNodeLost) << i;
  }
  EXPECT_EQ(ctl.metrics().counter("ghum_fleet_shed_total").value(), 4u);
  fleet::SloSummary top = ctl.slo_summary(0);
  EXPECT_EQ(top.failed, 0u);
  EXPECT_EQ(top.violations, 0u);
}

TEST(FleetAdmission, OversizedJobFailsOutOfMemory) {
  auto f = small_fleet(1);
  f.node_footprint_budget = 512ull << 10;  // smaller than the template
  fleet::Controller ctl{f, catalog()};
  ASSERT_EQ(ctl.run({make_req(0, 0)}), Status::kSuccess);
  EXPECT_EQ(ctl.jobs()[0].state, fleet::FleetJobState::kFailed);
  EXPECT_EQ(ctl.jobs()[0].status, Status::kErrorOutOfMemory);
  EXPECT_EQ(ctl.peek_last_error(), Status::kErrorOutOfMemory);
}

TEST(FleetAdmission, PendingPastDeadlineExpiresInsteadOfStalling) {
  auto f = small_fleet(1);
  f.node_footprint_budget = 1ull << 20;  // one job at a time
  fleet::Controller ctl{f, catalog()};
  const std::vector<fleet::JobRequest> reqs = {
      make_req(0, 0, 0, kFar),
      // Unprotected, with a deadline that expires while job 0 still holds
      // the node.
      make_req(1, 0, 1, solo().end / 8),
      // A later arrival gives the controller a fleet event at which the
      // expiry check runs.
      make_req(2, solo().end / 2, 0, kFar)};
  ASSERT_EQ(ctl.run(reqs), Status::kSuccess);

  EXPECT_EQ(ctl.jobs()[0].state, fleet::FleetJobState::kFinished);
  EXPECT_EQ(ctl.jobs()[1].state, fleet::FleetJobState::kFailed);
  EXPECT_EQ(ctl.jobs()[1].status, Status::kErrorDeadlineExceeded);
  EXPECT_TRUE(ctl.jobs()[1].slo_violation);
  EXPECT_EQ(ctl.jobs()[2].state, fleet::FleetJobState::kFinished);
  fleet::SloSummary s = ctl.slo_summary(1);
  EXPECT_EQ(s.submitted, 1u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.violations, 1u);
}

// --- inter-node fabric -------------------------------------------------------

TEST(FleetNet, DefaultModeChargesControlAndDataThroughFabric) {
  auto f = small_fleet(2, 1);
  f.faults.node_degrade = {{.time = solo().end / 2, .node = 0, .slow_factor = 4}};
  fleet::Controller ctl{f, catalog()};
  ASSERT_NE(ctl.fabric(), nullptr);
  ASSERT_EQ(ctl.run({make_req(0, 0), make_req(1, 0)}), Status::kSuccess);

  const net::FabricTotals& tot = ctl.fabric()->totals();
  // 2 arrival notifications + 2 placement commands, eager-sized; plus one
  // evacuation blob, rendezvous-sized.
  EXPECT_GE(tot.total_msgs(), 5u);
  EXPECT_EQ(tot.msgs[static_cast<std::size_t>(net::Protocol::kRendezvous)], 1u);
  EXPECT_EQ(tot.rndv_handshakes, 1u);
  // The fabric's instruments live in the fleet registry.
  EXPECT_EQ(ctl.metrics()
                .counter("ghum_net_msgs_total", {{"proto", "rendezvous"}})
                .value(),
            1u);
}

TEST(FleetNet, BothModesAreDeterministic) {
  const std::vector<fleet::JobRequest> reqs = {
      make_req(0, 0), make_req(1, sim::microseconds(5)),
      make_req(2, sim::microseconds(9))};
  fleet::Controller a{small_fleet(2), catalog()};
  fleet::Controller b{small_fleet(2), catalog()};
  (void)a.run(reqs);
  (void)b.run(reqs);
  EXPECT_EQ(a.digest(), b.digest());
}

TEST(FleetNet, ConstructorRejectsBadNetSpecAndFlapWindows) {
  auto bad_spec = small_fleet(1);
  bad_spec.net.wire_bandwidth_Bps = -1.0;
  try {
    fleet::Controller ctl{bad_spec, catalog()};
    FAIL() << "malformed net spec must throw";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kErrorNetConfig);
  }

  auto bad_flap = small_fleet(2, 1);
  fault::LinkFlapWindow w;
  w.node_a = 7;  // 2 nodes + 1 spare: machine ids are 0..2
  bad_flap.faults.link_flap = {w};
  try {
    fleet::Controller ctl{bad_flap, catalog()};
    FAIL() << "flap window outside the fleet must throw";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kErrorInvalidValue);
  }
}

TEST(FleetNet, LinkFlapDelaysPlacementDelivery) {
  // A flap window open over the control link at t=0 dilates the placement
  // command, so the job starts (and finishes) later than without it.
  const auto makespan = [&](std::vector<fault::LinkFlapWindow> flaps) {
    auto f = small_fleet(1);
    f.faults.link_flap = std::move(flaps);
    fleet::Controller ctl{f, catalog()};
    (void)ctl.run({make_req(0, 0)});
    return ctl.jobs()[0].finished_at;
  };
  fault::LinkFlapWindow w;
  w.start = 0;
  w.duration = sim::milliseconds(1000);
  w.node_a = 0;  // everything touching node 0, incl. control -> node 0
  w.bandwidth_factor = 8.0;
  w.latency_factor = 8.0;
  const sim::Picos quiet = makespan({});
  const sim::Picos flapped = makespan({w});
  EXPECT_GT(flapped, quiet);
  EXPECT_EQ(makespan({w}), flapped);  // and deterministically so
}

// --- heartbeat failure detection (DESIGN.md Section 14) ----------------------

TEST(FleetDetect, ConstructorRejectsMalformedHeartbeatConfigs) {
  for (auto mutate : {+[](fleet::HeartbeatConfig& h) { h.interval = 0; },
                      +[](fleet::HeartbeatConfig& h) { h.miss_threshold = 0; },
                      +[](fleet::HeartbeatConfig& h) { h.heartbeat_bytes = 0; }}) {
    auto f = small_fleet(1);
    f.heartbeat.enabled = true;
    mutate(f.heartbeat);
    EXPECT_THROW((fleet::Controller{f, catalog()}), StatusError);
  }
}

TEST(FleetDetect, HeartbeatDetectsSilentDeathAndReplays) {
  auto f = small_fleet(2);
  f.heartbeat.enabled = true;
  f.heartbeat.interval = sim::microseconds(20);
  f.heartbeat.miss_threshold = 3;
  f.faults.node_loss = {{.time = solo().end / 2, .node = 1}};
  fleet::Controller ctl{f, catalog()};
  ASSERT_EQ(ctl.run({make_req(0, 0), make_req(1, 0)}), Status::kSuccess);

  // With detection on, the loss is a silent death: recovery still happens,
  // but only because the miss threshold declared the node dead.
  std::uint32_t replayed = 0;
  for (const fleet::FleetJob& j : ctl.jobs()) {
    EXPECT_EQ(j.state, fleet::FleetJobState::kFinished);
    EXPECT_EQ(j.checksum, solo().checksum);
    if (j.replayed_after_loss) ++replayed;
  }
  EXPECT_EQ(replayed, 1u);
  auto& m = ctl.metrics();
  EXPECT_EQ(m.counter("ghum_fleet_detected_losses_total").value(), 1u);
  EXPECT_EQ(m.counter("ghum_fleet_node_losses_total").value(), 1u);
  // The dead node walked the suspicion ladder: one suspect transition and
  // miss_threshold consecutive misses.
  EXPECT_GE(m.counter("ghum_fleet_heartbeat_suspects_total").value(), 1u);
  EXPECT_GE(m.counter("ghum_fleet_heartbeat_misses_total").value(), 3u);
  EXPECT_GE(m.counter("ghum_fleet_heartbeat_probes_total").value(), 3u);
  const auto status = ctl.node_status();
  EXPECT_EQ(status[1].state, fleet::NodeState::kDead);
  EXPECT_EQ(status[0].state, fleet::NodeState::kAlive);
  EXPECT_FALSE(status[0].suspected);
}

TEST(FleetDetect, SuspectedAliveNodeRejoinsWithoutDoublePlacement) {
  // Chaos clips enough heartbeats to raise false suspicions on live
  // nodes, but the miss threshold is high enough that only the genuinely
  // dead node (every edge missed) is ever declared lost.
  auto f = small_fleet(2);
  f.heartbeat.enabled = true;
  f.heartbeat.interval = sim::microseconds(20);
  f.heartbeat.miss_threshold = 6;
  f.faults.messages.enabled = true;
  f.faults.messages.drop_prob = 0.15;
  f.faults.node_loss = {{.time = solo().end, .node = 1}};
  fleet::Controller ctl{f, catalog()};
  ASSERT_EQ(ctl.run({make_req(0, 0), make_req(1, 0)}), Status::kSuccess);

  auto& m = ctl.metrics();
  // False positives were raised and cleared by on-time responses...
  EXPECT_GE(m.counter("ghum_fleet_heartbeat_suspects_total").value(), 2u);
  EXPECT_GE(m.counter("ghum_fleet_heartbeat_rejoins_total").value(), 1u);
  // ...and only the real death was ever declared.
  EXPECT_EQ(m.counter("ghum_fleet_detected_losses_total").value(), 1u);
  EXPECT_EQ(m.counter("ghum_fleet_node_losses_total").value(), 1u);
  for (const fleet::FleetJob& j : ctl.jobs()) {
    EXPECT_EQ(j.state, fleet::FleetJobState::kFinished);
    EXPECT_EQ(j.checksum, solo().checksum);
    // A suspected-but-alive node keeps its work: a rejoin never re-places
    // a running job (placements grow only through a real loss replay).
    if (!j.replayed_after_loss) {
      EXPECT_EQ(j.placements, 1u);
    }
  }
}

TEST(FleetDetect, ChaoticDetectionRunsAreDeterministic) {
  const auto drive = [] {
    auto f = small_fleet(2, 1);
    f.heartbeat.enabled = true;
    f.heartbeat.interval = sim::microseconds(20);
    f.heartbeat.miss_threshold = 6;
    f.faults.messages.enabled = true;
    f.faults.messages.drop_prob = 0.1;
    f.faults.messages.corrupt_prob = 0.05;
    f.faults.messages.duplicate_prob = 0.05;
    f.faults.node_loss = {{.time = solo().end / 2, .node = 1}};
    fleet::Controller ctl{f, catalog()};
    (void)ctl.run({make_req(0, 0), make_req(1, 0), make_req(2, 0)});
    return ctl.digest();
  };
  EXPECT_EQ(drive(), drive());
}

TEST(FleetDetect, DegradeOfUndetectedDeadNodeWaitsForDetection) {
  // The machine died silently just before its degrade fires: there is no
  // machine image to evacuate, so the degrade leaves the spare alone and
  // the heartbeat detector's loss ladder replays the node's job.
  const sim::Picos iv = sim::microseconds(20);
  auto f = small_fleet(2, 1);
  f.heartbeat.enabled = true;
  f.heartbeat.interval = iv;
  f.heartbeat.miss_threshold = 3;
  f.faults.node_loss = {{.time = solo().end / 2, .node = 1}};
  f.faults.node_degrade = {
      {.time = solo().end / 2 + iv / 2, .node = 1, .slow_factor = 2}};
  fleet::Controller ctl{f, catalog()};
  ASSERT_EQ(ctl.run({make_req(0, 0), make_req(1, 0)}), Status::kSuccess);
  for (const fleet::FleetJob& j : ctl.jobs()) {
    EXPECT_EQ(j.state, fleet::FleetJobState::kFinished);
    EXPECT_EQ(j.checksum, solo().checksum);
  }
  EXPECT_TRUE(ctl.jobs()[1].replayed_after_loss);
  auto& m = ctl.metrics();
  EXPECT_EQ(m.counter("ghum_fleet_evacuations_total").value(), 0u);
  EXPECT_EQ(m.counter("ghum_fleet_detected_losses_total").value(), 1u);
  const auto status = ctl.node_status();
  EXPECT_EQ(status[1].state, fleet::NodeState::kDead);
  EXPECT_EQ(status[2].state, fleet::NodeState::kSpare);
}

// --- evacuation-blob integrity ----------------------------------------------

TEST(FleetChk, CorruptEvacBlobIsReRequested) {
  auto f = small_fleet(1, 1);
  f.faults.node_degrade = {
      {.time = solo().end / 2, .node = 0, .slow_factor = 4}};
  // Schedule the first bulk reliable payload — the evacuation image — to
  // arrive corrupted end-to-end, past the link checksum.
  f.faults.messages.enabled = true;
  f.faults.messages.bulk_threshold = 4096;
  f.faults.messages.e2e_corrupt_bulk = {0};
  fleet::Controller ctl{f, catalog()};
  ASSERT_EQ(ctl.run({make_req(0, 0)}), Status::kSuccess);

  // The spare's digest check caught the corruption, the re-requested copy
  // arrived clean, and the migration completed mid-flight as usual.
  const fleet::FleetJob& j = ctl.jobs()[0];
  EXPECT_EQ(j.state, fleet::FleetJobState::kFinished);
  EXPECT_EQ(j.checksum, solo().checksum);
  EXPECT_TRUE(j.migrated);
  EXPECT_FALSE(j.replayed_after_loss);
  auto& m = ctl.metrics();
  EXPECT_EQ(m.counter("ghum_fleet_evac_corruptions_total").value(), 1u);
  EXPECT_EQ(m.counter("ghum_fleet_evac_rerequests_total").value(), 1u);
  EXPECT_EQ(m.counter("ghum_fleet_evac_replays_total").value(), 0u);
  EXPECT_EQ(m.counter("ghum_fleet_evacuations_total").value(), 1u);
  EXPECT_EQ(ctl.fabric()->reliable_totals().e2e_corruptions, 1u);
  EXPECT_EQ(ctl.node_status()[0].state, fleet::NodeState::kRetired);
  EXPECT_EQ(ctl.node_status()[1].state, fleet::NodeState::kAlive);
}

TEST(FleetChk, DoublyCorruptEvacBlobFallsBackToReplay) {
  auto f = small_fleet(1, 1);
  f.faults.node_degrade = {
      {.time = solo().end / 2, .node = 0, .slow_factor = 4}};
  // Both the original ship and the re-request arrive corrupt: the spare
  // boots fresh and the donor's jobs replay from scratch (PR 5 ladder).
  f.faults.messages.enabled = true;
  f.faults.messages.bulk_threshold = 4096;
  f.faults.messages.e2e_corrupt_bulk = {0, 1};
  fleet::Controller ctl{f, catalog()};
  ASSERT_EQ(ctl.run({make_req(0, 0)}), Status::kSuccess);

  const fleet::FleetJob& j = ctl.jobs()[0];
  EXPECT_EQ(j.state, fleet::FleetJobState::kFinished);
  EXPECT_EQ(j.checksum, solo().checksum);
  EXPECT_FALSE(j.migrated);  // nothing continued mid-flight
  EXPECT_TRUE(j.replayed_after_loss);
  auto& m = ctl.metrics();
  EXPECT_EQ(m.counter("ghum_fleet_evac_corruptions_total").value(), 2u);
  EXPECT_EQ(m.counter("ghum_fleet_evac_rerequests_total").value(), 1u);
  EXPECT_EQ(m.counter("ghum_fleet_evac_replays_total").value(), 1u);
  EXPECT_EQ(m.counter("ghum_fleet_evacuations_total").value(), 0u);
  // The corruption surfaced on the sticky error surface.
  EXPECT_EQ(ctl.get_last_error(), Status::kErrorDataCorruption);
  EXPECT_EQ(ctl.node_status()[0].state, fleet::NodeState::kRetired);
  EXPECT_EQ(ctl.node_status()[1].state, fleet::NodeState::kAlive);
}

// --- golden pins of the fleet event order -----------------------------------

/// Everything a run's outcome is fingerprinted by: the fleet digest, the
/// fabric's history digest, the flight recorder and alert digests, and an
/// FNV-1a over the causal trace stream. Same-instant events handled in a
/// different order move at least one of them. The values below were
/// recorded on the hand-merged event loop that the fleet event queue
/// replaced; they may not be re-pinned to fit a change in event order. A
/// run that evacuates ships a checkpoint blob, whose size prices the
/// transfer, so its pins move with the checkpoint format (and only then).
struct Pins {
  std::uint64_t fleet = 0;
  std::uint64_t fabric = 0;
  std::uint64_t recorder = 0;
  std::uint64_t alerts = 0;
  std::uint64_t trace = 0;
};

Pins pins(fleet::Controller& ctl) {
  std::uint64_t h = sim::kFnvOffset;
  for (const obs::FleetTraceEvent& e : ctl.trace_events()) {
    sim::fnv_mix(h, static_cast<std::uint64_t>(e.time));
    sim::fnv_mix(h, static_cast<std::uint64_t>(e.kind));
    sim::fnv_mix(h, (std::uint64_t{e.node} << 32) | e.peer);
    sim::fnv_mix(h, e.job);
    sim::fnv_mix(h, e.tenant);
    sim::fnv_mix(h, e.bytes);
    h = sim::fnv1a(e.label.data(), e.label.size(), h);
  }
  return {ctl.digest(), ctl.fabric()->digest(), ctl.recorder()->digest(),
          ctl.alert_engine()->digest(), h};
}

void expect_pins(fleet::Controller& ctl, const Pins& want) {
  ASSERT_NE(ctl.recorder(), nullptr);
  ASSERT_NE(ctl.alert_engine(), nullptr);
  const Pins got = pins(ctl);
  EXPECT_EQ(got.fleet, want.fleet) << std::hex << "fleet 0x" << got.fleet;
  EXPECT_EQ(got.fabric, want.fabric) << std::hex << "fabric 0x" << got.fabric;
  EXPECT_EQ(got.recorder, want.recorder)
      << std::hex << "recorder 0x" << got.recorder;
  EXPECT_EQ(got.alerts, want.alerts) << std::hex << "alerts 0x" << got.alerts;
  EXPECT_EQ(got.trace, want.trace) << std::hex << "trace 0x" << got.trace;
}

/// A small fleet with the recorder, one backlog alert and the trace on.
fleet::FleetConfig golden_fleet(std::uint32_t nodes, std::uint32_t spares) {
  auto f = small_fleet(nodes, spares);
  f.obs.enabled = true;
  f.obs.cadence = solo().end / 16;
  obs::AlertRule backlog;
  backlog.name = "backlog";
  backlog.instrument = "fleet.pending_jobs";
  backlog.predicate = obs::AlertPredicate::kAbove;
  backlog.threshold = 0;
  f.obs.alerts = {backlog};
  return f;
}

bool traced(const fleet::Controller& ctl, obs::FleetTraceKind kind,
            sim::Picos time) {
  for (const obs::FleetTraceEvent& e : ctl.trace_events()) {
    if (e.kind == kind && e.time == time) return true;
  }
  return false;
}

TEST(FleetGolden, LossDegradeAndArrivalsAtOneInstant) {
  // Two losses (listed out of node order), a degrade evacuated onto the
  // spare and three arrivals, all at one instant.
  const sim::Picos t = solo().end / 2;
  auto f = golden_fleet(3, 1);
  f.faults.evacuate_degraded = true;
  f.faults.node_loss = {{.time = t, .node = 2}, {.time = t, .node = 1}};
  f.faults.node_degrade = {{.time = t, .node = 0, .slow_factor = 4}};
  fleet::Controller ctl{f, catalog()};
  ASSERT_EQ(ctl.run({make_req(0, 0), make_req(1, 0), make_req(2, 0),
                     make_req(3, t), make_req(4, t), make_req(5, t)}),
            Status::kSuccess);
  EXPECT_TRUE(traced(ctl, obs::FleetTraceKind::kNodeLoss, t));
  EXPECT_TRUE(traced(ctl, obs::FleetTraceKind::kNodeDegrade, t));
  EXPECT_TRUE(traced(ctl, obs::FleetTraceKind::kArrival, t));
  EXPECT_EQ(ctl.metrics().counter("ghum_fleet_evacuations_total").value(), 1u);
  expect_pins(ctl, {.fleet = 0x163ecad7494b69c3ull,
                    .fabric = 0x7e1855fd4bd25c37ull,
                    .recorder = 0x9361c9f596a1b7acull,
                    .alerts = 0x96cde6de83653e7cull,
                    .trace = 0x608f0fd62b83e92cull});
}

TEST(FleetGolden, RetryDueOnHeartbeatEdgeAndArrival) {
  // A silent loss on an edge is declared on the third missed edge; the
  // replay's backoff is two intervals, so the retry falls due on a later
  // edge, at the instant request 2 arrives. A second (no-op) loss of the
  // same node keeps the heartbeat watch open through that instant.
  const sim::Picos iv = sim::microseconds(20);
  auto f = golden_fleet(2, 0);
  f.heartbeat.enabled = true;
  f.heartbeat.interval = iv;
  f.heartbeat.miss_threshold = 3;
  f.replace_backoff = 2 * iv;
  const sim::Picos loss = solo().end / 2 / iv * iv;
  const sim::Picos declared = loss + 2 * iv;
  const sim::Picos due = declared + f.replace_backoff;
  f.faults.node_loss = {{.time = loss, .node = 1},
                        {.time = due + 10 * iv, .node = 1}};
  fleet::Controller ctl{f, catalog()};
  ASSERT_EQ(ctl.run({make_req(0, 0), make_req(1, 0), make_req(2, due)}),
            Status::kSuccess);
  EXPECT_TRUE(traced(ctl, obs::FleetTraceKind::kNodeLoss, declared));
  EXPECT_TRUE(traced(ctl, obs::FleetTraceKind::kArrival, due));
  EXPECT_TRUE(ctl.jobs()[1].replayed_after_loss);
  expect_pins(ctl, {.fleet = 0x579d596197509192ull,
                    .fabric = 0xa3d853bbfb530496ull,
                    .recorder = 0x237b76e6c3987132ull,
                    .alerts = 0x7225f19d90dbff55ull,
                    .trace = 0x8c22d08a30f59023ull});
}

TEST(FleetGolden, RetryDueOnArrival) {
  // Without heartbeats a loss is declared at once; the replay's retry
  // falls due at the instant request 2 arrives, with no edge in between.
  const sim::Picos loss = solo().end / 2;
  auto f = golden_fleet(2, 0);
  const sim::Picos due = loss + f.replace_backoff;
  f.faults.node_loss = {{.time = loss, .node = 1}};
  fleet::Controller ctl{f, catalog()};
  ASSERT_EQ(ctl.run({make_req(0, 0), make_req(1, 0), make_req(2, due)}),
            Status::kSuccess);
  EXPECT_TRUE(traced(ctl, obs::FleetTraceKind::kReplacementRetry, loss));
  EXPECT_TRUE(traced(ctl, obs::FleetTraceKind::kArrival, due));
  EXPECT_TRUE(ctl.jobs()[1].replayed_after_loss);
  expect_pins(ctl, {.fleet = 0x29c78e91346feacfull,
                    .fabric = 0x1f4b76b50a380c4bull,
                    .recorder = 0xc63723358f8defa3ull,
                    .alerts = 0x7225f19d90dbff55ull,
                    .trace = 0x4c4fd9dd787f2d05ull});
}

TEST(FleetGolden, WatchReopensThroughExhaustedPlacementSend) {
  // An early loss keeps the heartbeat watch open until it is declared;
  // later, single-attempt placement sends on a lossy fabric exhaust and
  // re-open it, and the edge grid resumes at the next future edge.
  auto f = golden_fleet(3, 0);
  f.heartbeat.enabled = true;
  f.heartbeat.interval = sim::microseconds(20);
  f.heartbeat.miss_threshold = 6;
  f.faults.messages.enabled = true;
  f.faults.messages.drop_prob = 0.2;
  f.faults.messages.max_retransmits = 0;
  f.faults.node_loss = {{.time = solo().end / 4, .node = 2}};
  std::vector<fleet::JobRequest> reqs;
  for (std::uint64_t i = 0; i < 8; ++i) {
    reqs.push_back(make_req(i, static_cast<sim::Picos>(i) * solo().end / 3));
  }
  fleet::Controller ctl{f, catalog()};
  ASSERT_EQ(ctl.run(reqs), Status::kSuccess);
  bool reopened = false;
  for (const obs::FleetTraceEvent& e : ctl.trace_events()) {
    reopened |= e.kind == obs::FleetTraceKind::kNodeSuspect &&
                e.label == "placement send exhausted" &&
                e.time > solo().end / 4;
  }
  EXPECT_TRUE(reopened);
  expect_pins(ctl, {.fleet = 0x45471012420adb34ull,
                    .fabric = 0x68225c3e13abe7c9ull,
                    .recorder = 0x9c780104557195ffull,
                    .alerts = 0xb55a32f891f02e6cull,
                    .trace = 0x2d34a44e45d7133dull});
}

TEST(FleetGolden, DoublyCorruptEvacuationFallsBackToReplay) {
  auto f = golden_fleet(2, 1);
  f.faults.node_degrade = {
      {.time = solo().end / 2, .node = 0, .slow_factor = 4}};
  f.faults.messages.enabled = true;
  f.faults.messages.bulk_threshold = 4096;
  f.faults.messages.e2e_corrupt_bulk = {0, 1};
  fleet::Controller ctl{f, catalog()};
  ASSERT_EQ(ctl.run({make_req(0, 0), make_req(1, 0), make_req(2, 0),
                     make_req(3, 0)}),
            Status::kSuccess);
  EXPECT_EQ(ctl.metrics().counter("ghum_fleet_evac_replays_total").value(), 1u);
  expect_pins(ctl, {.fleet = 0xa3f43c74b326c234ull,
                    .fabric = 0x2d329cda189484caull,
                    .recorder = 0xa2d4460803d1ede0ull,
                    .alerts = 0x2211d5b204d9b5b6ull,
                    .trace = 0x5c2cde90fb8652f9ull});
}

// The storm benches gate survivors against the solo pass's checksum (gate
// (b) of bench_fleet, (c) of bench_chaosnet). Tie that reference to the app
// itself: every template's solo checksum is what the app's own run_*
// wrapper computes on a fresh storm node.
TEST(StormHarness, SoloReferenceIsTheAppsOwnOutput) {
  namespace bs = benchsupport;
  const bs::Scale scale = bs::Scale::kSmall;
  const apps::MemMode mode = apps::MemMode::kManaged;
  std::vector<fleet::JobTemplate> templates = bs::storm::catalog(scale);
  ASSERT_EQ(templates.size(), bs::rodinia_apps().size() + 1);
  for (fleet::JobTemplate& t : templates) {
    SCOPED_TRACE(t.name);
    bs::storm::measure_solo(t);
    core::System sys{bs::storm::node_config()};
    runtime::Runtime rt{sys};
    apps::AppReport own;
    if (t.name == "qvsim") {
      own = apps::run_qvsim(rt, mode, bs::qv_sim_config(scale, 16));
    } else {
      const auto app = std::find_if(
          bs::rodinia_apps().begin(), bs::rodinia_apps().end(),
          [&](const bs::NamedApp& a) { return a.name == t.name; });
      ASSERT_NE(app, bs::rodinia_apps().end());
      own = app->run(rt, mode, scale);
    }
    EXPECT_EQ(t.solo_checksum, own.checksum);
    EXPECT_GT(t.est_cost, 0);
  }
}

}  // namespace
}  // namespace ghum
