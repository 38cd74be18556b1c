#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "apps/hotspot.hpp"
#include "apps/qvsim.hpp"
#include "apps/srad.hpp"
#include "net/fabric.hpp"
#include "net/halo.hpp"
#include "obs/metrics.hpp"

/// Inter-node network-model tests (DESIGN.md Section 12): NetSpec
/// validation, protocol selection at the exact crossover boundaries,
/// link-flap dilation, per-link serialization, history-digest determinism
/// and the multi-node halo workloads.

namespace ghum {
namespace {

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
  h.rows = 64;
  h.cols = 64;
  h.iterations = 3;
  return h;
}

// --- NetSpec validation ------------------------------------------------------

TEST(NetSpec, DefaultSpecValidates) {
  EXPECT_EQ(net::NetSpec{}.validate(), Status::kSuccess);
}

TEST(NetSpec, RejectsNonPositiveBandwidths) {
  for (auto field : {&net::NetSpec::wire_bandwidth_Bps,
                     &net::NetSpec::bcopy_bandwidth_Bps,
                     &net::NetSpec::gdr_get_bandwidth_Bps,
                     &net::NetSpec::gdr_put_bandwidth_Bps,
                     &net::NetSpec::distance_bandwidth_Bps}) {
    net::NetSpec s;
    s.*field = 0.0;
    EXPECT_EQ(s.validate(), Status::kErrorNetConfig);
    s.*field = -1.0;
    EXPECT_EQ(s.validate(), Status::kErrorNetConfig);
  }
}

TEST(NetSpec, RejectsNegativeLatencies) {
  for (auto field :
       {&net::NetSpec::wire_latency, &net::NetSpec::rndv_rts,
        &net::NetSpec::send_db, &net::NetSpec::am_bcopy,
        &net::NetSpec::rcache_overhead, &net::NetSpec::gdr_latency}) {
    net::NetSpec s;
    s.*field = -1;
    EXPECT_EQ(s.validate(), Status::kErrorNetConfig);
  }
}

TEST(NetSpec, FabricConstructionThrowsNetConfig) {
  net::NetSpec bad;
  bad.wire_bandwidth_Bps = 0.0;
  try {
    net::Fabric f{bad, 2};
    FAIL() << "malformed spec must throw";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kErrorNetConfig);
  }
  try {
    net::Fabric f{net::NetSpec{}, 0};
    FAIL() << "zero endpoints must throw";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kErrorNetConfig);
  }
}

TEST(NetSpec, FlapWindowValidation) {
  fault::LinkFlapWindow bad_node;
  bad_node.node_a = 9;  // outside a 2-endpoint fabric
  try {
    net::Fabric f{net::NetSpec{}, 2, nullptr, {bad_node}};
    FAIL() << "out-of-range flap endpoint must throw";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kErrorInvalidValue);
  }
  fault::LinkFlapWindow bad_factor;
  bad_factor.bandwidth_factor = 0.5;  // factors dilate, never accelerate
  try {
    net::Fabric f{net::NetSpec{}, 2, nullptr, {bad_factor}};
    FAIL() << "factor < 1 must throw";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kErrorInvalidValue);
  }
  // Schedule shape is a config error, distinct from the value errors
  // above: a window cannot start before t=0 ...
  fault::LinkFlapWindow bad_start;
  bad_start.start = -1;
  bad_start.duration = sim::microseconds(1);
  try {
    net::Fabric f{net::NetSpec{}, 2, nullptr, {bad_start}};
    FAIL() << "negative flap start must throw";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kErrorNetConfig);
  }
  // ... and its end (start + duration) cannot precede its start.
  fault::LinkFlapWindow bad_duration;
  bad_duration.start = sim::microseconds(10);
  bad_duration.duration = -sim::microseconds(1);
  try {
    net::Fabric f{net::NetSpec{}, 2, nullptr, {bad_duration}};
    FAIL() << "window end preceding its start must throw";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kErrorNetConfig);
  }
  // A zero-duration (degenerate but well-ordered) window is accepted.
  fault::LinkFlapWindow empty;
  empty.start = sim::microseconds(10);
  empty.duration = 0;
  EXPECT_NO_THROW((net::Fabric{net::NetSpec{}, 2, nullptr, {empty}}));
}

TEST(NetSpec, MessageFaultConfigValidation) {
  EXPECT_EQ(fault::MessageFaultConfig{}.validate(), Status::kSuccess);
  for (auto field :
       {&fault::MessageFaultConfig::drop_prob,
        &fault::MessageFaultConfig::corrupt_prob,
        &fault::MessageFaultConfig::duplicate_prob,
        &fault::MessageFaultConfig::reorder_prob,
        &fault::MessageFaultConfig::e2e_corrupt_prob}) {
    fault::MessageFaultConfig m;
    m.*field = -0.01;
    EXPECT_EQ(m.validate(), Status::kErrorNetConfig);
    m.*field = 1.01;
    EXPECT_EQ(m.validate(), Status::kErrorNetConfig);
    m.*field = 1.0;
    EXPECT_EQ(m.validate(), Status::kSuccess);
  }
  fault::MessageFaultConfig m;
  m.reorder_delay = -1;
  EXPECT_EQ(m.validate(), Status::kErrorNetConfig);
  m = {};
  m.ack_timeout = 0;
  EXPECT_EQ(m.validate(), Status::kErrorNetConfig);
  m = {};
  m.ack_bytes = 0;
  EXPECT_EQ(m.validate(), Status::kErrorNetConfig);
  m = {};
  m.bulk_threshold = 0;
  EXPECT_EQ(m.validate(), Status::kErrorNetConfig);

  // The fabric rejects a malformed schedule at construction.
  m = {};
  m.enabled = true;
  m.drop_prob = 2.0;
  try {
    net::Fabric f{net::NetSpec{}, 2, nullptr, {}, m};
    FAIL() << "malformed message-fault config must throw";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kErrorNetConfig);
  }
}

TEST(NetSpec, StatusToStringRoundTrip) {
  // The new codes have distinct, stable messages...
  EXPECT_EQ(to_string(Status::kErrorNetConfig), "malformed network spec");
  EXPECT_EQ(to_string(Status::kErrorRetransmitExhausted),
            "retransmit budget exhausted");
  EXPECT_EQ(to_string(Status::kErrorDataCorruption),
            "data corruption detected");
  // ...and collide with no other status string.
  std::set<std::string_view> seen;
  for (const Status s :
       {Status::kSuccess, Status::kErrorMemoryAllocation,
        Status::kErrorOutOfMemory, Status::kErrorInvalidValue,
        Status::kErrorDoubleFree, Status::kErrorEccUncorrectable,
        Status::kErrorGpuReset, Status::kErrorUnrecoverable,
        Status::kErrorTimeout, Status::kErrorNodeLost,
        Status::kErrorDeadlineExceeded, Status::kErrorNetConfig,
        Status::kErrorRetransmitExhausted, Status::kErrorDataCorruption}) {
    EXPECT_TRUE(seen.insert(to_string(s)).second)
        << "duplicate status string: " << to_string(s);
  }
}

TEST(NetSpec, ProtocolAndMemTypeNames) {
  EXPECT_EQ(to_string(net::Protocol::kEagerShort), "eager-short");
  EXPECT_EQ(to_string(net::Protocol::kEagerBcopy), "eager-bcopy");
  EXPECT_EQ(to_string(net::Protocol::kZcopy), "zcopy");
  EXPECT_EQ(to_string(net::Protocol::kRendezvous), "rendezvous");
  EXPECT_EQ(to_string(net::MemType::kHost), "host");
  EXPECT_EQ(to_string(net::MemType::kCudaManaged), "cuda-managed");
}

// --- protocol selection ------------------------------------------------------

/// Smallest size in (lo, hi] whose selected protocol differs from lo's.
std::uint64_t boundary_after(const net::Fabric& f, net::MemType mem,
                             std::uint64_t lo, std::uint64_t hi) {
  const net::Protocol base = f.select(lo, mem);
  while (lo + 1 < hi) {
    const std::uint64_t m = lo + (hi - lo) / 2;
    if (f.select(m, mem) == base) {
      lo = m;
    } else {
      hi = m;
    }
  }
  return hi;
}

TEST(Protocol, CrossoversLandOnCheaperProtocolBothSides) {
  const net::Fabric f{net::NetSpec{}, 2};
  for (const net::MemType mem :
       {net::MemType::kHost, net::MemType::kCudaManaged}) {
    std::uint64_t at = 8;
    std::vector<net::Protocol> order{f.select(at, mem)};
    // Walk every crossover up to 16 MiB.
    while (at < (16ull << 20)) {
      if (f.select(16ull << 20, mem) == f.select(at, mem)) break;
      const std::uint64_t b = boundary_after(f, mem, at, 16ull << 20);
      const net::Protocol before = f.select(b - 1, mem);
      const net::Protocol after = f.select(b, mem);
      ASSERT_NE(before, after);
      order.push_back(after);

      // One byte below the threshold, the old protocol is genuinely no
      // worse; at the threshold, the new one is strictly cheaper. The
      // short->bcopy boundary is eligibility-driven (the inline capacity),
      // so the cost comparison applies from bcopy onward.
      if (before != net::Protocol::kEagerShort) {
        EXPECT_LE(f.cost(before, b - 1, mem), f.cost(after, b - 1, mem))
            << "below boundary " << b << " mem " << to_string(mem);
        EXPECT_LT(f.cost(after, b, mem), f.cost(before, b, mem))
            << "at boundary " << b << " mem " << to_string(mem);
      } else {
        EXPECT_EQ(b, net::NetSpec{}.eager_short_max + 1);
      }
      at = b;
    }
    // All four regimes appear, in ladder order.
    ASSERT_EQ(order.size(), 4u) << "mem " << to_string(mem);
    EXPECT_EQ(order[0], net::Protocol::kEagerShort);
    EXPECT_EQ(order[1], net::Protocol::kEagerBcopy);
    EXPECT_EQ(order[2], net::Protocol::kZcopy);
    EXPECT_EQ(order[3], net::Protocol::kRendezvous);
  }
}

TEST(Protocol, CudaManagedCostsExceedHost) {
  const net::Fabric f{net::NetSpec{}, 2};
  for (const std::uint64_t b : {64ull, 4096ull, 32768ull, 1ull << 20}) {
    const net::Protocol p = f.select(b, net::MemType::kCudaManaged);
    EXPECT_GT(f.cost(p, b, net::MemType::kCudaManaged),
              f.cost(p, b, net::MemType::kHost))
        << b;
  }
}

// --- transfers, serialization, flaps ----------------------------------------

TEST(Fabric, DirectedLinkSerializes) {
  net::Fabric f{net::NetSpec{}, 3};
  const auto mem = net::MemType::kHost;
  const net::Transfer a = f.transfer(0, 1, 1 << 20, mem, 0);
  EXPECT_EQ(a.queued, 0);
  // Same directed link, same request time: queues behind a.
  const net::Transfer b = f.transfer(0, 1, 1 << 20, mem, 0);
  EXPECT_EQ(b.start, a.end);
  EXPECT_EQ(b.queued, a.end);
  // Reverse direction and unrelated links are independent.
  EXPECT_EQ(f.transfer(1, 0, 1 << 20, mem, 0).queued, 0);
  EXPECT_EQ(f.transfer(0, 2, 1 << 20, mem, 0).queued, 0);
}

TEST(Fabric, TransferEndpointValidation) {
  net::Fabric f{net::NetSpec{}, 2};
  EXPECT_THROW((void)f.transfer(0, 0, 64, net::MemType::kHost, 0), StatusError);
  EXPECT_THROW((void)f.transfer(0, 7, 64, net::MemType::kHost, 0), StatusError);
}

TEST(Fabric, RejectedSendCountsNothing) {
  obs::MetricsRegistry reg;
  net::Fabric f{net::NetSpec{}, 2, &reg};
  const std::size_t instruments = reg.size();
  EXPECT_THROW((void)f.send(0, 0, 64, net::MemType::kHost, 0), StatusError);
  EXPECT_THROW((void)f.send(0, 7, 64, net::MemType::kHost, 0), StatusError);
  EXPECT_THROW((void)f.datagram(1, 1, 64, net::MemType::kHost, 0), StatusError);
  EXPECT_EQ(f.reliable_totals().sends, 0u);
  EXPECT_EQ(f.totals().total_msgs(), 0u);
  // No link record, so no ghum_net_link_bytes_total{link="0-0"}.
  EXPECT_EQ(reg.size(), instruments);
  EXPECT_EQ(f.digest(), sim::kFnvOffset);
}

TEST(Fabric, FlapWindowDilatesDeterministically) {
  fault::LinkFlapWindow w;
  w.start = sim::microseconds(10);
  w.duration = sim::microseconds(10);
  w.node_a = 0;  // node_b = kAllPeers: every link touching node 0
  w.bandwidth_factor = 4.0;
  w.latency_factor = 2.0;

  const auto run = [&] {
    net::Fabric f{net::NetSpec{}, 3, nullptr, {w}};
    const auto mem = net::MemType::kHost;
    struct Out {
      sim::Picos before, inside, inside_untouched, after;
      std::uint64_t flapped;
      std::uint64_t digest;
    } o{};
    o.before = f.transfer(0, 1, 1 << 20, mem, 0).end - 0;
    const sim::Picos t1 = sim::microseconds(12);
    const net::Transfer in = f.transfer(0, 2, 1 << 20, mem, t1);
    o.inside = in.end - in.start;
    // Link 1->2 does not touch node 0: unaffected even inside the window.
    const net::Transfer un = f.transfer(1, 2, 1 << 20, mem, t1);
    o.inside_untouched = un.end - un.start;
    const sim::Picos t2 = sim::microseconds(50);
    const net::Transfer af = f.transfer(2, 0, 1 << 20, mem, t2);
    o.after = af.end - af.start;
    o.flapped = f.totals().flapped_msgs;
    o.digest = f.digest();
    return o;
  };

  const auto a = run();
  EXPECT_GT(a.inside, a.before);          // dilated while the window is open
  EXPECT_EQ(a.inside_untouched, a.before);  // untouched link, same cost
  EXPECT_EQ(a.after, a.before);           // window closed, cost restored
  EXPECT_EQ(a.flapped, 1u);

  const auto b = run();  // bit-for-bit deterministic
  EXPECT_EQ(a.inside, b.inside);
  EXPECT_EQ(a.digest, b.digest);
}

TEST(Fabric, OverlappingFlapWindowsCompound) {
  fault::LinkFlapWindow w1;
  w1.start = 0;
  w1.duration = sim::microseconds(100);
  w1.node_a = 0;
  w1.bandwidth_factor = 2.0;
  w1.latency_factor = 1.0;
  fault::LinkFlapWindow w2 = w1;

  net::Fabric one{net::NetSpec{}, 2, nullptr, {w1}};
  net::Fabric two{net::NetSpec{}, 2, nullptr, {w1, w2}};
  const auto mem = net::MemType::kHost;
  const sim::Picos c1 = one.transfer(0, 1, 1 << 20, mem, 0).end;
  const sim::Picos c2 = two.transfer(0, 1, 1 << 20, mem, 0).end;
  EXPECT_GT(c2, c1);  // 4x bandwidth cut beats 2x
}

TEST(Fabric, DigestTracksHistoryExactly) {
  const auto drive = [](std::uint64_t third_size) {
    net::Fabric f{net::NetSpec{}, 2};
    (void)f.transfer(0, 1, 64, net::MemType::kHost, 0);
    (void)f.transfer(1, 0, 4096, net::MemType::kCudaManaged, 100);
    (void)f.transfer(0, 1, third_size, net::MemType::kHost, 200);
    return f.digest();
  };
  EXPECT_EQ(drive(1 << 20), drive(1 << 20));
  EXPECT_NE(drive(1 << 20), drive((1 << 20) + 1));
}

// --- reliable delivery under message faults ---------------------------------

fault::MessageFaultConfig clean_chaos() {
  fault::MessageFaultConfig m;
  m.enabled = true;  // all fate probabilities stay 0: every delivery clean
  return m;
}

TEST(Reliable, CleanSendSucceedsFirstAttempt) {
  net::Fabric f{net::NetSpec{}, 2, nullptr, {}, clean_chaos()};
  const net::ReliableTransfer t =
      f.send(0, 1, 4096, net::MemType::kHost, 0);
  EXPECT_EQ(t.status, Status::kSuccess);
  EXPECT_EQ(t.attempts, 1u);
  EXPECT_EQ(t.retransmits, 0u);
  EXPECT_FALSE(t.payload_corrupt);
  EXPECT_EQ(t.delivered_at, t.wire.end);
  EXPECT_GT(t.end, t.delivered_at);  // the ack rode the reverse link
  const net::ReliableTotals& r = f.reliable_totals();
  EXPECT_EQ(r.sends, 1u);
  EXPECT_EQ(r.retransmits, 0u);
  EXPECT_EQ(r.acks, 1u);
  EXPECT_EQ(r.exhausted, 0u);
}

TEST(Reliable, DropsAreRetransmittedAndRecovered) {
  fault::MessageFaultConfig m = clean_chaos();
  m.drop_prob = 0.3;
  net::Fabric f{net::NetSpec{}, 2, nullptr, {}, m};
  sim::Picos now = 0;
  for (int i = 0; i < 40; ++i) {
    const net::ReliableTransfer t =
        f.send(0, 1, 4096, net::MemType::kHost, now);
    EXPECT_EQ(t.status, Status::kSuccess) << "send " << i;
    EXPECT_EQ(t.attempts, t.retransmits + 1) << "send " << i;
    now = t.end;
  }
  const net::ReliableTotals& r = f.reliable_totals();
  EXPECT_EQ(r.sends, 40u);
  EXPECT_GE(r.drops, 1u);             // the schedule did drop messages
  EXPECT_GE(r.retransmits, 1u);       // ...which forced retransmissions
  EXPECT_GE(r.recovered_sends, 1u);   // ...that recovered the send
  EXPECT_EQ(r.exhausted, 0u);
}

TEST(Reliable, CorruptDeliveriesAreNakedAndRetried) {
  fault::MessageFaultConfig m = clean_chaos();
  m.corrupt_prob = 1.0;  // every delivery fails the link checksum
  m.max_retransmits = 2;
  net::Fabric f{net::NetSpec{}, 2, nullptr, {}, m};
  const net::ReliableTransfer t =
      f.send(0, 1, 4096, net::MemType::kHost, 0);
  EXPECT_EQ(t.status, Status::kErrorRetransmitExhausted);
  EXPECT_EQ(t.attempts, 3u);  // budget + 1 payload transmissions
  EXPECT_EQ(t.retransmits, 2u);
  // Payload corruptions (one per attempt) plus any corrupted NAKs — the
  // reverse link draws fates from the same schedule.
  const net::ReliableTotals& r = f.reliable_totals();
  EXPECT_GE(r.corruptions, 3u);
  EXPECT_EQ(r.exhausted, 1u);
  EXPECT_EQ(r.recovered_sends, 0u);
}

TEST(Reliable, SendToDownEndpointExhaustsBudget) {
  fault::MessageFaultConfig m = clean_chaos();
  m.max_retransmits = 3;
  net::Fabric f{net::NetSpec{}, 2, nullptr, {}, m};
  f.set_endpoint_down(1, true);
  EXPECT_TRUE(f.endpoint_down(1));
  const net::ReliableTransfer t =
      f.send(0, 1, 4096, net::MemType::kHost, 0);
  EXPECT_EQ(t.status, Status::kErrorRetransmitExhausted);
  EXPECT_EQ(t.attempts, 4u);
  EXPECT_EQ(t.retransmits, 3u);
  // Exponential backoff: the sender waited out every timeout rung.
  sim::Picos waited = 0;
  for (std::uint32_t k = 1; k <= 4; ++k) {
    waited += m.ack_timeout * (sim::Picos{1} << (k - 1));
  }
  EXPECT_GE(t.end, waited);
  EXPECT_EQ(f.reliable_totals().exhausted, 1u);
  // Back up: the next send goes straight through.
  f.set_endpoint_down(1, false);
  EXPECT_EQ(f.send(0, 1, 4096, net::MemType::kHost, t.end).status,
            Status::kSuccess);
}

TEST(Reliable, DuplicatedDeliveriesAreDeduped) {
  fault::MessageFaultConfig m = clean_chaos();
  m.duplicate_prob = 1.0;  // the link echoes every delivery
  net::Fabric f{net::NetSpec{}, 2, nullptr, {}, m};
  const net::ReliableTransfer t =
      f.send(0, 1, 4096, net::MemType::kHost, 0);
  EXPECT_EQ(t.status, Status::kSuccess);
  EXPECT_GE(f.reliable_totals().dup_discards, 1u);
}

TEST(Reliable, E2eBulkCorruptionFollowsSchedule) {
  fault::MessageFaultConfig m = clean_chaos();
  m.bulk_threshold = 4096;
  m.e2e_corrupt_bulk = {0, 2};  // first and third bulk payloads
  net::Fabric f{net::NetSpec{}, 2, nullptr, {}, m};
  // A sub-threshold send is never e2e-corrupted and does not consume a
  // bulk index.
  EXPECT_FALSE(f.send(0, 1, 256, net::MemType::kHost, 0).payload_corrupt);
  const net::ReliableTransfer b0 =
      f.send(0, 1, 8192, net::MemType::kHost, 0);
  const net::ReliableTransfer b1 =
      f.send(0, 1, 8192, net::MemType::kHost, b0.end);
  const net::ReliableTransfer b2 =
      f.send(0, 1, 8192, net::MemType::kHost, b1.end);
  EXPECT_TRUE(b0.payload_corrupt);   // scheduled
  EXPECT_FALSE(b1.payload_corrupt);  // not scheduled
  EXPECT_TRUE(b2.payload_corrupt);   // scheduled
  // E2e corruption is invisible to the link protocol: the sends succeed.
  EXPECT_EQ(b0.status, Status::kSuccess);
  EXPECT_EQ(f.reliable_totals().e2e_corruptions, 2u);
}

TEST(Reliable, LossySequenceIsBitForBitReproducible) {
  fault::MessageFaultConfig m = clean_chaos();
  m.drop_prob = 0.2;
  m.corrupt_prob = 0.1;
  m.duplicate_prob = 0.1;
  m.reorder_prob = 0.1;
  const auto drive = [&m] {
    net::Fabric f{net::NetSpec{}, 3, nullptr, {}, m};
    sim::Picos now = 0;
    for (int i = 0; i < 24; ++i) {
      const net::ReliableTransfer t = f.send(
          static_cast<std::uint32_t>(i % 2), 2,
          1024 + static_cast<std::uint64_t>(i) * 512, net::MemType::kHost,
          now);
      now = t.end;
    }
    return f.digest();
  };
  EXPECT_EQ(drive(), drive());
}

TEST(Reliable, PerLinkStreamsAreIndependent) {
  // The same message sequence on link 0->1 must meet the same fates
  // whether or not unrelated traffic runs on link 2->3 in between —
  // fates come from per-link streams, not one global draw order.
  fault::MessageFaultConfig m = clean_chaos();
  m.drop_prob = 0.3;
  m.corrupt_prob = 0.2;
  const auto drive = [&m](bool interleave) {
    net::Fabric f{net::NetSpec{}, 4, nullptr, {}, m};
    std::vector<std::uint32_t> attempts;
    sim::Picos now = 0;
    for (int i = 0; i < 16; ++i) {
      if (interleave) {
        (void)f.send(2, 3, 4096, net::MemType::kHost, now);
      }
      const net::ReliableTransfer t =
          f.send(0, 1, 4096, net::MemType::kHost, now);
      attempts.push_back(t.attempts);
      now = t.end;
    }
    return attempts;
  };
  EXPECT_EQ(drive(false), drive(true));
}

TEST(Reliable, RegistrylessFabricCountsLikeARegistryBackedOne) {
  fault::MessageFaultConfig m = clean_chaos();
  m.drop_prob = 0.2;
  m.corrupt_prob = 0.15;
  m.duplicate_prob = 0.3;
  m.reorder_prob = 0.2;
  m.bulk_threshold = 1 << 16;
  m.e2e_corrupt_bulk = {1};
  fault::LinkFlapWindow w;
  w.start = sim::microseconds(20);
  w.duration = sim::microseconds(200);
  w.node_a = 1;
  w.bandwidth_factor = 3.0;
  const auto drive = [](net::Fabric& f) {
    sim::Picos now = 0;
    for (std::uint32_t i = 0; i < 30; ++i) {
      const std::uint32_t src = i % 3;
      const std::uint32_t dst = (i + 1 + i / 3 % 2) % 3;
      const std::uint64_t bytes = (i % 5 == 0 ? 1ull << 20 : 512ull) + i;
      now = f.send(src, dst, bytes, net::MemType::kHost, now).end;
      (void)f.datagram(dst, src, 64, net::MemType::kCudaManaged, now);
    }
  };
  net::Fabric bare{net::NetSpec{}, 3, nullptr, {w}, m};
  obs::MetricsRegistry reg;
  net::Fabric backed{net::NetSpec{}, 3, &reg, {w}, m};
  drive(bare);
  drive(backed);

  const net::FabricTotals t = bare.totals();
  const net::FabricTotals tb = backed.totals();
  EXPECT_EQ(t.msgs, tb.msgs);
  EXPECT_EQ(t.bytes, tb.bytes);
  EXPECT_EQ(t.rndv_handshakes, tb.rndv_handshakes);
  EXPECT_EQ(t.flapped_msgs, tb.flapped_msgs);
  const net::ReliableTotals r = bare.reliable_totals();
  const net::ReliableTotals rb = backed.reliable_totals();
  EXPECT_EQ(r.sends, rb.sends);
  EXPECT_EQ(r.retransmits, rb.retransmits);
  EXPECT_EQ(r.recovered_sends, rb.recovered_sends);
  EXPECT_EQ(r.exhausted, rb.exhausted);
  EXPECT_EQ(r.drops, rb.drops);
  EXPECT_EQ(r.corruptions, rb.corruptions);
  EXPECT_EQ(r.dup_discards, rb.dup_discards);
  EXPECT_EQ(r.reorders, rb.reorders);
  EXPECT_EQ(r.acks, rb.acks);
  EXPECT_EQ(r.e2e_corruptions, rb.e2e_corruptions);
  for (std::uint32_t s = 0; s < 3; ++s) {
    for (std::uint32_t d = 0; d < 3; ++d) {
      EXPECT_EQ(bare.link_bytes_moved(s, d), backed.link_bytes_moved(s, d))
          << s << "->" << d;
    }
  }
  EXPECT_EQ(bare.digest(), backed.digest());

  // The sequence reached every event kind, so the comparison is not 0 == 0.
  EXPECT_EQ(r.sends, 30u);
  EXPECT_GT(r.retransmits, 0u);
  EXPECT_GT(r.drops, 0u);
  EXPECT_GT(r.corruptions, 0u);
  EXPECT_GT(r.dup_discards, 0u);
  EXPECT_GT(r.reorders, 0u);
  EXPECT_EQ(r.e2e_corruptions, 1u);
  EXPECT_GT(t.rndv_handshakes, 0u);
  EXPECT_GT(t.flapped_msgs, 0u);

  // The caller's registry holds the registry-less fabric's counts.
  EXPECT_EQ(reg.counter_sum("ghum_net_msgs_total"), t.total_msgs());
  EXPECT_EQ(reg.counter_sum("ghum_net_bytes_total"), t.total_bytes());
  EXPECT_EQ(reg.counter_sum("ghum_net_link_bytes_total"), t.total_bytes());
  EXPECT_EQ(reg.histogram("ghum_net_rndv_handshake_ns").count(),
            t.rndv_handshakes);
  EXPECT_EQ(reg.histogram("ghum_net_msg_latency_ns").count(), t.total_msgs());
  EXPECT_EQ(reg.counter("ghum_net_flapped_msgs_total").value(), t.flapped_msgs);
  EXPECT_EQ(reg.counter("ghum_net_retransmits_total").value(), r.retransmits);
  EXPECT_EQ(reg.counter("ghum_net_recovered_sends_total").value(),
            r.recovered_sends);
  EXPECT_EQ(reg.counter("ghum_net_send_exhausted_total").value(), r.exhausted);
  EXPECT_EQ(reg.counter("ghum_net_dropped_msgs_total").value(), r.drops);
  EXPECT_EQ(reg.counter("ghum_net_corrupt_msgs_total").value(), r.corruptions);
  EXPECT_EQ(reg.counter("ghum_net_dup_discards_total").value(), r.dup_discards);
  EXPECT_EQ(reg.counter("ghum_net_reordered_msgs_total").value(), r.reorders);
  EXPECT_EQ(reg.counter("ghum_net_acks_total").value(), r.acks);
  EXPECT_EQ(reg.counter("ghum_net_e2e_corrupt_msgs_total").value(),
            r.e2e_corruptions);
}

// --- multi-node workloads ----------------------------------------------------

TEST(Halo, HotspotRunsAndReproduces) {
  net::MultiNodeConfig mc;
  mc.nodes = 3;
  mc.mode = apps::MemMode::kManaged;
  mc.node_config = node_cfg();

  const net::MultiNodeResult a = net::run_hotspot_halo(mc, small_hotspot());
  const net::MultiNodeResult b = net::run_hotspot_halo(mc, small_hotspot());
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.nodes, 3u);
  EXPECT_EQ(a.exchanges, small_hotspot().iterations);
  // 3 nodes: ends send 1 halo each, the middle sends 2 — per iteration.
  EXPECT_EQ(a.net.total_msgs(), 4ull * small_hotspot().iterations);
  EXPECT_GT(a.net_wait, 0);
  EXPECT_EQ(a.node_end.size(), 3u);
  EXPECT_GT(a.makespan, 0);
}

TEST(Halo, SradMovesTwoFieldsPerNeighbor) {
  net::MultiNodeConfig mc;
  mc.nodes = 2;
  mc.mode = apps::MemMode::kManaged;
  mc.node_config = node_cfg();
  apps::SradConfig s;
  s.rows = 64;
  s.cols = 64;
  s.iterations = 3;
  const net::MultiNodeResult r = net::run_srad_halo(mc, s);
  EXPECT_EQ(r.net.total_msgs(), 2ull * s.iterations);
  EXPECT_EQ(r.net.total_bytes(),
            2ull * s.iterations * 2ull * s.cols * sizeof(float));
}

TEST(Halo, QvChunkExchange) {
  net::MultiNodeConfig mc;
  mc.nodes = 4;
  mc.mode = apps::MemMode::kManaged;
  mc.node_config = node_cfg();
  apps::QvConfig q;
  q.qubits = 8;
  q.depth = 2;
  const net::MultiNodeResult a = net::run_qv_chunks(mc, q);
  const net::MultiNodeResult b = net::run_qv_chunks(mc, q);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_GT(a.exchanges, 0u);
  // Every node swaps half its 2^(8-2)-amplitude chunk every gate round.
  apps::QvConfig local = q;
  local.qubits = 6;
  const std::uint64_t gates = apps::qv_circuit(local).size();
  EXPECT_EQ(a.net.total_msgs(), 4ull * gates);
  EXPECT_EQ(a.net.total_bytes(), 4ull * gates * ((16ull << 6) / 2));
}

TEST(Halo, RejectsBadShapes) {
  net::MultiNodeConfig mc;
  mc.node_config = node_cfg();
  mc.nodes = 1;
  EXPECT_THROW((void)net::run_hotspot_halo(mc, small_hotspot()), StatusError);
  mc.nodes = 9;
  EXPECT_THROW((void)net::run_hotspot_halo(mc, small_hotspot()), StatusError);

  mc.nodes = 3;  // not a power of two
  EXPECT_THROW((void)net::run_qv_chunks(mc, apps::QvConfig{}), StatusError);

  mc.nodes = 4;
  mc.mode = apps::MemMode::kExplicit;  // chunked path: different yields
  EXPECT_THROW((void)net::run_qv_chunks(mc, apps::QvConfig{}), StatusError);

  mc.mode = apps::MemMode::kManaged;
  apps::QvConfig tiny;
  tiny.qubits = 3;  // 4 nodes need >= k+2 = 4 qubits
  EXPECT_THROW((void)net::run_qv_chunks(mc, tiny), StatusError);

  apps::HotspotConfig thin = small_hotspot();
  thin.rows = 4;  // 8 nodes cannot all get a row band
  mc.nodes = 8;
  mc.mode = apps::MemMode::kManaged;
  EXPECT_THROW((void)net::run_hotspot_halo(mc, thin), StatusError);
}

TEST(Halo, LossyFabricReproducesAndChargesRetries) {
  net::MultiNodeConfig mc;
  mc.nodes = 3;
  mc.mode = apps::MemMode::kManaged;
  mc.node_config = node_cfg();
  mc.messages.enabled = true;
  mc.messages.drop_prob = 0.2;
  mc.messages.corrupt_prob = 0.1;

  const net::MultiNodeResult a = net::run_hotspot_halo(mc, small_hotspot());
  const net::MultiNodeResult b = net::run_hotspot_halo(mc, small_hotspot());
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.checksum, b.checksum);
  // The chaos never changes the computed answer, only the timeline.
  net::MultiNodeConfig clean = mc;
  clean.messages = {};
  const net::MultiNodeResult c = net::run_hotspot_halo(clean, small_hotspot());
  EXPECT_EQ(a.checksum, c.checksum);
  EXPECT_GE(a.makespan, c.makespan);  // retransmissions only ever cost time
  // Retried payloads and their acks appear as extra wire messages.
  EXPECT_GT(a.net.total_msgs(), c.net.total_msgs());
}

TEST(Halo, ExternalFabricIgnoresTheConfigsMessageSchedule) {
  net::Fabric fab{net::NetSpec{}, 2};
  net::MultiNodeConfig mc;
  mc.nodes = 2;
  mc.node_config = node_cfg();
  mc.messages.enabled = true;
  mc.messages.drop_prob = 2;  // malformed, but the external fabric rules
  EXPECT_THROW((void)net::run_hotspot_halo(mc, small_hotspot()), StatusError);
  const net::MultiNodeResult r = net::run_hotspot_halo(mc, small_hotspot(), &fab);
  EXPECT_GT(r.net.total_msgs(), 0u);
  EXPECT_EQ(fab.reliable_totals().sends, 0u);  // fab is clean: raw transfers
}

TEST(Halo, SharedFabricAccumulates) {
  obs::MetricsRegistry reg;
  net::Fabric fab{net::NetSpec{}, 4, &reg};
  net::MultiNodeConfig mc;
  mc.nodes = 2;
  mc.mode = apps::MemMode::kManaged;
  mc.node_config = node_cfg();
  const net::MultiNodeResult a = net::run_hotspot_halo(mc, small_hotspot(), &fab);
  const std::uint64_t after_one = fab.totals().total_msgs();
  EXPECT_EQ(after_one, a.net.total_msgs());
  (void)net::run_hotspot_halo(mc, small_hotspot(), &fab);
  EXPECT_EQ(fab.totals().total_msgs(), 2 * after_one);
  // Registry sees the shared fabric's traffic.
  std::uint64_t reg_msgs = 0;
  for (std::size_t p = 0; p < net::kProtocols; ++p) {
    reg_msgs += reg.counter("ghum_net_msgs_total",
                            {{"proto", std::string{to_string(
                                           static_cast<net::Protocol>(p))}}})
                    .value();
  }
  EXPECT_EQ(reg_msgs, fab.totals().total_msgs());
}

}  // namespace
}  // namespace ghum
