#include <gtest/gtest.h>

#include "event_counts.hpp"
#include "sim/clock.hpp"
#include "sim/event_log.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace ghum::sim {
namespace {

TEST(Time, UnitConversionsRoundTrip) {
  EXPECT_EQ(nanoseconds(1), 1'000);
  EXPECT_EQ(microseconds(1), 1'000'000);
  EXPECT_EQ(milliseconds(1), 1'000'000'000);
  EXPECT_EQ(seconds(1), kPicosPerSecond);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(to_milliseconds(milliseconds(3.25)), 3.25);
  EXPECT_DOUBLE_EQ(to_microseconds(microseconds(7)), 7.0);
}

TEST(Time, TransferTimeMatchesBandwidth) {
  // 1 GiB at 1 GB/s is ~1.0737 s.
  const Picos t = transfer_time(1ull << 30, 1e9);
  EXPECT_NEAR(to_seconds(t), 1.0737, 1e-3);
}

TEST(Time, TransferTimeZeroBytesIsFree) {
  EXPECT_EQ(transfer_time(0, 1e9), 0);
}

TEST(Time, TransferTimeNonZeroIsAtLeastOnePicosecond) {
  // One byte at an absurd bandwidth still advances time (monotonicity).
  EXPECT_GE(transfer_time(1, 1e18), 1);
}

TEST(Clock, AdvancesMonotonically) {
  Clock c;
  EXPECT_EQ(c.now(), 0);
  c.advance(100);
  c.advance(0);
  c.advance(50);
  EXPECT_EQ(c.now(), 150);
}

TEST(Clock, RejectsNegativeDelta) {
  Clock c;
  EXPECT_THROW(c.advance(-1), std::invalid_argument);
}

TEST(Clock, ObserversSeeBeforeAndAfter) {
  Clock c;
  std::vector<std::pair<Picos, Picos>> seen;
  c.add_observer([&](Picos b, Picos a) { seen.emplace_back(b, a); });
  c.advance(10);
  c.advance(5);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], (std::pair<Picos, Picos>{0, 10}));
  EXPECT_EQ(seen[1], (std::pair<Picos, Picos>{10, 15}));
}

TEST(Clock, RemovedObserverStopsFiring) {
  Clock c;
  int count = 0;
  const std::size_t id = c.add_observer([&](Picos, Picos) { ++count; });
  c.advance(1);
  c.remove_observer(id);
  c.advance(1);
  EXPECT_EQ(count, 1);
}

TEST(Clock, ZeroAdvanceDoesNotNotify) {
  Clock c;
  int count = 0;
  c.add_observer([&](Picos, Picos) { ++count; });
  c.advance(0);
  EXPECT_EQ(count, 0);
}

TEST(EventLog, DisabledByDefaultAndDropsRecords) {
  Clock clock;
  EventLog log{clock};
  log.set_current_tenant(7);
  {
    SpanScope span{log};  // consumes span id 1
    log.record(EventType::kMigrationH2D, 0, 64);
  }
  EXPECT_TRUE(log.events().empty());

  // Enabled, every event carries the clock's time and the current tenant
  // and span; callers pass only type, va, bytes and aux.
  log.set_enabled(true);
  clock.advance(5);
  log.record(EventType::kMigrationH2D, 0x1000, 64, 3);
  {
    SpanScope span{log};
    clock.advance(10);
    log.record(EventType::kEviction, 0x2000, 128);
  }
  ASSERT_EQ(log.events().size(), 2u);
  const Event& a = log.events()[0];
  EXPECT_EQ(a.time, 5);
  EXPECT_EQ(a.type, EventType::kMigrationH2D);
  EXPECT_EQ(a.va, 0x1000u);
  EXPECT_EQ(a.bytes, 64u);
  EXPECT_EQ(a.aux, 3u);
  EXPECT_EQ(a.tenant, 7u);
  EXPECT_EQ(a.span, 0u);
  const Event& b = log.events()[1];
  EXPECT_EQ(b.time, 15);
  EXPECT_EQ(b.aux, 0u);
  EXPECT_EQ(b.tenant, 7u);
  EXPECT_EQ(b.span, 2u);  // the disabled log's scope took id 1
}

TEST(EventLog, CountsAndBytesByType) {
  Clock clock;
  EventLog log{clock};
  log.set_enabled(true);
  log.record(EventType::kMigrationH2D, 0, 64);
  log.record(EventType::kMigrationH2D, 0, 36);
  log.record(EventType::kEviction, 0, 100);
  EXPECT_EQ(count_events(log, EventType::kMigrationH2D), 2u);
  EXPECT_EQ(event_bytes(log, EventType::kMigrationH2D), 100u);
  EXPECT_EQ(count_events(log, EventType::kEviction), 1u);
  EXPECT_EQ(count_events(log, EventType::kMigrationD2H), 0u);
}

TEST(EventLog, EveryTypeHasAName) {
  for (int i = 0; i <= static_cast<int>(EventType::kNumaHintFault); ++i) {
    EXPECT_NE(to_string(static_cast<EventType>(i)), "unknown");
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a{123}, b{123};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

// The first draws of every kind, from two seeds, as recorded from the
// generator. The other Rng tests check determinism and ranges only; these
// values pin the xoshiro256** step, Lemire's multiply-shift and its
// rejection loop (bound 2^63 + 1 rejects almost half of all draws: 9 and 12
// rejections in the six draws below), the 53-bit double and the
// inter-arrival gap, in this order, on one generator.
TEST(Rng, DrawsMatchPinnedSequence) {
  struct Pinned {
    std::uint64_t seed;
    std::uint64_t u64[4];
    std::uint64_t below10[8];
    std::uint64_t below_big[6];
    double unit[4];
    std::uint64_t interarrival[4];
  };
  const Pinned kPinned[] = {
      {1,
       {12966619160104079557ull, 9600361134598540522ull, 10590380919521690900ull,
        7218738570589545383ull},
       {6, 1, 0, 3, 8, 5, 9, 9},
       {742075105987018307ull, 4531995491836664855ull, 588214690273458903ull,
        4272544425560275912ull, 4579162290364057788ull, 3574009588945467731ull},
       {0x1.b5780394bd137p-1, 0x1.8095d3e035f05p-1, 0x1.f6e8ec2f4fd34p-1,
        0x1.67db41ca23d4p-7},
       {1763, 856, 790, 1298}},
      {0x9e3779b97f4a7c15ull,
       {4768932952251265552ull, 16168679545894742312ull, 6487188721686299062ull,
        86499648889209533ull},
       {8, 2, 3, 6, 6, 9, 8, 3},
       {3534366506635315274ull, 1625402924696689954ull, 8681817724758405903ull,
        7477892572578627981ull, 376357661036911519ull, 980465662506563336ull},
       {0x1.a7ad7fc833958p-1, 0x1.c6be65a4ce7e8p-1, 0x1.bf9c1a3f968p-2,
        0x1.b95dbecd6d74p-2},
       {438, 219, 1508, 1090}},
  };
  constexpr std::uint64_t kBig = (1ull << 63) + 1;
  for (const Pinned& p : kPinned) {
    SCOPED_TRACE(p.seed);
    Rng r{p.seed};
    for (const std::uint64_t v : p.u64) EXPECT_EQ(r.next_u64(), v);
    for (const std::uint64_t v : p.below10) EXPECT_EQ(r.next_below(10), v);
    for (const std::uint64_t v : p.below_big) EXPECT_EQ(r.next_below(kBig), v);
    for (const double v : p.unit) EXPECT_EQ(r.next_double(), v);
    for (const std::uint64_t v : p.interarrival) EXPECT_EQ(r.next_interarrival(1000), v);
  }
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a{1}, b{2};
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += a.next_u64() == b.next_u64();
  EXPECT_LT(equal, 2);
}

TEST(Rng, NextBelowStaysInRange) {
  Rng r{7};
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowCoversRange) {
  Rng r{9};
  bool seen[8]{};
  for (int i = 0; i < 1'000; ++i) seen[r.next_below(8)] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng r{11};
  for (int i = 0; i < 10'000; ++i) {
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, DoubleMeanIsRoughlyHalf) {
  Rng r{13};
  double sum = 0;
  const int n = 100'000;
  for (int i = 0; i < n; ++i) sum += r.next_double();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

}  // namespace
}  // namespace ghum::sim
