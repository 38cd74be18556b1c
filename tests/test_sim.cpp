#include <gtest/gtest.h>

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
  EventLog log;
  log.record(Event{.time = 1, .type = EventType::kMigrationH2D, .va = 0, .bytes = 64});
  EXPECT_TRUE(log.events().empty());
}

TEST(EventLog, CountsAndBytesByType) {
  EventLog log;
  log.set_enabled(true);
  log.record(Event{.time = 1, .type = EventType::kMigrationH2D, .va = 0, .bytes = 64});
  log.record(Event{.time = 2, .type = EventType::kMigrationH2D, .va = 0, .bytes = 36});
  log.record(Event{.time = 3, .type = EventType::kEviction, .va = 0, .bytes = 100});
  EXPECT_EQ(log.count(EventType::kMigrationH2D), 2u);
  EXPECT_EQ(log.total_bytes(EventType::kMigrationH2D), 100u);
  EXPECT_EQ(log.count(EventType::kEviction), 1u);
  EXPECT_EQ(log.count(EventType::kMigrationD2H), 0u);
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
