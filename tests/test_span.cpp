#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>
#include <vector>

#include "fault/status.hpp"
#include "runtime/runtime.hpp"
#include "runtime/span.hpp"
#include "sim/rng.hpp"

namespace ghum {
namespace {

core::SystemConfig span_config() {
  core::SystemConfig cfg;
  cfg.system_page_size = pagetable::kSystemPage4K;
  cfg.hbm_capacity = 8ull << 20;
  cfg.ddr_capacity = 64ull << 20;
  cfg.gpu_driver_baseline = 0;
  cfg.event_log = true;
  return cfg;
}

class SpanTest : public ::testing::Test {
 protected:
  core::System sys{span_config()};
  runtime::Runtime rt{sys};
};

TEST_F(SpanTest, LoadStoreRoundTripsRealData) {
  core::Buffer b = rt.malloc_system(1 << 16);
  sys.host_phase_begin("p");
  {
    auto s = rt.host_span<int>(b);
    for (int i = 0; i < 1000; ++i) s.store(i, i * 3);
    for (int i = 0; i < 1000; ++i) EXPECT_EQ(s.load(i), i * 3);
  }
  (void)sys.host_phase_end();
}

TEST_F(SpanTest, SequentialSweepChargesRawByteVolume) {
  core::Buffer b = rt.malloc_system(1 << 16);
  sys.host_phase_begin("seq");
  {
    auto s = rt.host_span<float>(b);
    for (std::size_t i = 0; i < s.size(); ++i) s.store(i, 1.0f);
  }
  const auto& rec = sys.host_phase_end();
  // Dense write sweep: line volume equals the buffer size exactly.
  EXPECT_EQ(rec.traffic.ddr_write_bytes, std::uint64_t{1} << 16);
}

TEST_F(SpanTest, StridedSweepIsAmplifiedToWholeLines) {
  core::Buffer b = rt.malloc_system(1 << 16);
  sys.host_phase_begin("strided");
  {
    auto s = rt.host_span<float>(b);
    // One 4-byte store per 64-byte line: 1024 lines.
    for (std::size_t i = 0; i < s.size(); i += 16) s.store(i, 1.0f);
  }
  const auto& rec = sys.host_phase_end();
  EXPECT_EQ(rec.traffic.ddr_write_bytes, 1024u * 64u);
}

TEST_F(SpanTest, RepeatedAccessToSameLineCountsOncePerPageVisit) {
  core::Buffer b = rt.malloc_system(1 << 16);
  sys.host_phase_begin("reuse");
  {
    auto s = rt.host_span<float>(b);
    for (int rep = 0; rep < 100; ++rep) {
      (void)s.load(3);  // same element, same line, same page visit
    }
  }
  const auto& rec = sys.host_phase_end();
  EXPECT_EQ(rec.traffic.ddr_read_bytes, 64u);
}

TEST_F(SpanTest, PageTransitionFlushesAndReresolves) {
  core::Buffer b = rt.malloc_system(16 << 10);  // 4 pages of 4 KiB
  sys.host_phase_begin("pages");
  {
    auto s = rt.host_span<std::uint8_t>(b);
    s.store(0, 1);
    s.store(4096, 1);
    s.store(8192, 1);
    s.store(12288, 1);
  }
  (void)sys.host_phase_end();
  // Four first-touch faults: one per page.
  EXPECT_EQ(sys.stats().get("os.fault.cpu_first_touch"), 4u);
}

TEST_F(SpanTest, GpuSpanUses128ByteLines) {
  core::Buffer b = rt.malloc_device(1 << 16);
  auto rec = rt.launch("k", 0, [&] {
    auto s = rt.device_span<float>(b);
    // One store per 128-byte line: 512 lines.
    for (std::size_t i = 0; i < s.size(); i += 32) s.store(i, 2.0f);
  });
  EXPECT_EQ(rec.traffic.l1l2_bytes, 512u * 128u);
}

TEST_F(SpanTest, EpochInvalidationAfterMigration) {
  core::Buffer b = rt.malloc_system(64 << 10);
  sys.host_phase_begin("touch");
  {
    auto s = rt.host_span<float>(b);
    for (std::size_t i = 0; i < s.size(); ++i) s.store(i, 1.0f);
  }
  (void)sys.host_phase_end();
  auto rec = rt.launch("k", 0, [&] {
    auto s = rt.device_span<float>(b);
    (void)s.load(0);  // resolves page 0 (CPU-resident, remote)
    // Mid-kernel migration invalidates the cached view via the epoch.
    sys.prefetch(b, 0, b.bytes, mem::Node::kGpu);
    (void)s.load(1);  // must re-resolve and see GPU-resident data
  });
  EXPECT_GT(rec.traffic.hbm_read_bytes, 0u);
}

TEST_F(SpanTest, OffsetSpanAddressesSubrange) {
  core::Buffer b = rt.malloc_system(1 << 12);
  sys.host_phase_begin("off");
  {
    auto s = rt.host_span<std::uint32_t>(b, 16, 4);
    EXPECT_EQ(s.size(), 4u);
    s.store(0, 7);
  }
  (void)sys.host_phase_end();
  EXPECT_EQ(reinterpret_cast<std::uint32_t*>(b.host)[16], 7u);
}

TEST_F(SpanTest, MutateCountsReadAndWrite) {
  core::Buffer b = rt.malloc_system(1 << 12);
  sys.host_phase_begin("rmw");
  {
    auto s = rt.host_span<int>(b);
    s.mutate(0) += 1;
  }
  const auto& rec = sys.host_phase_end();
  EXPECT_GT(rec.traffic.ddr_read_bytes, 0u);
  EXPECT_GT(rec.traffic.ddr_write_bytes, 0u);
}

TEST_F(SpanTest, ChasedLoadsPayFullTierLatency) {
  core::Buffer local = rt.malloc_host(1 << 12);
  sys.host_phase_begin("chase");
  const sim::Picos t0 = sys.now();
  {
    auto s = rt.host_span<std::uint32_t>(local);
    std::uint32_t cur = 0;
    for (int hop = 0; hop < 100; ++hop) cur = s.load_chased(cur % 1024);
    (void)cur;
  }
  (void)sys.host_phase_end();
  // 100 hops x 110 ns LPDDR5X latency dominates.
  EXPECT_GE(sys.now() - t0, 100 * sim::nanoseconds(110));
}

TEST_F(SpanTest, RemoteChaseIsSlowerThanLocalChase) {
  auto chase = [&](const core::Buffer& buf, mem::Node origin) {
    const sim::Picos t0 = sys.now();
    if (origin == mem::Node::kGpu) sys.kernel_begin("chase");
    {
      runtime::Span<std::uint32_t> s{sys, buf, origin};
      for (int hop = 0; hop < 100; ++hop) (void)s.load_chased(0);
    }
    if (origin == mem::Node::kGpu) {
      (void)sys.kernel_end();
    }
    return sys.now() - t0;
  };
  sys.ensure_gpu_context();
  core::Buffer dev = rt.malloc_device(1 << 12);
  core::Buffer host_side = rt.malloc_host(1 << 12);
  const sim::Picos local = chase(dev, mem::Node::kGpu);
  const sim::Picos remote = chase(host_side, mem::Node::kGpu);
  EXPECT_GT(remote, local);
}

TEST_F(SpanTest, RandomPatternChargesMatchAnalyticLineCount) {
  // Property: for any access pattern within one page visit, charged line
  // volume equals (distinct cachelines touched) x line size.
  core::Buffer b = rt.malloc_system(4 << 10);  // one 4 KiB page
  sim::Rng rng{123};
  std::vector<std::uint64_t> offsets;
  for (int i = 0; i < 400; ++i) offsets.push_back(rng.next_below(1024));
  std::set<std::uint64_t> distinct_lines;
  for (auto off : offsets) distinct_lines.insert(off * 4 / 64);

  sys.host_phase_begin("rand");
  {
    auto s = rt.host_span<std::uint32_t>(b);
    for (auto off : offsets) (void)s.load(off);
  }
  const auto& rec = sys.host_phase_end();
  EXPECT_EQ(rec.traffic.ddr_read_bytes, distinct_lines.size() * 64);
}

TEST_F(SpanTest, BulkRunChargesExactlyLikeScalarLoop) {
  // Same multi-page workload (unaligned start, partial tail, store sweep
  // then re-read) on two identical buffers: the bulk accessors must charge
  // the same bytes, lines and simulated time as the per-element loop.
  const std::uint64_t bytes = 96 << 10;  // 24 pages of 4 KiB
  core::Buffer a = rt.malloc_system(bytes);
  core::Buffer b = rt.malloc_system(bytes);
  const std::size_t n = bytes / sizeof(float) - 12;
  sys.host_phase_begin("scalar");
  {
    auto s = rt.host_span<float>(a);
    for (std::size_t i = 0; i < n; ++i) s.store(7 + i, 1.0f);
    for (std::size_t i = 0; i < n; ++i) (void)s.load(7 + i);
  }
  const cache::KernelRecord scalar = sys.host_phase_end();
  sys.host_phase_begin("bulk");
  {
    auto s = rt.host_span<float>(b);
    std::fill_n(s.store_run(7, n), n, 1.0f);
    (void)s.load_run(7, n);
  }
  const cache::KernelRecord bulk = sys.host_phase_end();
  EXPECT_EQ(bulk.traffic.ddr_write_bytes, scalar.traffic.ddr_write_bytes);
  EXPECT_EQ(bulk.traffic.ddr_read_bytes, scalar.traffic.ddr_read_bytes);
  EXPECT_EQ(bulk.duration, scalar.duration);
}

TEST_F(SpanTest, BulkRunGpuRemoteAccessMatchesScalar) {
  // GPU-origin access to CPU-resident system memory (the paper's hot
  // remote path, 128-byte lines over C2C): bulk == scalar, including the
  // GPU first-touch faults and link traffic.
  const std::uint64_t bytes = 64 << 10;
  core::Buffer a = rt.malloc_system(bytes);
  core::Buffer b = rt.malloc_system(bytes);
  const std::size_t n = bytes / sizeof(float);
  (void)rt.launch("warmup", 0, [] {});  // pay the one-time context init
  const auto scalar = rt.launch("scalar", 0, [&] {
    auto s = rt.device_span<float>(a);
    for (std::size_t i = 0; i < n; ++i) s.store(i, 2.0f);
  });
  const auto bulk = rt.launch("bulk", 0, [&] {
    auto s = rt.device_span<float>(b);
    std::fill_n(s.store_run(0, n), n, 2.0f);
  });
  EXPECT_EQ(bulk.traffic.c2c_write_bytes, scalar.traffic.c2c_write_bytes);
  EXPECT_EQ(bulk.traffic.l1l2_bytes, scalar.traffic.l1l2_bytes);
  EXPECT_EQ(bulk.traffic.gpu_first_touch_faults,
            scalar.traffic.gpu_first_touch_faults);
  EXPECT_EQ(bulk.duration, scalar.duration);
}

TEST_F(SpanTest, BulkRunRoundTripsRealData) {
  core::Buffer buf = rt.malloc_system(8 << 10);
  sys.host_phase_begin("rw");
  {
    auto s = rt.host_span<int>(buf);
    int* w = s.store_run(3, 1000);
    for (int i = 0; i < 1000; ++i) w[i] = i * 7;
    const int* r = s.load_run(3, 1000);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(r[i], i * 7);
  }
  (void)sys.host_phase_end();
}

TEST_F(SpanTest, BulkRunWideElementsFallBackToScalarMarking) {
  // Elements wider than a cacheline mark only their start lines; the bulk
  // path must not over-mark the lines in between.
  struct Wide {
    unsigned char d[96];  // > 64-byte CPU line
  };
  core::Buffer a = rt.malloc_system(32 << 10);
  core::Buffer b = rt.malloc_system(32 << 10);
  const std::size_t n = (32 << 10) / sizeof(Wide);
  sys.host_phase_begin("scalar");
  {
    auto s = rt.host_span<Wide>(a);
    for (std::size_t i = 0; i < n; ++i) s.store(i, Wide{});
  }
  const cache::KernelRecord scalar = sys.host_phase_end();
  sys.host_phase_begin("bulk");
  {
    auto s = rt.host_span<Wide>(b);
    std::fill_n(s.store_run(0, n), n, Wide{});
  }
  const cache::KernelRecord bulk = sys.host_phase_end();
  EXPECT_EQ(bulk.traffic.ddr_write_bytes, scalar.traffic.ddr_write_bytes);
  EXPECT_EQ(bulk.duration, scalar.duration);
}

TEST_F(SpanTest, AccountRejectsStreamRangesPastTheSpan) {
  core::Buffer b = rt.malloc_system(1 << 12);  // 1024 elements of 4 bytes
  sys.host_phase_begin("rejected");
  {
    auto s = rt.host_span<std::uint32_t>(b, 24);  // elements [24, 1024)
    auto t = rt.host_span<std::uint32_t>(b);
    EXPECT_THROW((void)runtime::account(1, t.reads(0), s.reads(1000)), std::out_of_range);
    EXPECT_THROW((void)runtime::account(2, s.writes(999)), std::out_of_range);
    EXPECT_THROW((void)runtime::account(1, s.reads(~std::size_t{0})), std::out_of_range);
    EXPECT_THROW((void)s.load_run(1, 1000), std::out_of_range);
    EXPECT_THROW((void)t.store_run(1025, 0), std::out_of_range);
  }
  // The range is checked before any access: t's in-range stream in the
  // first call was not charged either.
  const cache::KernelTraffic rejected = sys.host_phase_end().traffic;
  EXPECT_EQ(rejected.ddr_read_bytes + rejected.ddr_write_bytes, 0u);
  EXPECT_EQ(sys.stats().get("os.fault.cpu_first_touch"), 0u);
  sys.host_phase_begin("accepted");
  {
    auto s = rt.host_span<std::uint32_t>(b, 24);
    auto t = rt.host_span<std::uint32_t>(b);
    const auto [r, w] = runtime::account(1000, s.reads(0), t.writes(24));  // exact fit
    EXPECT_EQ(r, s.raw());
    EXPECT_EQ(w, t.raw() + 24);
    (void)runtime::account(0, s.reads(1000), t.writes(1024));  // empty, at the end
  }
  const cache::KernelTraffic accepted = sys.host_phase_end().traffic;
  EXPECT_GT(accepted.ddr_read_bytes, 0u);
  EXPECT_GT(accepted.ddr_write_bytes, 0u);
}

TEST_F(SpanTest, FlushIsIdempotent) {
  core::Buffer b = rt.malloc_system(1 << 12);
  sys.host_phase_begin("flush");
  {
    auto s = rt.host_span<int>(b);
    s.store(0, 1);
    s.flush();
    s.flush();
    s.store(1, 2);
  }
  const auto& rec = sys.host_phase_end();
  EXPECT_EQ(rec.traffic.ddr_write_bytes, 2u * 64u);  // two page visits, 1 line each
}

TEST_F(SpanTest, ConstructionRejectsRangesPastTheBuffer) {
  core::Buffer b = rt.malloc_system(1 << 12);  // 1024 elements of 4 bytes
  EXPECT_THROW((void)rt.host_span<std::uint32_t>(b, 1025), std::out_of_range);
  EXPECT_THROW((void)rt.host_span<std::uint32_t>(b, 1000, 25), std::out_of_range);
  EXPECT_THROW((void)rt.device_span<std::uint32_t>(b, 0, 1025), std::out_of_range);
  EXPECT_THROW((void)rt.host_span<std::uint32_t>(b, ~0ull, 2), std::out_of_range);
  EXPECT_EQ(rt.host_span<std::uint32_t>(b, 1024).size(), 0u);  // empty tail
  EXPECT_EQ(rt.host_span<std::uint32_t>(b, 1000, 24).size(), 24u);
  // A rejected span left nothing registered: the first-touch faults below
  // bump the epoch, which walks every attached cursor.
  sys.host_phase_begin("after");
  {
    auto s = rt.host_span<std::uint32_t>(b);
    for (std::size_t i = 0; i < s.size(); ++i) s.store(i, 1);
  }
  const auto& rec = sys.host_phase_end();
  EXPECT_EQ(rec.traffic.ddr_write_bytes, std::uint64_t{1} << 12);
}

// --- line cursor invalidation across spans ------------------------------------
// Each case parks span A mid-line, lets something else move pages (and so
// bump the epoch), then touches the *same line* through A again. A must
// start a new page visit — re-resolve and charge the line again — exactly
// as if it polled the epoch on every access.

TEST_F(SpanTest, OtherSpansGpuFaultInvalidatesMidLineCursor) {
  core::Buffer b = rt.malloc_managed(4 << 20);  // two 2 MiB GPU blocks
  const std::size_t block1 = (2 << 20) / sizeof(float);
  (void)rt.launch("warmup", 0, [] {});
  const auto rec = rt.launch("k", 0, [&] {
    auto a = rt.device_span<float>(b);
    auto c = rt.device_span<float>(b);
    (void)a.load(0);  // faults block 0 in; A's cursor holds line 0
    const std::uint64_t before = sys.epoch();
    (void)c.load(block1);  // faults block 1 in
    EXPECT_NE(sys.epoch(), before);
    (void)a.load(1);  // line 0 again: must re-resolve
  });
  // Per element: A made two page visits of one 128-byte line, C one.
  EXPECT_EQ(rec.traffic.l1l2_bytes, 3u * 128u);
  EXPECT_EQ(rec.traffic.gpu_accesses, 3u);
  EXPECT_EQ(rec.traffic.managed_faults, 2u);
}

TEST(SpanCursor, AccessCounterMigrationInvalidatesMidLineCursor) {
  core::SystemConfig cfg = span_config();
  cfg.system_page_size = pagetable::kSystemPage64K;
  cfg.access_counter_migration = true;
  cfg.access_counter_threshold = 16;
  cfg.counter_min_interval = 0;
  core::System sys{cfg};
  runtime::Runtime rt{sys};
  core::Buffer b = rt.malloc_system(256 << 10);  // four 64 KiB pages
  (void)rt.host_phase("init", 0, [&] {
    auto s = rt.host_span<float>(b);
    for (std::size_t i = 0; i < s.size(); ++i) s.store(i, 1.0f);
  });
  (void)rt.launch("warmup", 0, [] {});
  const std::size_t page1 = (64 << 10) / sizeof(float);
  const auto rec = rt.launch("k", 0, [&] {
    auto a = rt.device_span<float>(b);
    auto c = rt.device_span<float>(b);
    (void)a.load(0);  // remote read of CPU-resident page 0
    // 32 distinct 128-byte lines of page 1: committing them crosses the
    // counter threshold, and the driver moves the region to the GPU.
    for (std::size_t i = 0; i < 32; ++i) (void)c.load(page1 + i * 32);
    const std::uint64_t before = sys.epoch();
    c.flush();
    EXPECT_NE(sys.epoch(), before);
    (void)a.load(1);  // line 0 again: now GPU-resident
  });
  EXPECT_EQ(sys.access_counters().notifications(), 1u);
  // A's first visit and C's 32 lines went over C2C; A's second visit found
  // page 0 in HBM.
  EXPECT_EQ(rec.traffic.c2c_read_bytes, 33u * 128u);
  EXPECT_EQ(rec.traffic.hbm_read_bytes, 32u);  // one 32-byte sector
  EXPECT_EQ(rec.traffic.l1l2_bytes, 34u * 128u);
}

TEST_F(SpanTest, OwnFlushCollapsingAReplicaInvalidatesOtherCursors) {
  core::Buffer b = rt.malloc_managed(2 << 20);
  rt.mem_advise(b, core::System::MemAdvice::kReadMostly);
  (void)rt.host_phase("init", 0, [&] {
    auto s = rt.host_span<float>(b);
    for (std::size_t i = 0; i < s.size(); ++i) s.store(i, 3.0f);
  });
  (void)rt.launch("warmup", 0, [] {});
  const auto rec = rt.launch("k", 0, [&] {
    auto t = rt.device_span<float>(b);
    auto w = rt.device_span<float>(b);
    (void)t.load(0);  // read-duplicates the block; T's cursor holds line 0
    ASSERT_EQ(sys.managed_engine().replica_count(), 1u);
    (void)w.load(0);
    w.store(1, 4.0f);
    const std::uint64_t before = sys.epoch();
    w.flush();  // W's own commit writes the replica and collapses it
    EXPECT_NE(sys.epoch(), before);
    EXPECT_EQ(sys.managed_engine().replica_count(), 0u);
    EXPECT_EQ(t.load(1), 4.0f);  // line 0 again: must re-resolve
    (void)w.load(2);             // W re-resolves after its flush too
  });
  // T: two visits of one line; W: two visits of one line.
  EXPECT_EQ(rec.traffic.l1l2_bytes, 4u * 128u);
  EXPECT_EQ(rec.traffic.gpu_accesses, 5u);
}

TEST(SpanCursor, GpuResetUnwindingALaunchLeavesNoCursorAttached) {
  core::SystemConfig cfg = span_config();
  cfg.faults.enabled = true;
  cfg.faults.gpu_resets = {{.time = sim::seconds(1)}};
  core::System sys{cfg};
  runtime::Runtime rt{sys};
  core::Buffer managed = rt.malloc_managed(4 << 20);
  core::Buffer host = rt.malloc_system(64 << 10);
  (void)rt.host_phase("init", 0, [&] {
    auto s = rt.host_span<float>(host);
    for (std::size_t i = 0; i < s.size(); ++i) s.store(i, 1.0f);
  });
  const std::size_t block1 = (2 << 20) / sizeof(float);
  auto crash = [&] {
    auto a = rt.device_span<float>(managed);
    auto h = rt.device_span<float>(host);
    a.store(0, 2.0f);
    (void)h.load(0);
    sys.advance(sim::seconds(1));
    a.store(block1, 2.0f);  // resolve() services the due reset and throws
  };
  EXPECT_THROW((void)rt.launch("crash", 0, crash), StatusError);
  EXPECT_EQ(rt.get_last_error(), Status::kErrorGpuReset);
  sys.abort_phase();  // what the recovery ladder does after a crash
  // Further residency changes on the same System walk the cursor list.
  const std::uint64_t before = sys.epoch();
  rt.mem_prefetch(host, 0, host.bytes, mem::Node::kGpu);
  EXPECT_NE(sys.epoch(), before);
  const auto rec = rt.launch("after", 0, [&] {
    auto h = rt.device_span<float>(host);
    for (std::size_t i = 0; i < h.size(); ++i) (void)h.load(i);
  });
  EXPECT_EQ(rec.traffic.hbm_read_bytes, std::uint64_t{64} << 10);
  EXPECT_EQ(rec.traffic.c2c_read_bytes, 0u);
}

// --- account(): seeded differential against the per-element loop -----------
// Each seed draws a scenario — page size, origin, residency (explicit,
// managed with or without read-mostly replicas, system), element size,
// whether the buffers were CPU-first-touched — and a few launches of rows.
// A row is one account() call: 1-9 streams over a handful of spans (so
// several streams share a span, at nearby or distant offsets), each a read
// or a write. The same scenario then runs once through account() and once
// as the per-element load()/store() loop the call stands for, on two fresh
// Systems, and the two must agree on everything the memory model reports:
// event-log digest, per-launch KernelTraffic and duration, end time, every
// counter alias, and the buffers' final bytes. Rows cross pages, fault
// pages in (another span's fault bumps the epoch under a live view),
// trigger access-counter migrations and collapse read-mostly replicas with
// their own writes — the seeds together are checked to hit all of these.

template <std::size_t N>
struct Bytes {
  unsigned char d[N];
};

template <typename T>
T element(std::uint64_t v) {
  if constexpr (std::is_arithmetic_v<T>) {
    return static_cast<T>(v);
  } else {
    T t{};
    t.d[0] = static_cast<unsigned char>(v);
    t.d[sizeof(T) - 1] = static_cast<unsigned char>(v >> 8);
    return t;
  }
}

/// Read/write patterns of a row's streams (bit i set: stream i writes),
/// each a distinct account() instantiation: the stencil and DP kernels'
/// own shapes, qvsim's gate (four reads, then four writes in place), plus
/// interleavings of reads and writes, 1 to 9 streams.
struct Pattern {
  std::size_t k;
  std::uint32_t writes;
  bool in_place = false;  ///< streams k/2.. write the span and base of streams 0..
};
constexpr Pattern kPatterns[] = {
    {1, 0b0},        {1, 0b1},       {2, 0b01},       {2, 0b10},
    {2, 0b11},       {3, 0b010},     {3, 0b100},      {3, 0b101},
    {4, 0b1000},     {4, 0b1001},    {5, 0b10000},    {6, 0b100000},
    {7, 0b0101010},  {8, 0b11000000}, {8, 0b11110000, true}, {9, 0b111110000},
    {9, 0b100000000}, {9, 0b101010101},
};
constexpr std::size_t kNumPatterns = std::size(kPatterns);

struct StreamSpec {
  std::size_t span;
  std::size_t base;
  bool write;
};

struct Row {
  std::size_t n;
  std::size_t pattern;
  std::vector<StreamSpec> streams;
};

struct Launch {
  std::vector<std::size_t> span_buffer;  ///< buffer index of each span
  std::vector<Row> rows;
};

enum class Residency { kExplicit, kManaged, kReadMostly, kSystem };

struct Scenario {
  std::uint64_t page = pagetable::kSystemPage4K;
  mem::Node origin = mem::Node::kGpu;
  Residency residency = Residency::kSystem;
  bool pretouch = false;
  std::vector<Launch> launches;
};

constexpr std::size_t kBuffers = 3;
constexpr std::uint64_t kBufferBytes = 4ull << 20;  // two 2 MiB managed blocks

template <typename T>
Scenario draw_scenario(sim::Rng& rng) {
  Scenario sc;
  sc.page = rng.next_below(2) ? pagetable::kSystemPage4K : pagetable::kSystemPage64K;
  sc.origin = rng.next_below(3) ? mem::Node::kGpu : mem::Node::kCpu;
  sc.residency = static_cast<Residency>(rng.next_below(4));
  sc.pretouch = sc.residency == Residency::kReadMostly || rng.next_below(2) == 0;
  const std::size_t elems = kBufferBytes / sizeof(T);
  const std::size_t page_elems = std::max<std::size_t>(sc.page / sizeof(T), 1);
  const std::size_t launches = 1 + rng.next_below(3);
  for (std::size_t l = 0; l < launches; ++l) {
    Launch launch;
    const std::size_t spans = 1 + rng.next_below(4);
    for (std::size_t i = 0; i < spans; ++i) launch.span_buffer.push_back(rng.next_below(kBuffers));
    const std::size_t rows = 1 + rng.next_below(5);
    for (std::size_t r = 0; r < rows; ++r) {
      Row row;
      // Mostly a few pages long; sometimes empty or a single element.
      const std::uint64_t kind = rng.next_below(8);
      row.n = kind == 0 ? 0
              : kind == 1 ? 1
                          : static_cast<std::size_t>(1 + rng.next_below(3 * page_elems));
      row.n = std::min(row.n, elems / 2);
      row.pattern = rng.next_below(kNumPatterns);
      // Streams cluster around an anchor (a stencil's rows and neighbours)
      // or land anywhere in their buffer.
      const std::size_t anchor = rng.next_below(elems - row.n - 64);
      const Pattern& pat = kPatterns[row.pattern];
      for (std::size_t i = 0; i < pat.k; ++i) {
        StreamSpec sp;
        if (pat.in_place && i >= pat.k / 2) {
          sp = row.streams[i - pat.k / 2];
        } else {
          sp.span = rng.next_below(spans);
          sp.base = rng.next_below(2) ? anchor + rng.next_below(64)
                                      : rng.next_below(elems - row.n + 1);
        }
        sp.write = ((pat.writes >> i) & 1) != 0;
        row.streams.push_back(sp);
      }
      launch.rows.push_back(std::move(row));
    }
    sc.launches.push_back(std::move(launch));
  }
  return sc;
}

template <typename T>
using SpanSet = std::vector<std::unique_ptr<runtime::Span<T>>>;

std::uint64_t value_of(std::size_t c, std::size_t stream) { return c * 31 + stream + 1; }

/// Writes every write stream of \p row through the pointers account()
/// returned, in the per-element loop's order.
template <typename T>
void write_through(const Row& row, SpanSet<T>& spans, const std::vector<const T*>& ptrs) {
  ASSERT_EQ(ptrs.size(), row.streams.size());
  for (std::size_t i = 0; i < ptrs.size(); ++i) {
    ASSERT_EQ(ptrs[i], spans[row.streams[i].span]->raw() + row.streams[i].base);
  }
  for (std::size_t c = 0; c < row.n; ++c) {
    for (std::size_t i = 0; i < ptrs.size(); ++i) {
      if (row.streams[i].write) const_cast<T*>(ptrs[i])[c] = element<T>(value_of(c, i));
    }
  }
}

template <typename T, bool Write>
runtime::AffineStream<T, Write> stream_of(SpanSet<T>& spans, const StreamSpec& sp) {
  if constexpr (Write) {
    return spans[sp.span]->writes(sp.base);
  } else {
    return spans[sp.span]->reads(sp.base);
  }
}

/// One account() call over the row's streams, shaped by kPatterns[P].
template <typename T, std::size_t P, std::size_t... I>
void account_row(const Row& row, SpanSet<T>& spans, std::index_sequence<I...>) {
  constexpr std::uint32_t kWrites = kPatterns[P].writes;
  std::vector<const T*> ptrs;
  std::apply([&](auto... p) { (ptrs.push_back(p), ...); },
             runtime::account(row.n, stream_of<T, ((kWrites >> I) & 1) != 0>(
                                         spans, row.streams[I])...));
  write_through<T>(row, spans, ptrs);
}

template <typename T, std::size_t... P>
void dispatch_row(const Row& row, SpanSet<T>& spans, std::index_sequence<P...>) {
  ((row.pattern == P
        ? account_row<T, P>(row, spans, std::make_index_sequence<kPatterns[P].k>{})
        : void()),
   ...);
}

template <typename T>
void per_element_row(const Row& row, SpanSet<T>& spans) {
  for (std::size_t c = 0; c < row.n; ++c) {
    for (std::size_t i = 0; i < row.streams.size(); ++i) {
      const StreamSpec& sp = row.streams[i];
      if (sp.write) {
        spans[sp.span]->store(sp.base + c, element<T>(value_of(c, i)));
      } else {
        (void)spans[sp.span]->load(sp.base + c);
      }
    }
  }
}

struct Outcome {
  std::uint64_t digest = 0;
  sim::Picos end = 0;
  std::vector<cache::KernelTraffic> traffic;
  std::vector<sim::Picos> durations;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::vector<unsigned char>> data;
};

template <typename T>
Outcome run_scenario(const Scenario& sc, bool use_account) {
  core::SystemConfig cfg = span_config();
  cfg.system_page_size = sc.page;
  cfg.hbm_capacity = 32ull << 20;
  cfg.access_counter_migration = true;
  cfg.access_counter_threshold = 16;
  cfg.counter_min_interval = 0;
  core::System sys{cfg};
  runtime::Runtime rt{sys};
  // With explicit residency a GPU-origin scenario gets two device buffers
  // next to one pinned host buffer; the host never touches device memory.
  auto on_device = [&](std::size_t i) {
    return sc.residency == Residency::kExplicit && sc.origin == mem::Node::kGpu && i != 0;
  };
  std::vector<core::Buffer> bufs;
  for (std::size_t i = 0; i < kBuffers; ++i) {
    switch (sc.residency) {
      case Residency::kExplicit:
        bufs.push_back(on_device(i) ? rt.malloc_device(kBufferBytes)
                                    : rt.malloc_host(kBufferBytes));
        break;
      case Residency::kManaged:
      case Residency::kReadMostly:
        bufs.push_back(rt.malloc_managed(kBufferBytes));
        if (sc.residency == Residency::kReadMostly) {
          rt.mem_advise(bufs.back(), core::System::MemAdvice::kReadMostly);
        }
        break;
      case Residency::kSystem:
        bufs.push_back(rt.malloc_system(kBufferBytes));
        break;
    }
  }
  if (sc.pretouch) {
    (void)rt.host_phase("init", 0, [&] {
      for (std::size_t i = 0; i < kBuffers; ++i) {
        if (on_device(i)) continue;
        auto s = rt.host_span<unsigned char>(bufs[i]);
        std::fill_n(s.store_run(0, s.size()), s.size(), static_cast<unsigned char>(7));
      }
    });
  }
  (void)rt.launch("warmup", 0, [] {});
  Outcome out;
  for (const Launch& launch : sc.launches) {
    auto body = [&] {
      SpanSet<T> spans;
      for (const std::size_t b : launch.span_buffer) {
        spans.push_back(std::make_unique<runtime::Span<T>>(sys, bufs[b], sc.origin));
      }
      for (const Row& row : launch.rows) {
        if (use_account) {
          dispatch_row<T>(row, spans, std::make_index_sequence<kNumPatterns>{});
        } else {
          per_element_row<T>(row, spans);
        }
      }
    };
    const cache::KernelRecord rec = sc.origin == mem::Node::kGpu ? rt.launch("rows", 0, body)
                                                                 : rt.host_phase("rows", 0, body);
    out.traffic.push_back(rec.traffic);
    out.durations.push_back(rec.duration);
  }
  out.end = sys.now();
  out.digest = sys.events().digest(sys.now());
  for (const auto& [name, v] : sys.stats().snapshot()) out.counters.emplace_back(name, v);
  for (const core::Buffer& b : bufs) {
    const auto* p = reinterpret_cast<const unsigned char*>(b.host);
    out.data.emplace_back(p, p + b.bytes);
  }
  return out;
}

std::uint64_t counter(const Outcome& o, std::string_view name) {
  for (const auto& [n, v] : o.counters) {
    if (n == name) return v;
  }
  return 0;
}

template <typename T>
void check_seed(std::uint64_t seed, std::map<std::string, std::uint64_t>& coverage) {
  sim::Rng rng{seed};
  const Scenario sc = draw_scenario<T>(rng);
  const Outcome batched = run_scenario<T>(sc, /*use_account=*/true);
  const Outcome scalar = run_scenario<T>(sc, /*use_account=*/false);
  EXPECT_EQ(batched.digest, scalar.digest);
  EXPECT_EQ(batched.end, scalar.end);
  EXPECT_EQ(batched.traffic, scalar.traffic);
  EXPECT_EQ(batched.durations, scalar.durations);
  EXPECT_EQ(batched.counters, scalar.counters);
  EXPECT_TRUE(batched.data == scalar.data) << "buffer contents differ";
  for (const char* name : {"os.fault.gpu_first_touch", "driver.managed.gpu_faults",
                           "driver.counter.notifications",
                           "driver.managed.replicas_collapsed"}) {
    coverage[name] += counter(scalar, name);
  }
  coverage["wide elements"] += sizeof(T) > 128 ? 1 : 0;
}

TEST(SpanAccount, MatchesThePerElementLoopAcrossSeeds) {
  std::map<std::string, std::uint64_t> coverage;
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    switch (seed % 4) {
      case 0: check_seed<std::uint8_t>(seed, coverage); break;
      case 1: check_seed<float>(seed, coverage); break;
      case 2: check_seed<Bytes<16>>(seed, coverage); break;
      default: check_seed<Bytes<160>>(seed, coverage); break;
    }
  }
  // The seeds reach every mid-row event the accountant must hand to the
  // per-element path.
  for (const auto& [name, hits] : coverage) EXPECT_GT(hits, 0u) << name;
}

}  // namespace
}  // namespace ghum
