#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/hotspot.hpp"
#include "chk/snapshot.hpp"
#include "event_counts.hpp"
#include "net/halo.hpp"
#include "runtime/runtime.hpp"
#include "sim/rng.hpp"

/// Randomized state-machine tests: long deterministic sequences of
/// allocator/driver/access operations, with global invariants re-checked
/// after every step. These are the simulator's crash-and-conservation
/// fuzzers — any residency-ledger desync, frame leak, or page-table
/// inconsistency the directed tests miss should trip here.

namespace ghum {
namespace {

core::SystemConfig fuzz_config(std::uint64_t page) {
  core::SystemConfig cfg;
  cfg.system_page_size = page;
  cfg.hbm_capacity = 8ull << 20;
  cfg.ddr_capacity = 96ull << 20;
  cfg.gpu_driver_baseline = 1ull << 20;
  cfg.access_counter_migration = true;
  cfg.counter_min_interval = sim::microseconds(5);
  return cfg;
}

struct Live {
  core::Buffer buf;
  bool managed = false;
};

void check_invariants(core::System& sys, const std::vector<Live>& live) {
  auto& m = sys.machine();
  // Frames on each node never exceed capacity (allocator guarantees it;
  // the ledger must agree with the VMA-level residency sums).
  std::uint64_t vma_cpu = 0, vma_gpu = 0;
  for (const auto& l : live) {
    const os::Vma* v = m.address_space().find(l.buf.va);
    ASSERT_NE(v, nullptr);
    vma_cpu += v->resident_cpu_bytes;
    vma_gpu += v->resident_gpu_bytes;
  }
  EXPECT_EQ(vma_cpu, m.cpu_rss_bytes());
  EXPECT_EQ(vma_gpu + sys.config().gpu_driver_baseline,
            m.frames(mem::Node::kGpu).used());
  EXPECT_EQ(vma_cpu, m.frames(mem::Node::kCpu).used());
  EXPECT_LE(m.frames(mem::Node::kGpu).used(), sys.config().hbm_capacity);
}

class FuzzSweep : public ::testing::TestWithParam<std::tuple<std::uint64_t, int>> {};

TEST_P(FuzzSweep, RandomOpSequenceKeepsLedgersConsistent) {
  const auto [page, seed] = GetParam();
  core::System sys{fuzz_config(page)};
  runtime::Runtime rt{sys};
  sim::Rng rng{static_cast<std::uint64_t>(seed) * 7919 + 13};

  std::vector<Live> live;
  for (int step = 0; step < 300; ++step) {
    const std::uint64_t op = rng.next_below(10);
    if (op < 2 || live.empty()) {
      // Allocate (sizes span partial pages and multiple blocks).
      const std::uint64_t bytes = 1 + rng.next_below(5ull << 20);
      Live l;
      l.managed = rng.next_below(2) == 0;
      l.buf = l.managed ? rt.malloc_managed(bytes) : rt.malloc_system(bytes);
      live.push_back(l);
    } else if (op == 2 && live.size() > 1) {
      const std::size_t idx = rng.next_below(live.size());
      rt.free(live[idx].buf);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else if (op == 3) {
      // Explicit prefetch of a random sub-range, either direction.
      Live& l = live[rng.next_below(live.size())];
      const std::uint64_t off = rng.next_below(l.buf.bytes);
      const std::uint64_t len = 1 + rng.next_below(l.buf.bytes - off);
      sys.prefetch(l.buf, off, len,
                   rng.next_below(2) ? mem::Node::kGpu : mem::Node::kCpu);
    } else if (op == 4) {
      // Advice (managed-only advice guarded).
      Live& l = live[rng.next_below(live.size())];
      const auto pick = rng.next_below(l.managed ? 5 : 3);
      using MA = core::System::MemAdvice;
      static constexpr MA kAll[] = {MA::kPreferredLocationCpu,
                                    MA::kPreferredLocationGpu,
                                    MA::kUnsetPreferredLocation, MA::kReadMostly,
                                    MA::kUnsetReadMostly};
      sys.mem_advise(l.buf, kAll[pick]);
    } else if (op == 5) {
      // Host sweep over a random range.
      Live& l = live[rng.next_below(live.size())];
      const std::uint64_t n = l.buf.bytes / sizeof(float);
      if (n == 0) continue;
      sys.host_phase_begin("h");
      {
        runtime::Span<float> s{sys, l.buf, mem::Node::kCpu};
        const std::uint64_t start = rng.next_below(n);
        const std::uint64_t count = std::min<std::uint64_t>(n - start, 20'000);
        for (std::uint64_t i = start; i < start + count; ++i) {
          if (rng.next_below(4) == 0) {
            s.store(i, 1.0f);
          } else {
            (void)s.load(i);
          }
        }
      }
      (void)sys.host_phase_end();
    } else {
      // GPU sweep (dense or strided) over a random range.
      Live& l = live[rng.next_below(live.size())];
      const std::uint64_t n = l.buf.bytes / sizeof(float);
      if (n == 0) continue;
      sys.kernel_begin("k");
      {
        runtime::Span<float> s{sys, l.buf, mem::Node::kGpu};
        const std::uint64_t start = rng.next_below(n);
        const std::uint64_t stride = 1 + rng.next_below(64);
        std::uint64_t touched = 0;
        for (std::uint64_t i = start; i < n && touched < 20'000; i += stride) {
          if (rng.next_below(4) == 0) {
            s.store(i, 2.0f);
          } else {
            (void)s.load(i);
          }
          ++touched;
        }
      }
      (void)sys.kernel_end();
    }
    check_invariants(sys, live);
  }
  // Tear everything down: the machine must return to its pristine state.
  for (auto& l : live) rt.free(l.buf);
  EXPECT_EQ(sys.machine().frames(mem::Node::kCpu).used(), 0u);
  EXPECT_EQ(sys.machine().frames(mem::Node::kGpu).used(),
            sys.config().gpu_driver_baseline);
  EXPECT_EQ(sys.machine().system_pt().mapped_pages(), 0u);
  EXPECT_EQ(sys.machine().gpu_pt().mapped_pages(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FuzzSweep,
    ::testing::Combine(::testing::Values(pagetable::kSystemPage4K,
                                         pagetable::kSystemPage64K),
                       ::testing::Range(0, 6)),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) == pagetable::kSystemPage4K
                             ? "p4k_"
                             : "p64k_") +
             std::to_string(std::get<1>(info.param));
    });

/// The per-access accountant that runtime::Span's batched page transitions
/// replaced, kept as their oracle: every element is accounted on its own,
/// entering a page or seeing the epoch move goes through a full
/// System::resolve(), and each page visit commits the cachelines it
/// touched. Span must drive the System exactly as this does.
template <typename T>
class ReferenceSpan {
 public:
  ReferenceSpan(core::System& sys, const core::Buffer& buf, mem::Node origin)
      : sys_(&sys), origin_(origin), va_(buf.va), ptr_(reinterpret_cast<T*>(buf.host)) {}
  ReferenceSpan(const ReferenceSpan&) = delete;
  ReferenceSpan& operator=(const ReferenceSpan&) = delete;
  ~ReferenceSpan() { commit(); }

  T load(std::size_t i) {
    touch(i, false);
    return ptr_[i];
  }
  void store(std::size_t i, T v) {
    touch(i, true);
    ptr_[i] = v;
  }
  const T* load_run(std::size_t i, std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) touch(i + k, false);
    return ptr_ + i;
  }
  T* store_run(std::size_t i, std::size_t count) {
    for (std::size_t k = 0; k < count; ++k) touch(i + k, true);
    return ptr_ + i;
  }

 private:
  void touch(std::size_t i, bool write) {
    const std::uint64_t addr = va_ + i * sizeof(T);
    if (addr < view_.page_base || addr >= view_.page_end ||
        sys_->epoch() != view_.epoch) {
      commit();
      view_ = sys_->resolve(addr, origin_);
      lines_.assign((view_.page_end - view_.page_base + view_.line_size - 1) /
                        view_.line_size,
                    false);
    }
    const std::uint64_t line = (addr - view_.page_base) / view_.line_size;
    if (!lines_[line]) {
      lines_[line] = true;
      ++pend_lines_;
    }
    ++(write ? pend_nw_ : pend_nr_);
  }

  void commit() {
    if ((pend_nr_ | pend_nw_) == 0) return;
    sys_->commit(view_, pend_nr_ * sizeof(T), pend_nw_ * sizeof(T), pend_lines_,
                 pend_nr_ + pend_nw_);
    pend_nr_ = pend_nw_ = pend_lines_ = 0;
  }

  core::System* sys_;
  mem::Node origin_;
  std::uint64_t va_;
  T* ptr_;
  core::PageView view_{};  // starts invalid (page_base=1 > page_end=0)
  std::vector<bool> lines_;
  std::uint64_t pend_nr_ = 0;
  std::uint64_t pend_nw_ = 0;
  std::uint64_t pend_lines_ = 0;
};

/// dst[j + c] = src[i + c] for c in [0, count): one two-stream account()
/// through Span, where a commit of one stream can move the epoch under the
/// other's view; element by element, read then write, through the
/// reference.
void copy_run(runtime::Span<float>& src, runtime::Span<float>& dst, std::size_t i,
              std::size_t j, std::size_t count) {
  const auto [from, to] = runtime::account(count, src.reads(i), dst.writes(j));
  std::copy_n(from, count, to);
}
void copy_run(ReferenceSpan<float>& src, ReferenceSpan<float>& dst, std::size_t i,
              std::size_t j, std::size_t count) {
  for (std::size_t c = 0; c < count; ++c) dst.store(j + c, src.load(i + c));
}

struct SpanOutcome {
  sim::Picos end = 0;
  std::uint64_t digest = 0;
  std::size_t ecc_retirements = 0;
  std::size_t retirements_under_spans = 0;  ///< serviced while a span was live
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// Each TLB's entries, most recent first.
  std::vector<std::vector<std::pair<std::uint64_t, mem::Node>>> tlbs;
};

/// A seeded workload of bulk and strided sweeps from both sides, two-stream
/// GPU copies and prefetches, under fault injection that bumps the residency epoch while
/// spans hold cached page views (ECC retirements evict resident blocks,
/// denials trigger fallback placement, migrations retry), accounted
/// through SpanT.
template <template <typename> class SpanT>
SpanOutcome run_span_workload(std::uint64_t seed) {
  auto cfg = fuzz_config(pagetable::kSystemPage64K);
  cfg.event_log = true;
  cfg.faults.enabled = true;
  cfg.faults.frame_alloc_denial_prob = 0.02;
  cfg.faults.migration_batch_fail_prob = 0.05;
  // The first CUDA call charges the 8 ms context init, so the spans run
  // from about 8.1 ms on; the retirements fall due among them, while HBM
  // is full enough that they evict managed blocks and bump the epoch.
  for (int k = 0; k < 6; ++k) {
    cfg.faults.ecc_events.push_back(
        {.time = sim::microseconds(8300 + 250 * k), .bytes = 1ull << 20});
  }
  cfg.faults.link_degrade = {{.start = sim::microseconds(8200),
                              .duration = sim::microseconds(600),
                              .bandwidth_factor = 4.0,
                              .latency_factor = 2.0}};
  core::System sys{cfg};
  runtime::Runtime rt{sys};
  sim::Rng rng{seed};
  std::vector<core::Buffer> live;
  live.push_back(rt.malloc_managed(4 << 20));
  live.push_back(rt.malloc_system(4 << 20));
  SpanOutcome out;
  auto retirements = [&sys] {
    return count_events(sys.events(), sim::EventType::kEccRetirement);
  };
  for (int step = 0; step < 60; ++step) {
    const std::uint64_t op = rng.next_below(7);
    core::Buffer& b = live[rng.next_below(live.size())];
    const std::uint64_t n = b.bytes / sizeof(float);
    if (op == 0) {
      sys.prefetch(b, 0, b.bytes, rng.next_below(2) ? mem::Node::kGpu : mem::Node::kCpu);
      continue;
    }
    if (op == 6) {
      // GPU copy between the two buffers, both the same size.
      sys.kernel_begin("copy");
      {
        const std::size_t before = retirements();
        SpanT<float> src{sys, b, mem::Node::kGpu};
        SpanT<float> dst{sys, live[&b == &live[0] ? 1 : 0], mem::Node::kGpu};
        const std::uint64_t i = rng.next_below(n);
        const std::uint64_t j = rng.next_below(n);
        copy_run(src, dst, i, j, n - std::max(i, j));
        out.retirements_under_spans += retirements() - before;
      }
      (void)sys.kernel_end();
      continue;
    }
    const bool gpu = op > 3;
    if (gpu) {
      sys.kernel_begin("k");
    } else {
      sys.host_phase_begin("h");
    }
    {
      const std::size_t before = retirements();
      SpanT<float> s{sys, b, gpu ? mem::Node::kGpu : mem::Node::kCpu};
      const std::uint64_t start = rng.next_below(n);
      if (op == 3) {
        // Host scalar strided sweep: keeps the per-element path in the mix.
        const std::uint64_t stride = 1 + rng.next_below(32);
        std::uint64_t touched = 0;
        for (std::uint64_t i = start; i < n && touched < 10'000; i += stride, ++touched) {
          (void)s.load(i);
        }
      } else if (rng.next_below(2)) {
        // Bulk sweeps run to the end of the buffer, crossing many pages of
        // a residency run.
        std::fill_n(s.store_run(start, n - start), n - start, gpu ? 2.0f : 1.0f);
      } else {
        (void)s.load_run(start, n - start);
      }
      out.retirements_under_spans += retirements() - before;
    }
    if (gpu) {
      (void)sys.kernel_end();
    } else {
      (void)sys.host_phase_end();
    }
  }
  // The TLBs are read before the frees shoot their entries down.
  // The TLBs are read before the frees shoot their entries down.
  const pagetable::Smmu& smmu = sys.machine().smmu();
  const pagetable::Gmmu& gmmu = sys.machine().gmmu();
  for (const pagetable::Tlb* tlb :
       {&smmu.cpu_tlb(), &smmu.ats_tlb(), &gmmu.utlb_gpu(), &gmmu.utlb_sys()}) {
    auto& order = out.tlbs.emplace_back();
    tlb->for_each_mru([&order](std::uint64_t vpn, mem::Node node) {
      order.emplace_back(vpn, node);
    });
  }
  for (auto& b : live) rt.free(b);
  out.end = sys.now();
  out.digest = sys.events().digest(sys.now());
  out.ecc_retirements = count_events(sys.events(), sim::EventType::kEccRetirement);
  for (const auto& [name, value] : sys.stats().snapshot()) {
    out.counters.emplace_back(name, value);
  }
  return out;
}

/// Differential fuzz for Span's batched accounting: the same faulted
/// workload runs once through runtime::Span and once through the
/// per-access ReferenceSpan. Any use of a stale cached run, or any page
/// visit accounted differently, would desync the two; they must agree on
/// simulated end time, the full event stream, every counter and the
/// recency order of every TLB.
TEST(FuzzSpanDifferential, SpanMatchesPerAccessReferenceUnderFaults) {
  for (std::uint64_t seed : {11ull, 29ull, 63ull}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const SpanOutcome ref = run_span_workload<ReferenceSpan>(seed);
    const SpanOutcome fast = run_span_workload<runtime::Span>(seed);
    EXPECT_EQ(ref.end, fast.end);
    EXPECT_EQ(ref.digest, fast.digest);
    EXPECT_EQ(ref.counters, fast.counters);
    EXPECT_EQ(ref.tlbs, fast.tlbs);
    EXPECT_EQ(ref.ecc_retirements, fast.ecc_retirements);
    // The hazard must actually have been exercised: ECC retirements moved
    // pages underneath live spans.
    EXPECT_GE(fast.retirements_under_spans, 1u);
    EXPECT_EQ(ref.retirements_under_spans, fast.retirements_under_spans);
    EXPECT_FALSE(fast.tlbs[0].empty());  // the CPU TLB
    EXPECT_FALSE(fast.tlbs[3].empty());  // the GPU's ATS uTLB
  }
}

/// Crash-point fuzzing for checkpoint/restore: the same randomized op
/// sequence runs straight through, and again with a snapshot/restore cut
/// at a pseudo-random op index (between ops — never inside a kernel). The
/// restored run adopts the donor's buffer backing (host pointers survive)
/// and must finish on the same simulated end time with the same event
/// digest. Any state the Snapshotter forgets to carry — a TLB entry, an
/// access-counter cursor, an LRU position — shifts the continuation's
/// timeline and trips here.
TEST(FuzzCrashPoint, SnapshotRestoreContinueMatchesUninterruptedRun) {
  auto run = [](std::uint64_t seed, bool cut) {
    auto cfg = fuzz_config(pagetable::kSystemPage64K);
    cfg.event_log = true;
    auto sys = std::make_unique<core::System>(cfg);
    auto rt = std::make_unique<runtime::Runtime>(*sys);
    sim::Rng rng{seed * 6271 + 5};
    const int kOps = 80;
    // Drawn in both runs so the op stream is identical with and without
    // the snapshot/restore cut.
    const int cut_draw = 10 + static_cast<int>(rng.next_below(60));
    const int cut_at = cut ? cut_draw : -1;

    std::vector<core::Buffer> live;
    live.push_back(rt->malloc_managed(3 << 20));
    live.push_back(rt->malloc_system(3 << 20));
    for (int step = 0; step < kOps; ++step) {
      if (step == cut_at) {
        const chk::Blob blob = chk::Snapshotter::snapshot(*sys);
        std::unique_ptr<core::System> restored =
            chk::Snapshotter::restore(blob, sys.get());
        rt->rebind(*restored);
        sys = std::move(restored);
      }
      const std::uint64_t op = rng.next_below(6);
      core::Buffer& b = live[rng.next_below(live.size())];
      const std::uint64_t n = b.bytes / sizeof(float);
      if (op == 0) {
        sys->prefetch(b, 0, b.bytes,
                      rng.next_below(2) ? mem::Node::kGpu : mem::Node::kCpu);
      } else if (op < 3) {
        sys->host_phase_begin("h");
        {
          runtime::Span<float> s{*sys, b, mem::Node::kCpu};
          const std::uint64_t start = rng.next_below(n);
          const std::uint64_t count = std::min<std::uint64_t>(n - start, 30'000);
          if (rng.next_below(2)) {
            std::fill_n(s.store_run(start, count), count,
                        static_cast<float>(step));
          } else {
            (void)s.load_run(start, count);
          }
        }
        (void)sys->host_phase_end();
      } else {
        sys->kernel_begin("k");
        {
          runtime::Span<float> s{*sys, b, mem::Node::kGpu};
          const std::uint64_t start = rng.next_below(n);
          const std::uint64_t count = std::min<std::uint64_t>(n - start, 30'000);
          if (rng.next_below(2)) {
            std::fill_n(s.store_run(start, count), count,
                        static_cast<float>(step) * 2);
          } else {
            (void)s.load_run(start, count);
          }
        }
        (void)sys->kernel_end();
      }
    }
    for (auto& b : live) rt->free(b);
    return std::pair{sys->now(), sys->events().digest(sys->now())};
  };
  for (std::uint64_t seed : {3ull, 17ull, 51ull, 88ull}) {
    const auto straight = run(seed, false);
    const auto resumed = run(seed, true);
    EXPECT_EQ(straight.first, resumed.first) << "seed " << seed;
    EXPECT_EQ(straight.second, resumed.second) << "seed " << seed;
  }
}

/// Differential fuzz for the lossy fabric: a 2-node halo exchange runs
/// twice under a *random* drop/corrupt schedule (probabilities and chaos
/// seed themselves drawn per iteration), and must be bit-for-bit
/// reproducible — same fabric digest, same application checksum. Any
/// hidden nondeterminism in the retransmission protocol (an unseeded
/// draw, iteration-order dependence in the per-link RNG map, fate
/// streams coupling across links) trips here where the directed tests'
/// fixed schedules would not.
TEST(FuzzLossyFabric, RandomChaosScheduleIsReproducible) {
  auto halo_cfg = [] {
    core::SystemConfig cfg;
    cfg.system_page_size = pagetable::kSystemPage64K;
    cfg.hbm_capacity = 16ull << 20;
    cfg.ddr_capacity = 256ull << 20;
    cfg.gpu_driver_baseline = 1ull << 20;
    cfg.event_log = true;
    return cfg;
  };
  sim::Rng meta{0xC4A05ull};
  for (int iter = 0; iter < 4; ++iter) {
    net::MultiNodeConfig mc;
    mc.nodes = 2;
    mc.mode = apps::MemMode::kManaged;
    mc.node_config = halo_cfg();
    mc.messages.enabled = true;
    mc.messages.seed = meta.next_u64();
    mc.messages.drop_prob =
        static_cast<double>(meta.next_below(40)) / 100.0;  // [0, 0.39]
    mc.messages.corrupt_prob =
        static_cast<double>(meta.next_below(30)) / 100.0;  // [0, 0.29]
    apps::HotspotConfig h;
    h.rows = 64;
    h.cols = 64;
    h.iterations = 3;
    const net::MultiNodeResult a = net::run_hotspot_halo(mc, h);
    const net::MultiNodeResult b = net::run_hotspot_halo(mc, h);
    EXPECT_EQ(a.digest, b.digest) << "iter " << iter;
    EXPECT_EQ(a.checksum, b.checksum) << "iter " << iter;
    EXPECT_EQ(a.makespan, b.makespan) << "iter " << iter;
  }
}

/// The two reliability-protocol error codes round-trip through
/// to_string like every other status (fleet logs print them verbatim).
TEST(FuzzLossyFabric, NewStatusCodesRoundTrip) {
  EXPECT_EQ(to_string(Status::kErrorRetransmitExhausted),
            "retransmit budget exhausted");
  EXPECT_EQ(to_string(Status::kErrorDataCorruption),
            "data corruption detected");
  EXPECT_NE(to_string(Status::kErrorRetransmitExhausted),
            to_string(Status::kErrorDataCorruption));
}

TEST(FuzzDeterminism, SameSeedSameSimulatedTimeline) {
  auto run = [](int seed) {
    core::System sys{fuzz_config(pagetable::kSystemPage64K)};
    runtime::Runtime rt{sys};
    sim::Rng rng{static_cast<std::uint64_t>(seed)};
    core::Buffer b = rt.malloc_managed(4 << 20);
    for (int i = 0; i < 50; ++i) {
      sys.kernel_begin("k");
      {
        runtime::Span<float> s{sys, b, mem::Node::kGpu};
        for (int j = 0; j < 1000; ++j) {
          s.store(rng.next_below(b.bytes / 4), 1.f);
        }
      }
      (void)sys.kernel_end();
    }
    return sys.now();
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

}  // namespace
}  // namespace ghum
