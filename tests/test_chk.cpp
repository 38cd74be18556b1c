#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ios>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "apps/hotspot.hpp"
#include "apps/qvsim.hpp"
#include "apps/srad.hpp"
#include "benchsupport/scenarios.hpp"
#include "chk/snapshot.hpp"
#include "runtime/runtime.hpp"
#include "sim/fnv.hpp"
#include "tenant/scheduler.hpp"

/// Checkpoint/restore tests (DESIGN.md Section 10): blob round trips, header
/// validation, and the core replay-equivalence guarantee — a run snapshotted
/// mid-flight, restored into a fresh System, and continued must be
/// bit-identical (same EventLog digest, same simulated end time) to the
/// uninterrupted run.

namespace ghum {
namespace {

core::SystemConfig chk_cfg() {
  core::SystemConfig cfg;
  cfg.system_page_size = pagetable::kSystemPage64K;
  cfg.hbm_capacity = 16ull << 20;
  cfg.ddr_capacity = 256ull << 20;
  cfg.gpu_driver_baseline = 1ull << 20;
  cfg.event_log = true;
  cfg.access_counter_migration = true;
  cfg.counter_min_interval = sim::microseconds(5);
  return cfg;
}

apps::HotspotConfig small_hotspot() {
  apps::HotspotConfig h;
  h.rows = 128;
  h.cols = 128;
  h.iterations = 3;
  return h;
}

struct RunOutcome {
  sim::Picos end = 0;
  std::uint64_t digest = 0;
  std::uint64_t checksum = 0;
};

/// Uninterrupted reference run.
RunOutcome run_straight(apps::MemMode mode) {
  core::System sys{chk_cfg()};
  runtime::Runtime rt{sys};
  const apps::AppReport rep = apps::run_hotspot(rt, mode, small_hotspot());
  return {sys.now(), sys.events().digest(sys.now()), rep.checksum};
}

/// Same run, but snapshotted after \p snap_steps coroutine steps, restored
/// into a fresh System (donor adoption + Runtime::rebind), and continued
/// there. The original System is destroyed before the continuation runs so
/// any surviving pointer into it would be caught by ASan/UBSan builds.
RunOutcome run_interrupted(apps::MemMode mode, int snap_steps) {
  auto sys = std::make_unique<core::System>(chk_cfg());
  auto rt = std::make_unique<runtime::Runtime>(*sys);
  apps::AppCoro coro = apps::hotspot_steps(*rt, mode, small_hotspot());

  bool alive = true;
  for (int i = 0; i < snap_steps && alive; ++i) alive = coro.step();

  const chk::Blob blob = chk::Snapshotter::snapshot(*sys);
  std::unique_ptr<core::System> restored =
      chk::Snapshotter::restore(blob, sys.get());
  rt->rebind(*restored);
  sys.reset();  // the donor dies; the coroutine must not miss it

  while (alive) alive = coro.step();
  const apps::AppReport& rep = coro.report();
  return {restored->now(), restored->events().digest(restored->now()),
          rep.checksum};
}

TEST(ChkRoundTrip, RestoredMachineCarriesIdenticalState) {
  core::System sys{chk_cfg()};
  runtime::Runtime rt{sys};
  (void)apps::run_hotspot(rt, apps::MemMode::kManaged, small_hotspot());

  const chk::Blob blob = chk::Snapshotter::snapshot(sys);
  std::unique_ptr<core::System> twin = chk::Snapshotter::restore(blob);

  EXPECT_EQ(twin->now(), sys.now());
  EXPECT_EQ(chk::Snapshotter::state_digest(*twin),
            chk::Snapshotter::state_digest(sys));
  // Re-serializing the twin reproduces the payload bit for bit.
  const chk::Blob again = chk::Snapshotter::snapshot(*twin);
  EXPECT_EQ(chk::Snapshotter::blob_digest(again),
            chk::Snapshotter::blob_digest(blob));
  EXPECT_EQ(again, blob);
}

TEST(ChkRoundTrip, SnapshotIsStableAcrossIdenticalRuns) {
  auto digest_of_run = [] {
    core::System sys{chk_cfg()};
    runtime::Runtime rt{sys};
    (void)apps::run_hotspot(rt, apps::MemMode::kSystem, small_hotspot());
    return chk::Snapshotter::state_digest(sys);
  };
  EXPECT_EQ(digest_of_run(), digest_of_run());
}

class ChkReplay : public ::testing::TestWithParam<apps::MemMode> {};

TEST_P(ChkReplay, ContinuedRunIsBitIdenticalToUninterrupted) {
  const apps::MemMode mode = GetParam();
  const RunOutcome straight = run_straight(mode);
  for (int snap_steps : {1, 2, 4}) {
    const RunOutcome resumed = run_interrupted(mode, snap_steps);
    EXPECT_EQ(resumed.end, straight.end) << "snap at step " << snap_steps;
    EXPECT_EQ(resumed.digest, straight.digest) << "snap at step " << snap_steps;
    EXPECT_EQ(resumed.checksum, straight.checksum)
        << "snap at step " << snap_steps;
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, ChkReplay,
                         ::testing::Values(apps::MemMode::kExplicit,
                                           apps::MemMode::kManaged,
                                           apps::MemMode::kSystem),
                         [](const auto& info) {
                           return std::string{apps::to_string(info.param)};
                         });

TEST(ChkRoundTrip, NonMaterializedBackingRoundTrips) {
  core::SystemConfig cfg = chk_cfg();
  cfg.materialize_backing = false;
  cfg.event_log = false;
  core::System sys{cfg};
  core::Buffer b = sys.sys_malloc(1 << 20, "virtual-only");
  (void)b;
  // No byte image exists: the VMA travels as its has-data=false record.
  const chk::Blob blob = chk::Snapshotter::snapshot(sys);
  std::unique_ptr<core::System> twin = chk::Snapshotter::restore(blob);
  EXPECT_EQ(chk::Snapshotter::state_digest(*twin),
            chk::Snapshotter::state_digest(sys));
}

TEST(ChkRoundTrip, MaximallyFragmentedAddressSpaceRoundTrips) {
  core::System sys{chk_cfg()};
  runtime::Runtime rt{sys};
  const std::uint64_t page = sys.config().system_page_size;
  core::Buffer b = rt.malloc_system(32 * page, "frag");
  ASSERT_EQ(sys.host_register(b), Status::kSuccess);
  // Alternate every other page to the GPU: worst-case fragmentation, one
  // extent per page across the whole allocation.
  for (std::uint64_t off = 0; off < b.bytes; off += 2 * page) {
    sys.prefetch(b, off, page, mem::Node::kGpu);
  }
  ASSERT_GE(sys.machine().system_pt().run_count(), 31u);

  const chk::Blob blob = chk::Snapshotter::snapshot(sys);
  std::unique_ptr<core::System> twin = chk::Snapshotter::restore(blob);
  EXPECT_EQ(chk::Snapshotter::state_digest(*twin),
            chk::Snapshotter::state_digest(sys));
  EXPECT_EQ(twin->machine().system_pt().run_count(),
            sys.machine().system_pt().run_count());
  EXPECT_EQ(chk::Snapshotter::snapshot(*twin), blob);
  rt.free(b);
}

TEST(ChkValidation, RejectsCorruptTruncatedAndAlienBlobs) {
  core::System sys{chk_cfg()};
  runtime::Runtime rt{sys};
  core::Buffer b = rt.malloc_managed(1 << 20);
  (void)b;
  chk::Blob blob = chk::Snapshotter::snapshot(sys);

  // Flipped payload byte: digest check trips.
  chk::Blob corrupt = blob;
  corrupt.back() ^= 0x5a;
  EXPECT_THROW((void)chk::Snapshotter::restore(corrupt), StatusError);

  // Truncated payload: size check trips.
  chk::Blob trunc{blob.begin(), blob.begin() + 40};
  EXPECT_THROW((void)chk::Snapshotter::restore(trunc), StatusError);

  // Truncated below even the header: both entry points reject it.
  chk::Blob stub{blob.begin(), blob.begin() + 10};
  EXPECT_THROW((void)chk::Snapshotter::restore(stub), StatusError);
  EXPECT_THROW((void)chk::Snapshotter::blob_digest(stub), StatusError);

  // Alien magic.
  chk::Blob alien = blob;
  alien[0] ^= 0xff;
  EXPECT_THROW((void)chk::Snapshotter::restore(alien), StatusError);

  // Unsupported format version, including the retired versions 1 to 3.
  // The payload digest does not cover the header, so this exercises the
  // version check itself (offset 8 is the version word, io.hpp).
  ASSERT_EQ(chk::kFormatVersion, 4u);
  for (const std::uint8_t v : {std::uint8_t{0}, std::uint8_t{1}, std::uint8_t{2},
                               std::uint8_t{3}, std::uint8_t(chk::kFormatVersion + 1)}) {
    chk::Blob vers = blob;
    vers[8] = v;
    EXPECT_THROW((void)chk::Snapshotter::restore(vers), StatusError)
        << "version " << int{v};
  }
}

/// Little-endian bytes of \p v.
std::vector<std::uint8_t> le_bytes(std::uint64_t v) {
  std::vector<std::uint8_t> out;
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  return out;
}

/// Offsets of every occurrence of \p pat.
std::vector<std::size_t> find_bytes(const chk::Blob& blob,
                                    const std::vector<std::uint8_t>& pat) {
  std::vector<std::size_t> hits;
  for (auto it = std::search(blob.begin(), blob.end(), pat.begin(), pat.end());
       it != blob.end();
       it = std::search(it + 1, blob.end(), pat.begin(), pat.end())) {
    hits.push_back(static_cast<std::size_t>(it - blob.begin()));
  }
  return hits;
}

/// Offsets of every occurrence of the little-endian u64s \p words, in order.
std::vector<std::size_t> find_u64s(const chk::Blob& blob,
                                   std::initializer_list<std::uint64_t> words) {
  std::vector<std::uint8_t> pat;
  for (const std::uint64_t w : words) {
    for (const std::uint8_t byte : le_bytes(w)) pat.push_back(byte);
  }
  return find_bytes(blob, pat);
}

/// Re-stamps the payload digest (header offset 12; the payload starts at
/// 28), so a crafted blob passes verify() and only the loader's own bounds
/// checks stand in its way.
chk::Blob restamped(chk::Blob blob) {
  const std::uint64_t d =
      sim::fnv1a(blob.data() + 28, blob.size() - 28, chk::kDigestSeed);
  std::copy_n(le_bytes(d).begin(), 8, blob.begin() + 12);
  return blob;
}

/// Overwrites the u64 at \p at, re-stamped.
chk::Blob with_u64(chk::Blob blob, std::size_t at, std::uint64_t v) {
  std::copy_n(le_bytes(v).begin(), 8, blob.begin() + at);
  return restamped(std::move(blob));
}

/// Overwrites the byte at \p at, re-stamped.
chk::Blob with_u8(chk::Blob blob, std::size_t at, std::uint8_t v) {
  blob[at] = v;
  return restamped(std::move(blob));
}

TEST(ChkValidation, ChecksumValidOversizedCountsAreRejected) {
  // A record count or a VMA size far beyond the blob must be refused before
  // anything is allocated for it, surfacing StatusError rather than
  // std::length_error or std::bad_alloc.
  core::SystemConfig cfg = chk_cfg();
  cfg.event_log = false;
  constexpr sim::Picos kMarker = 0x5eed'0000'1234'5678;
  cfg.faults.link_degrade = {{.start = kMarker}};
  core::System sys{cfg};
  const core::Buffer b = sys.sys_malloc(1 << 20, "probe");
  const chk::Blob blob = chk::Snapshotter::snapshot(sys);

  // The link_degrade count (1) precedes the marked window; a VMA record
  // starts with its base and size.
  const std::vector<std::size_t> windows = find_u64s(blob, {1, kMarker});
  const std::vector<std::size_t> vma = find_u64s(blob, {b.va, b.bytes});
  ASSERT_EQ(windows.size(), 1u);
  ASSERT_EQ(vma.size(), 1u);
  for (const std::size_t at : {windows[0], vma[0] + 8}) {
    for (const std::uint64_t n : {std::uint64_t{1} << 40, std::uint64_t{1} << 61}) {
      const chk::Blob crafted = with_u64(blob, at, n);
      ASSERT_TRUE(chk::Snapshotter::verify(crafted));
      EXPECT_THROW((void)chk::Snapshotter::restore(crafted), StatusError)
          << "u64 " << n << " at byte " << at;
    }
  }
}

/// The CPU TLB of tlb_probe_blob()'s machine holds its capacity, three
/// marker VPNs; the ATS TLB's odd capacity marks the config record.
constexpr std::uint64_t kProbeVpn = 0x7ee1'0000'0000'0000;
constexpr std::uint64_t kProbeAtsEntries = 0x1357;

chk::Blob tlb_probe_blob() {
  core::SystemConfig cfg = chk_cfg();
  cfg.event_log = false;
  cfg.cpu_tlb_entries = 3;
  cfg.ats_tlb_entries = kProbeAtsEntries;
  core::System sys{cfg};
  pagetable::Tlb& tlb = sys.machine().smmu().cpu_tlb();
  for (std::uint64_t i = 0; i < 3; ++i) tlb.insert(kProbeVpn + i, mem::Node::kCpu);
  return chk::Snapshotter::snapshot(sys);
}

/// Offset of the CPU TLB's entry count in tlb_probe_blob(): the count (3)
/// precedes the most recent VPN; each entry is a u64 VPN and a node byte.
std::size_t probe_tlb_count_at(const chk::Blob& blob) {
  const std::vector<std::size_t> at = find_u64s(blob, {3, kProbeVpn + 2});
  EXPECT_EQ(at.size(), 1u);
  return at.empty() ? 0 : at[0];
}

void expect_invalid_value(const chk::Blob& crafted) {
  ASSERT_TRUE(chk::Snapshotter::verify(crafted));
  try {
    (void)chk::Snapshotter::restore(crafted);
    FAIL() << "restore accepted a corrupt blob";
  } catch (const StatusError& e) {
    EXPECT_EQ(e.status(), Status::kErrorInvalidValue);
  }
}

TEST(ChkValidation, ChecksumValidTlbCountAboveCapacityIsRejected) {
  // Shrinking the saved CPU TLB capacity below the entries saved for it
  // would restore a TLB holding more translations than it can.
  const chk::Blob blob = tlb_probe_blob();
  EXPECT_EQ(chk::Snapshotter::restore(blob)->machine().smmu().cpu_tlb().size(), 3u);
  const std::vector<std::size_t> cfg_at = find_u64s(blob, {3, kProbeAtsEntries});
  ASSERT_EQ(cfg_at.size(), 1u);
  for (const std::uint64_t cap : {0u, 1u, 2u}) {
    expect_invalid_value(with_u64(blob, cfg_at[0], cap));
  }
}

TEST(ChkValidation, ChecksumValidUnbuildableConfigIsRejected) {
  // The machine's constructors refuse these configurations; restore must
  // report them as a bad blob, not let std::invalid_argument escape.
  const chk::Blob blob = tlb_probe_blob();
  // The payload (offset 28) opens with the system page size.
  expect_invalid_value(with_u64(blob, 28, 3000));
  // A TLB capacity its 32-bit entry links cannot address.
  const std::vector<std::size_t> cfg_at = find_u64s(blob, {3, kProbeAtsEntries});
  ASSERT_EQ(cfg_at.size(), 1u);
  expect_invalid_value(with_u64(blob, cfg_at[0], std::uint64_t{1} << 40));
}

TEST(ChkValidation, ChecksumValidTlbRepeatedVpnIsRejected) {
  // A VPN saved twice would leave two recency entries for one key.
  const chk::Blob blob = tlb_probe_blob();
  const std::size_t count_at = probe_tlb_count_at(blob);
  expect_invalid_value(with_u64(blob, count_at + 8 + 9, kProbeVpn + 2));
  expect_invalid_value(with_u64(blob, count_at + 8 + 18, kProbeVpn + 1));
}

TEST(ChkValidation, ChecksumValidTlbNodeOutsideNodeIsRejected) {
  const chk::Blob blob = tlb_probe_blob();
  const std::size_t count_at = probe_tlb_count_at(blob);
  EXPECT_NO_THROW((void)chk::Snapshotter::restore(with_u8(blob, count_at + 16, 1)));
  for (const std::uint8_t node : {std::uint8_t{2}, std::uint8_t{0xff}}) {
    expect_invalid_value(with_u8(blob, count_at + 16, node));
  }
}

TEST(ChkValidation, ChecksumValidManagedLruRepeatedBlockIsRejected) {
  // The LRU section is a count and the GPU-resident block bases, most
  // recent first. Naming one block twice would leave the other resident
  // block out of the driver's map, so eviction could never pick it.
  core::System sys{chk_cfg()};
  runtime::Runtime rt{sys};
  constexpr std::uint64_t kBlock = pagetable::kGpuPageSize;
  const core::Buffer m = rt.malloc_managed(2 * kBlock, "probe");
  rt.launch("touch", 0.0, [&] {
    runtime::Span<std::uint64_t> s{sys, m, mem::Node::kGpu};
    s.store(0, 1);
    s.store(kBlock / sizeof(std::uint64_t), 2);
  });
  ASSERT_EQ(sys.managed_engine().resident_blocks(), 2u);
  const chk::Blob blob = chk::Snapshotter::snapshot(sys);
  const std::vector<std::size_t> lru = find_u64s(blob, {2, m.va + kBlock, m.va});
  ASSERT_EQ(lru.size(), 1u);
  expect_invalid_value(with_u64(blob, lru[0] + 16, m.va + kBlock));
}

TEST(ChkValidation, ChecksumValidPteNodeOutsideNodeIsRejected) {
  // The machine indexes per-node tables with a restored PTE's node, so a
  // byte that names no node must be refused before anything indexes it.
  core::SystemConfig cfg = chk_cfg();
  cfg.event_log = false;
  core::System sys{cfg};
  runtime::Runtime rt{sys};
  constexpr std::uint64_t kPage = pagetable::kSystemPage64K;
  const core::Buffer b = rt.malloc_system(4 * kPage, "probe");
  rt.host_phase("touch", 0.0, [&] {
    runtime::Span<std::uint64_t> s{sys, b, mem::Node::kCpu};
    for (std::uint64_t p = 0; p < 4; ++p) {
      s.store(p * (kPage / sizeof(std::uint64_t)), p);
    }
  });
  const chk::Blob blob = chk::Snapshotter::snapshot(sys);
  // A run record is its first VPN, its page count and then the node byte.
  const std::vector<std::size_t> run = find_u64s(blob, {b.va / kPage, 4});
  ASSERT_EQ(run.size(), 1u);
  EXPECT_NO_THROW((void)chk::Snapshotter::restore(with_u8(blob, run[0] + 16, 1)));
  for (const std::uint8_t node : {std::uint8_t{2}, std::uint8_t{7}}) {
    expect_invalid_value(with_u8(blob, run[0] + 16, node));
  }
}

/// A machine with one 1 MiB system allocation labelled "probe", and the
/// offset of that VMA's record (its base and size) in the machine's blob.
std::pair<chk::Blob, std::size_t> vma_probe_blob() {
  core::SystemConfig cfg = chk_cfg();
  cfg.event_log = false;
  core::System sys{cfg};
  const core::Buffer b = sys.sys_malloc(1 << 20, "probe");
  chk::Blob blob = chk::Snapshotter::snapshot(sys);
  const std::vector<std::size_t> vma = find_u64s(blob, {b.va, b.bytes});
  EXPECT_EQ(vma.size(), 1u);
  return {std::move(blob), vma.empty() ? 0 : vma[0]};
}

TEST(ChkValidation, ChecksumValidVmaKindOutsideAllocKindIsRejected) {
  // The kind byte follows the VMA's base and size; every page resolve
  // switches on it.
  const auto [blob, vma_at] = vma_probe_blob();
  EXPECT_NO_THROW((void)chk::Snapshotter::restore(
      with_u8(blob, vma_at + 16, static_cast<std::uint8_t>(os::AllocKind::kManaged))));
  for (const std::uint8_t kind : {std::uint8_t{4}, std::uint8_t{0xff}}) {
    expect_invalid_value(with_u8(blob, vma_at + 16, kind));
  }
}

TEST(ChkValidation, ChecksumValidVmaPreferredNodeOutsideNodeIsRejected) {
  // After the kind come the label (a u64 length and the 5 bytes of
  // "probe"), the host-registered flag and the u32 tenant; then the
  // preferred location, stored as node + 1 with 0 for none.
  const auto [blob, vma_at] = vma_probe_blob();
  const std::size_t pref_at = vma_at + 16 + 1 + 8 + 5 + 1 + 4;
  ASSERT_EQ(blob[pref_at], 0);
  for (const std::uint8_t pref : {std::uint8_t{1}, std::uint8_t{2}}) {
    EXPECT_NO_THROW((void)chk::Snapshotter::restore(with_u8(blob, pref_at, pref)));
  }
  for (const std::uint8_t pref : {std::uint8_t{3}, std::uint8_t{9}, std::uint8_t{0xff}}) {
    expect_invalid_value(with_u8(blob, pref_at, pref));
  }
}

TEST(ChkValidation, ChecksumValidEventTypeOutsideEventTypeIsRejected) {
  // An event record is its time, its type byte, then its VA and size; the
  // probe allocation's record is the blob's first (VA, size) pair (the VMA
  // section comes later).
  core::System sys{chk_cfg()};
  const core::Buffer b = sys.sys_malloc(1 << 20, "probe");
  const chk::Blob blob = chk::Snapshotter::snapshot(sys);
  const std::vector<std::size_t> at = find_u64s(blob, {b.va, b.bytes});
  ASSERT_EQ(at.size(), 2u);
  const std::size_t type_at = at[0] - 1;
  ASSERT_EQ(blob[type_at], static_cast<std::uint8_t>(sim::EventType::kAllocation));
  EXPECT_NO_THROW((void)chk::Snapshotter::restore(with_u8(
      blob, type_at, static_cast<std::uint8_t>(sim::EventType::kJobRestart))));
  for (const std::uint8_t type : {std::uint8_t{25}, std::uint8_t{200}}) {
    expect_invalid_value(with_u8(blob, type_at, type));
  }
}

/// Offset of the kind byte of the ghum_faults_total{type="cpu_first_touch"}
/// registry slot in \p blob: the byte precedes the slot's name, its label
/// count and its label, each string prefixed by its u64 length.
std::size_t first_touch_slot_at(const chk::Blob& blob) {
  std::vector<std::uint8_t> pat;
  for (const std::string_view field :
       {std::string_view{"ghum_faults_total"}, std::string_view{}, std::string_view{"type"},
        std::string_view{"cpu_first_touch"}}) {
    // The empty field stands for the label count, 1.
    for (const std::uint8_t byte : le_bytes(field.empty() ? 1 : field.size())) {
      pat.push_back(byte);
    }
    pat.insert(pat.end(), field.begin(), field.end());
  }
  const std::vector<std::size_t> at = find_bytes(blob, pat);
  EXPECT_EQ(at.size(), 1u);
  return at.empty() ? 0 : at[0] - 1;
}

TEST(ChkValidation, ChecksumValidRegistryKindOutsideKindIsRejected) {
  // A kind byte that names no instrument kind would read no value, so the
  // rest of the stream would be misparsed.
  const chk::Blob blob = tlb_probe_blob();
  const std::size_t kind_at = first_touch_slot_at(blob);
  ASSERT_EQ(blob[kind_at], 0);  // a counter
  for (const std::uint8_t kind : {std::uint8_t{3}, std::uint8_t{0xff}}) {
    expect_invalid_value(with_u8(blob, kind_at, kind));
  }
}

TEST(ChkValidation, ChecksumValidRegistryKindChangeIsRejected) {
  // The fresh machine registers the slot as a counter before the registry
  // section is read; a blob that calls it a gauge or a histogram is corrupt.
  const chk::Blob blob = tlb_probe_blob();
  const std::size_t kind_at = first_touch_slot_at(blob);
  for (const std::uint8_t kind : {std::uint8_t{1}, std::uint8_t{2}}) {
    expect_invalid_value(with_u8(blob, kind_at, kind));
  }
}

TEST(ChkValidation, ChecksumValidFramesAboveCapacityAreRejected) {
  // Each frame allocator travels as (used, retired, total allocated, peak
  // used); its capacity is the configured one less the retired frames. A
  // GPU whose only frames are its odd-sized driver baseline marks the GPU
  // record. Frames used above capacity would wrap free_bytes() and admit
  // any allocation.
  constexpr std::uint64_t kBaseline = 0x123000;
  core::SystemConfig cfg = chk_cfg();
  cfg.event_log = false;
  cfg.gpu_driver_baseline = kBaseline;
  core::System sys{cfg};
  const chk::Blob blob = chk::Snapshotter::snapshot(sys);
  const std::vector<std::size_t> at = find_u64s(blob, {kBaseline, 0, kBaseline, kBaseline});
  ASSERT_EQ(at.size(), 1u);
  const std::size_t used_at = at[0];
  const std::size_t retired_at = at[0] + 8;
  EXPECT_NO_THROW((void)chk::Snapshotter::restore(with_u64(blob, used_at, cfg.hbm_capacity)));
  expect_invalid_value(with_u64(blob, used_at, cfg.hbm_capacity + (8ull << 20)));
  EXPECT_NO_THROW((void)chk::Snapshotter::restore(
      with_u64(blob, retired_at, cfg.hbm_capacity - kBaseline)));
  expect_invalid_value(with_u64(blob, retired_at, cfg.hbm_capacity - kBaseline + 1));
  expect_invalid_value(with_u64(blob, retired_at, cfg.hbm_capacity + 1));
}

TEST(ChkValidation, SnapshotInsideOpenKernelThrows) {
  // Also inside an open causal span or fault suppression: neither travels
  // in the blob, each belongs to a call still on the stack.
  core::SystemConfig cfg = chk_cfg();
  cfg.faults.enabled = true;
  core::System sys{cfg};
  const auto expect_refused = [&sys](const char* where) {
    try {
      (void)chk::Snapshotter::snapshot(sys);
      FAIL() << "snapshot inside an open " << where << " must throw";
    } catch (const StatusError& e) {
      EXPECT_EQ(e.status(), Status::kErrorInvalidValue);
    }
  };
  sys.kernel_begin("k");
  expect_refused("kernel");
  (void)sys.kernel_end();
  {
    sim::SpanScope span{sys.machine().events()};
    expect_refused("span");
  }
  {
    fault::FaultInjector::ScopedSuppress guard{sys.machine().fault_injector()};
    expect_refused("suppression");
  }
  EXPECT_NO_THROW((void)chk::Snapshotter::snapshot(sys));
}

TEST(ChkGolden, TlbSectionOfAChurnedMachineIsPinned) {
  // Every TLB is driven past its capacity, then loses single pages to
  // per-page invalidation and a span to a range shootdown, so the blob's
  // TLB section holds a non-trivial MRU-to-LRU order for all four. The
  // pin was recorded on the std::list + unordered_map TLB and moved only
  // with the checkpoint format (now v4); any change to the saved recency
  // order changes it.
  core::SystemConfig cfg = chk_cfg();
  cfg.event_log = false;
  cfg.hbm_capacity = 64ull << 20;
  cfg.cpu_tlb_entries = 6;
  cfg.ats_tlb_entries = 10;
  cfg.gpu_utlb_entries = 4;
  core::System sys{cfg};
  runtime::Runtime rt{sys};
  constexpr std::uint64_t kSysPage = pagetable::kSystemPage64K;
  constexpr std::uint64_t kGpuPage = pagetable::kGpuPageSize;
  constexpr std::uint64_t kSysPages = 24;
  constexpr std::uint64_t kGpuPages = 7;
  const core::Buffer host = rt.malloc_system(kSysPages * kSysPage, "host");
  const core::Buffer dev = rt.malloc_device(kGpuPages * kGpuPage, "dev");
  constexpr std::uint64_t kPerSysPage = kSysPage / sizeof(std::uint64_t);
  constexpr std::uint64_t kPerGpuPage = kGpuPage / sizeof(std::uint64_t);

  // Strided page orders (5 and 3 are coprime with the page counts) so
  // hits, misses and evictions interleave instead of streaming.
  rt.host_phase("touch", 0.0, [&] {
    runtime::Span<std::uint64_t> s{sys, host, mem::Node::kCpu};
    for (std::uint64_t i = 0; i < 3 * kSysPages; ++i) {
      s.store(((i * 5) % kSysPages) * kPerSysPage + i, i);
    }
  });
  rt.launch("sweep", 0.0, [&] {
    runtime::Span<std::uint64_t> s{sys, host, mem::Node::kGpu};
    runtime::Span<std::uint64_t> d{sys, dev, mem::Node::kGpu};
    for (std::uint64_t i = 0; i < 3 * kSysPages; ++i) {
      (void)s.load(((i * 5) % kSysPages) * kPerSysPage);
      if (i % 3 == 0) d.store(((i * 3) % kGpuPages) * kPerGpuPage + i, i);
    }
  });

  pagetable::Smmu& smmu = sys.machine().smmu();
  pagetable::Gmmu& gmmu = sys.machine().gmmu();
  for (const pagetable::Tlb* tlb : {&smmu.cpu_tlb(), &smmu.ats_tlb(),
                                    &gmmu.utlb_gpu(), &gmmu.utlb_sys()}) {
    ASSERT_EQ(tlb->size(), tlb->capacity());
    ASSERT_GT(tlb->misses(), tlb->capacity());
  }
  // Per-page invalidations, then one range shootdown per TLB.
  smmu.invalidate(host.va + 9 * kSysPage);
  gmmu.invalidate_system(host.va + 14 * kSysPage);
  gmmu.invalidate_gpu_table(dev.va + 3 * kGpuPage);
  smmu.invalidate_range(host.va + 18 * kSysPage, 4 * kSysPage);
  gmmu.invalidate_system_range(host.va + 3 * kSysPage, 5 * kSysPage);
  const std::uint64_t dev_vpn = sys.machine().gpu_pt().vpn(dev.va);
  gmmu.utlb_gpu().invalidate_range(dev_vpn + 1, dev_vpn + 3);
  for (const pagetable::Tlb* tlb : {&smmu.cpu_tlb(), &smmu.ats_tlb(),
                                    &gmmu.utlb_gpu(), &gmmu.utlb_sys()}) {
    EXPECT_GT(tlb->size(), 0u);
    EXPECT_LT(tlb->size(), tlb->capacity());
  }

  const chk::Blob blob = chk::Snapshotter::snapshot(sys);
  EXPECT_EQ(sim::fnv1a(blob.data(), blob.size()), 0x314401894678ede3ull);
  // Restore rebuilds every TLB in the saved order.
  EXPECT_EQ(chk::Snapshotter::snapshot(*chk::Snapshotter::restore(blob)), blob);
}

/// One page-granular pass over \p buf from \p origin, as the full-scale
/// benchmark sweeps it: advance_view inside a residency run, resolve at
/// run boundaries, one commit per page. Covers pages [first, last).
void sweep_pages(core::System& sys, const core::Buffer& buf, mem::Node origin,
                 std::uint64_t first, std::uint64_t last) {
  const std::uint64_t page = sys.config().system_page_size;
  core::PageView view;
  for (std::uint64_t p = first; p < last; ++p) {
    const std::uint64_t va = buf.va + p * page;
    if (!sys.advance_view(view, va)) view = sys.resolve(va, origin);
    const std::uint64_t read = 64 * (1 + p % 7);
    const std::uint64_t write = 64 * (p % 3);
    sys.commit(view, read, write, (read + write) / 64, (read + write) / 64);
  }
}

TEST(ChkGolden, FullScaleStreamingSweepIsPinned) {
  // The full-scale benchmark's shape at a few thousand pages: a CPU first
  // touch, half the buffer prefetched to HBM, then GPU passes and a CPU
  // read pass, each streaming more sequential misses than any TLB holds,
  // and last a short backwards GPU read. The checkpoint is taken mid-pass,
  // with the ATS TLB and the uTLB full of the pass's most recent pages.
  // The pins were recorded on the list-only TLB (the checkpoint bytes
  // re-pinned only for format v4): the recency order, counters, end time
  // and checkpoint bytes must not depend on how a TLB stores a sequential
  // stream.
  core::System sys{benchsupport::full_scale()};
  constexpr std::uint64_t kPages = 7000;  // > 4096, the largest TLB
  const std::uint64_t page = sys.config().system_page_size;
  const core::Buffer buf = sys.sys_malloc(kPages * page, "sweep");
  sweep_pages(sys, buf, mem::Node::kCpu, 0, kPages);
  sys.prefetch(buf, 0, kPages / 2 * page, mem::Node::kGpu);
  sys.kernel_begin("pass.0a");
  sweep_pages(sys, buf, mem::Node::kGpu, 0, 5000);
  (void)sys.kernel_end();

  const chk::Blob blob = chk::Snapshotter::snapshot(sys);
  EXPECT_EQ(sim::fnv1a(blob.data(), blob.size()), 0x1b499fd26b4bcd0eull);
  EXPECT_EQ(chk::Snapshotter::snapshot(*chk::Snapshotter::restore(blob)), blob);

  sys.kernel_begin("pass.0b");
  sweep_pages(sys, buf, mem::Node::kGpu, 5000, kPages);
  (void)sys.kernel_end();
  sys.kernel_begin("pass.1");
  sweep_pages(sys, buf, mem::Node::kGpu, 0, kPages);
  (void)sys.kernel_end();
  sys.host_phase_begin("read");
  sweep_pages(sys, buf, mem::Node::kCpu, 0, kPages);
  (void)sys.host_phase_end();
  // The last pages again, backwards: hits, first on the most recent page
  // and then further down the GPU's TLBs.
  sys.kernel_begin("tail");
  for (std::uint64_t p = kPages; p-- > kPages - 100;) {
    sys.commit(sys.resolve(buf.va + p * page, mem::Node::kGpu), 64, 0, 1, 1);
  }
  (void)sys.kernel_end();

  pagetable::Smmu& smmu = sys.machine().smmu();
  pagetable::Gmmu& gmmu = sys.machine().gmmu();
  const std::pair<const pagetable::Tlb*, const char*> tlbs[] = {
      {&smmu.cpu_tlb(), "smmu_cpu"},
      {&smmu.ats_tlb(), "smmu_ats"},
      {&gmmu.utlb_gpu(), "gmmu_gpu"},
      {&gmmu.utlb_sys(), "gmmu_ats"}};
  std::uint64_t order = sim::kFnvOffset;
  std::vector<std::uint64_t> counts;
  for (const auto& [tlb, mmu] : tlbs) {
    sim::fnv_mix(order, tlb->size());
    tlb->for_each_mru([&order](std::uint64_t vpn, mem::Node node) {
      sim::fnv_mix(order, vpn);
      sim::fnv_mix(order, static_cast<std::uint64_t>(node));
    });
    const obs::MetricsRegistry& reg = sys.machine().obs();
    const obs::Label label{"mmu", mmu};
    counts.insert(counts.end(),
                  {tlb->hits(), tlb->misses(),
                   reg.counter_sum("ghum_tlb_hits_total", &label),
                   reg.counter_sum("ghum_tlb_misses_total", &label)});
  }
  EXPECT_EQ(order, 0x2508c4eeab072cbull);
  // {hits, misses, registry hits, registry misses} per TLB.
  EXPECT_EQ(counts, (std::vector<std::uint64_t>{0, 14000, 0, 14000,    // CPU
                                                0, 14000, 0, 14000,    // ATS
                                                0, 0, 0, 0,            // GPU table
                                                100, 14000, 100, 14000}));  // uTLB
  EXPECT_EQ(sys.now(), 36340181427);
}

tenant::JobSpec qvsim_tenant(std::uint32_t qubits) {
  tenant::JobSpec spec;
  spec.name = "qvsim";
  spec.mode = apps::MemMode::kManaged;
  spec.footprint_bytes = 8ull << 20;
  spec.make = [qubits](runtime::Runtime& rt) {
    apps::QvConfig q;
    q.qubits = qubits;
    q.depth = 2;
    return apps::qvsim_steps(rt, apps::MemMode::kManaged, q);
  };
  return spec;
}

/// A machine that leaves no section at its defaults: 4 KiB pages, access
/// counters, AutoNUMA and the event log on, a renamed node, a fault
/// schedule with degrade windows, ECC events and a GPU reset (the first
/// window and ECC event consumed, the rest still ahead of the clock), two
/// tenants that evicted each other, a read-mostly replica left by a
/// prefetch that also protected a resident block, and both access-counter
/// maps holding counts below the threshold.
void build_busy_machine(std::unique_ptr<core::System>& out) {
  core::SystemConfig cfg = chk_cfg();
  cfg.name = "busy-node";
  cfg.system_page_size = pagetable::kSystemPage4K;
  cfg.hbm_capacity = 6ull << 20;
  cfg.autonuma_balancing = true;
  cfg.counter_region_bytes = 64ull << 10;
  cfg.access_counter_threshold = 1u << 20;
  cfg.faults.enabled = true;
  cfg.faults.seed = 0x5eed'c0deull;
  cfg.faults.link_degrade = {
      {.start = 0, .duration = sim::milliseconds(1), .bandwidth_factor = 3.0,
       .latency_factor = 1.5},
      {.start = sim::seconds(100), .duration = sim::seconds(1)}};
  cfg.faults.ecc_events = {{.time = sim::microseconds(10), .bytes = 64ull << 10},
                           {.time = sim::seconds(100)}};
  cfg.faults.gpu_resets = {{.time = sim::seconds(100)}};
  cfg.faults.ecc_retirement_budget = 1ull << 20;
  out = std::make_unique<core::System>(cfg);
  core::System& sys = *out;
  {
    tenant::Scheduler sched{sys};
    (void)sched.submit(qvsim_tenant(18));
    (void)sched.submit(qvsim_tenant(18));
    sched.run_all();
    ASSERT_EQ(sched.job(1).state, tenant::JobState::kFinished);
    ASSERT_EQ(sched.job(2).state, tenant::JobState::kFinished);
  }
  ASSERT_GT(sys.attribution().cross_tenant().count, 0u);

  runtime::Runtime rt{sys};
  constexpr std::uint64_t kBytes = 1ull << 20;
  const core::Buffer ro = rt.malloc_managed(kBytes, "read-mostly");
  const core::Buffer host = rt.malloc_system(kBytes, "counted");
  const core::Buffer gpu_first = rt.malloc_system(kBytes, "gpu-first");
  rt.host_phase("init", 0.0, [&] {
    runtime::Span<std::uint64_t> r{sys, ro, mem::Node::kCpu};
    runtime::Span<std::uint64_t> h{sys, host, mem::Node::kCpu};
    for (std::uint64_t i = 0; i < kBytes / 8; i += 512) {
      r.store(i, i);
      h.store(i, i);
    }
  });
  rt.mem_advise(ro, core::System::MemAdvice::kReadMostly);
  rt.mem_prefetch(ro, 0, kBytes / 2, mem::Node::kGpu);
  rt.mem_prefetch(ro, 0, kBytes, mem::Node::kGpu);
  rt.launch("count", 0.0, [&] {
    runtime::Span<std::uint64_t> h{sys, host, mem::Node::kGpu};
    runtime::Span<std::uint64_t> g{sys, gpu_first, mem::Node::kGpu};
    for (std::uint64_t i = 0; i < kBytes / 8; i += 64) {
      (void)h.load(i);
      g.store(i, i);
    }
  });
  rt.host_phase("read-back", 0.0, [&] {
    runtime::Span<std::uint64_t> g{sys, gpu_first, mem::Node::kCpu};
    for (std::uint64_t i = 0; i < kBytes / 8; i += 128) (void)g.load(i);
  });
  ASSERT_GT(sys.managed_engine().replica_count(), 0u);
  ASSERT_EQ(rt.get_last_error(), Status::kSuccess);
}

TEST(ChkGolden, EverySectionOfABusyMachineIsPinned) {
  // Pinned for format v4; a field written in another order or width
  // changes it.
  std::unique_ptr<core::System> sys;
  ASSERT_NO_FATAL_FAILURE(build_busy_machine(sys));
  const chk::Blob blob = chk::Snapshotter::snapshot(*sys);
  EXPECT_EQ(sim::fnv1a(blob.data(), blob.size()), 0xd84b18a5004aa752ull);
  EXPECT_EQ(chk::Snapshotter::snapshot(*chk::Snapshotter::restore(blob)), blob);
}

TEST(ChkRoundTrip, RecomputedStateMatchesTheDonor) {
  // The blob leaves out what restore recomputes, so the payload
  // comparisons above cannot see a recompute go wrong: compare each such
  // accessor with the donor's. The busy machine has evicted across
  // tenants, initialized its GPU context, retired ECC frames on the GPU,
  // filled every TLB and left its first link window behind; a retirement
  // on the CPU and a current tenant are added here.
  std::unique_ptr<core::System> sys;
  ASSERT_NO_FATAL_FAILURE(build_busy_machine(sys));
  core::Machine& m = sys->machine();
  ASSERT_EQ(m.frames(mem::Node::kCpu).retire(64ull << 10), 64ull << 10);
  ASSERT_GT(m.frames(mem::Node::kGpu).retired_bytes(), 0u);
  sys->set_current_tenant(2);
  const std::unique_ptr<core::System> twin =
      chk::Snapshotter::restore(chk::Snapshotter::snapshot(*sys));
  core::Machine& t = twin->machine();

  EXPECT_EQ(t.attribution().cross_tenant().count,
            m.attribution().cross_tenant().count);
  EXPECT_EQ(t.attribution().cross_tenant().bytes,
            m.attribution().cross_tenant().bytes);
  EXPECT_EQ(twin->current_tenant(), 2u);
  EXPECT_GT(sys->context_init_charged(), 0);
  EXPECT_EQ(twin->context_init_charged(), sys->context_init_charged());
  for (const mem::Node n : {mem::Node::kCpu, mem::Node::kGpu}) {
    EXPECT_EQ(t.frames(n).capacity(), m.frames(n).capacity()) << mem::to_string(n);
    EXPECT_EQ(t.frames(n).baseline(), m.frames(n).baseline()) << mem::to_string(n);
    EXPECT_EQ(t.frames(n).free_bytes(), m.frames(n).free_bytes()) << mem::to_string(n);
  }
  EXPECT_GT(m.address_space().rss_bytes(), 0u);
  EXPECT_EQ(t.address_space().rss_bytes(), m.address_space().rss_bytes());
  // The first link window, open from time 0, closed before the snapshot.
  EXPECT_FALSE(m.c2c().degraded());
  EXPECT_EQ(t.c2c().degraded(), m.c2c().degraded());
  EXPECT_EQ(t.c2c().latency(), m.c2c().latency());
  const auto tlbs = [](core::Machine& mach) {
    return std::vector<const pagetable::Tlb*>{
        &mach.smmu().cpu_tlb(), &mach.smmu().ats_tlb(), &mach.gmmu().utlb_gpu(),
        &mach.gmmu().utlb_sys()};
  };
  const std::vector<const pagetable::Tlb*> want = tlbs(m);
  const std::vector<const pagetable::Tlb*> got = tlbs(t);
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_GT(want[i]->misses(), 0u) << "TLB " << i;
    EXPECT_EQ(got[i]->hits(), want[i]->hits()) << "TLB " << i;
    EXPECT_EQ(got[i]->misses(), want[i]->misses()) << "TLB " << i;
  }
}

/// A machine whose first link-degrade window is open (the clock has moved
/// past its start) and whose second lies ahead.
std::unique_ptr<core::System> degraded_link_machine() {
  core::SystemConfig cfg = chk_cfg();
  cfg.event_log = false;
  cfg.faults.enabled = true;
  cfg.faults.link_degrade = {
      {.start = 0, .duration = sim::seconds(1), .bandwidth_factor = 3.0,
       .latency_factor = 1.5},
      {.start = sim::seconds(100), .duration = sim::seconds(1)}};
  auto sys = std::make_unique<core::System>(cfg);
  (void)sys->sys_malloc(1 << 20, "probe");
  return sys;
}

TEST(ChkRoundTrip, RestoredLinkTakesTheOpenWindowsFactors) {
  // The link's degrade factors are the open window's, so they do not
  // travel; restore applies them again.
  const std::unique_ptr<core::System> sys = degraded_link_machine();
  ASSERT_TRUE(sys->machine().c2c().degraded());
  const std::unique_ptr<core::System> twin =
      chk::Snapshotter::restore(chk::Snapshotter::snapshot(*sys));
  interconnect::NvlinkC2C& want = sys->machine().c2c();
  interconnect::NvlinkC2C& got = twin->machine().c2c();
  EXPECT_TRUE(got.degraded());
  EXPECT_EQ(got.latency(), want.latency());
  EXPECT_EQ(got.transfer(interconnect::Direction::kCpuToGpu, 1 << 20),
            want.transfer(interconnect::Direction::kCpuToGpu, 1 << 20));
}

TEST(ChkValidation, ChecksumValidActiveLinkWindowOutsideScheduleIsRejected) {
  // The payload ends with the injector's window cursor, the open window's
  // index (-1 for none) and the ECC and reset cursors, a u64 each.
  const std::unique_ptr<core::System> sys = degraded_link_machine();
  const chk::Blob blob = chk::Snapshotter::snapshot(*sys);
  const std::size_t active_at = blob.size() - 3 * 8;
  ASSERT_EQ(blob[active_at], 0);
  EXPECT_FALSE(chk::Snapshotter::restore(with_u64(blob, active_at, ~0ull))
                   ->machine().c2c().degraded());
  EXPECT_TRUE(chk::Snapshotter::restore(with_u64(blob, active_at, 1))
                  ->machine().c2c().degraded());
  for (const std::uint64_t active : {std::uint64_t{2}, std::uint64_t{1} << 40}) {
    expect_invalid_value(with_u64(blob, active_at, active));
  }
}

TEST(ChkDonor, HostPointersSurviveRestoreViaDonorAdoption) {
  auto sys = std::make_unique<core::System>(chk_cfg());
  runtime::Runtime rt{*sys};
  core::Buffer b = rt.malloc_system(1 << 20, "probe");
  sys->host_phase_begin("w");
  {
    runtime::Span<std::uint64_t> s{*sys, b, mem::Node::kCpu};
    s.store(7, 0xfeedfaceull);
  }
  (void)sys->host_phase_end();

  const chk::Blob blob = chk::Snapshotter::snapshot(*sys);
  std::unique_ptr<core::System> restored =
      chk::Snapshotter::restore(blob, sys.get());
  rt.rebind(*restored);
  sys.reset();

  restored->host_phase_begin("r");
  {
    runtime::Span<std::uint64_t> s{*restored, b, mem::Node::kCpu};
    EXPECT_EQ(s.load(7), 0xfeedfaceull);
  }
  (void)restored->host_phase_end();
  rt.free(b);
}

TEST(StatusStrings, EveryCodeHasADistinctName) {
  const std::vector<Status> all = {
      Status::kSuccess,
      Status::kErrorMemoryAllocation,
      Status::kErrorOutOfMemory,
      Status::kErrorInvalidValue,
      Status::kErrorDoubleFree,
      Status::kErrorEccUncorrectable,
      Status::kErrorGpuReset,
      Status::kErrorUnrecoverable,
      Status::kErrorTimeout,
      Status::kErrorNodeLost,
      Status::kErrorDeadlineExceeded,
  };
  // Round trip: every code maps to a unique, non-placeholder string, and
  // the string maps back to exactly one code.
  for (std::size_t i = 0; i < all.size(); ++i) {
    const std::string_view name = to_string(all[i]);
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "unknown");
    for (std::size_t j = 0; j < all.size(); ++j) {
      if (i != j) {
        EXPECT_NE(name, to_string(all[j]));
      }
    }
  }
  EXPECT_EQ(to_string(Status::kErrorGpuReset), "GPU channel reset");
  EXPECT_EQ(to_string(Status::kErrorUnrecoverable), "unrecoverable");
  EXPECT_EQ(to_string(Status::kErrorTimeout), "watchdog timeout");
  EXPECT_EQ(to_string(Status::kErrorNodeLost), "node lost");
  EXPECT_EQ(to_string(Status::kErrorDeadlineExceeded), "deadline exceeded");
}

/// Corruption fuzz for restore(): a malformed blob must always surface a
/// StatusError — never crash, never hand back a machine, and never touch
/// the donor. The blob layout is a 28-byte header (magic, version, payload
/// digest, payload size) followed by the digest-covered payload, so every
/// truncation and every single-byte flip lands in validated territory.
class ChkFuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    sys_ = std::make_unique<core::System>(chk_cfg());
    rt_ = std::make_unique<runtime::Runtime>(*sys_);
    probe_ = rt_->malloc_managed(256 << 10);
    // Fragment the system page table (alternate pages CPU/GPU) so the
    // fuzzed payload contains a multi-run extent section — flips and
    // truncations land inside the run records too.
    const std::uint64_t page = sys_->config().system_page_size;
    frag_ = rt_->malloc_system(8 * page, "frag");
    ASSERT_EQ(sys_->host_register(frag_), Status::kSuccess);
    for (std::uint64_t off = 0; off < frag_.bytes; off += 2 * page) {
      sys_->prefetch(frag_, off, page, mem::Node::kGpu);
    }
    blob_ = chk::Snapshotter::snapshot(*sys_);
    ASSERT_GT(blob_.size(), 28u);
  }

  std::unique_ptr<core::System> sys_;
  std::unique_ptr<runtime::Runtime> rt_;
  core::Buffer probe_;
  core::Buffer frag_;
  chk::Blob blob_;
};

TEST_F(ChkFuzz, EveryTruncationIsRejected) {
  // Every length through the header byte by byte, then strided through the
  // payload (stride coprime with 8 so cuts land at every field offset).
  for (std::size_t len = 0; len < blob_.size();
       len += (len < 64 ? 1 : 97)) {
    chk::Blob t{blob_.begin(), blob_.begin() + static_cast<std::ptrdiff_t>(len)};
    EXPECT_THROW((void)chk::Snapshotter::restore(t), StatusError)
        << "truncated to " << len << " of " << blob_.size() << " bytes";
  }
}

/// Each flip copies and re-hashes the whole blob, so the flip fuzz runs in
/// kFlipShards parameterised shards that ctest can run side by side:
/// shard k takes every kFlipShards-th flip position from the k-th on.
constexpr std::size_t kFlipShards = 8;

class ChkFuzzByteFlip : public ChkFuzz,
                        public ::testing::WithParamInterface<std::size_t> {};

TEST_P(ChkFuzzByteFlip, EverySingleByteFlipIsRejected) {
  // Every header byte plus strided payload positions, several flip masks.
  std::vector<std::size_t> positions;
  for (std::size_t i = 0; i < 64 && i < blob_.size(); ++i) positions.push_back(i);
  for (std::size_t i = 64; i < blob_.size(); i += 131) positions.push_back(i);
  positions.push_back(blob_.size() - 1);
  for (std::size_t n = GetParam(); n < positions.size(); n += kFlipShards) {
    const std::size_t pos = positions[n];
    for (const std::uint8_t mask : {0x01, 0x80, 0xff}) {
      chk::Blob flipped = blob_;
      flipped[pos] ^= mask;
      EXPECT_THROW((void)chk::Snapshotter::restore(flipped), StatusError)
          << "flip 0x" << std::hex << int{mask} << " at byte " << std::dec
          << pos;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shards, ChkFuzzByteFlip,
                         ::testing::Range<std::size_t>(0, kFlipShards));

TEST_F(ChkFuzz, FailedRestoreLeavesTheDonorIntact) {
  const std::uint64_t before = chk::Snapshotter::state_digest(*sys_);
  chk::Blob corrupt = blob_;
  corrupt[corrupt.size() / 2] ^= 0x40;
  // Validation precedes donor adoption: a rejected blob must not have
  // partially moved the donor's backing state.
  EXPECT_THROW((void)chk::Snapshotter::restore(corrupt, sys_.get()),
               StatusError);
  EXPECT_EQ(chk::Snapshotter::state_digest(*sys_), before);
  // The donor is still fully serviceable: a clean restore from it works.
  std::unique_ptr<core::System> twin =
      chk::Snapshotter::restore(blob_, sys_.get());
  EXPECT_EQ(chk::Snapshotter::state_digest(*twin), before);
}

}  // namespace
}  // namespace ghum
