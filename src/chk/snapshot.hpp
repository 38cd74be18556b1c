#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "chk/io.hpp"
#include "core/system.hpp"

/// \file snapshot.hpp
/// Deterministic checkpoint/restore of one simulated Grace Hopper node
/// (DESIGN.md Section 10). Snapshotter serializes the complete simulated
/// machine state — page tables and residency runs, physical-frame
/// accounting and retired ECC frames, TLB contents, driver-engine state
/// (managed LRU, migration byte counters, access-counter maps), fault
/// injector RNG and schedule cursors, the metrics registry, per-tenant
/// attribution, the event log, and every VMA's real backing bytes — into a
/// versioned, digest-stamped blob (chk/io.hpp describes the header).
///
/// restore() reconstructs a fresh core::System whose *continued* execution
/// is bit-identical to the uninterrupted run: same EventLog::digest(), same
/// simulated end time (tests/test_chk.cpp and bench_recovery enforce this
/// per app x memory mode). Passing the original System as \p donor lets the
/// restored machine adopt the donor's VMA backing arrays, so host pointers
/// held by live application coroutines stay valid across the swap
/// (runtime::Runtime::rebind switches the coroutine's Runtime onto the
/// restored System).
///
/// Not captured (observation-only; they never influence simulator
/// decisions or the event digest): memory-profiler samples, link-monitor
/// windows, and the WorkloadAnalysis kernel-record history. A restored run
/// restarts those series empty.

namespace ghum::chk {

/// A serialized machine checkpoint (header + payload, see io.hpp).
using Blob = std::vector<std::uint8_t>;

class Snapshotter {
 public:
  /// Serializes \p sys into a fresh blob. Must be called between phases,
  /// outside any causal span or fault suppression: those hold mid-flight
  /// state of a call still on the stack, so snapshotting there throws
  /// StatusError{kErrorInvalidValue}. The blob is always format
  /// kFormatVersion (io.hpp).
  [[nodiscard]] static Blob snapshot(core::System& sys);

  /// Validates the blob (magic, version, payload digest) and reconstructs
  /// a fresh System continuing from the checkpoint. Only kFormatVersion
  /// blobs are accepted. When \p donor is the
  /// System the blob was taken from (or a descendant), matching VMAs adopt
  /// the donor's backing arrays — application-held host pointers survive —
  /// and the fault injector's ECC/reset schedule cursors never rewind
  /// below the donor's (a restarted job must not deterministically
  /// re-crash on an already-consumed scheduled fault). Throws
  /// StatusError{kErrorInvalidValue} on a malformed or corrupt blob.
  [[nodiscard]] static std::unique_ptr<core::System> restore(
      const Blob& blob, core::System* donor = nullptr);

  /// FNV-1a fingerprint of the state a snapshot taken now would carry
  /// (identical machines => identical digests). Same phase restrictions
  /// as snapshot().
  [[nodiscard]] static std::uint64_t state_digest(core::System& sys);

  /// The payload digest stamped in \p blob's header. Throws
  /// StatusError{kErrorInvalidValue} when the header is malformed.
  [[nodiscard]] static std::uint64_t blob_digest(const Blob& blob);

  /// End-to-end integrity check: recomputes the payload digest and
  /// compares it to the header stamp. False on any mismatch or malformed
  /// header — the receiver-side verification a migration target runs
  /// before restoring a blob that crossed a lossy fabric (never throws).
  [[nodiscard]] static bool verify(const Blob& blob) noexcept;

 private:
  /// The config and machine-state sections of a snapshot taken now;
  /// \p caller names the refusing call inside an open kernel/phase/span.
  [[nodiscard]] static Writer payload(core::System& sys, const char* caller);

  /// Every machine-state section in payload order, over a Writer or a
  /// Reader (snapshot.cpp). \p donor is only read by the VMA loader.
  template <typename Ar>
  static void state(Ar& ar, core::System& sys, core::System* donor);

  // The sections restore rebuilds through their owner's own interface
  // instead of mirroring fields: one save and one load overload each.
  static void page_table(Writer& w, pagetable::PageTable& pt);
  static void page_table(Reader& r, pagetable::PageTable& pt);
  static void tlb(Writer& w, pagetable::Tlb& tlb);
  static void tlb(Reader& r, pagetable::Tlb& tlb);
  static void vmas(Writer& w, os::AddressSpace& as, core::System* donor);
  static void vmas(Reader& r, os::AddressSpace& as, core::System* donor);
  static void registry(Writer& w, obs::MetricsRegistry& reg);
  static void registry(Reader& r, obs::MetricsRegistry& reg);
  template <typename Ar>
  static void slot_value(Ar& ar, obs::MetricsRegistry& reg,
                         const obs::MetricsRegistry::Slot& slot);
  static void managed_lru(Writer& w, driver::ManagedEngine& me);
  static void managed_lru(Reader& r, driver::ManagedEngine& me);
};

}  // namespace ghum::chk
