#pragma once

#include <cstdint>
#include <vector>

#include "apps/hotspot.hpp"
#include "apps/qvsim.hpp"
#include "apps/srad.hpp"
#include "core/system_config.hpp"
#include "net/fabric.hpp"

/// \file halo.hpp
/// Multi-node workloads over the net::Fabric (DESIGN.md Section 12): the
/// classic HPC communication patterns, built on the existing coroutine app
/// steps. Each of 2..8 simulated superchips owns a private core::System
/// running a partition of the problem; the partitions advance in lockstep
/// at the apps' natural yield boundaries, and at every compute-step
/// boundary the boundary data moves through the fabric:
///
///  - halo exchange (hotspot, srad): each node holds a contiguous band of
///    rows and trades one ghost row (hotspot) or two field rows (srad)
///    with each neighbor after every stencil iteration — the canonical
///    nearest-neighbor BSP pattern;
///  - distributed statevector chunk exchange (qvsim): each of 2^k nodes
///    holds 2^(q-k) amplitudes; after every gate layer, partner pairs
///    across one global qubit swap half their local chunk, cycling through
///    the k global qubits — Qiskit-Aer's chunk distribution shape.
///
/// A node cannot start its next compute step before the last halo it
/// depends on has been delivered, so fabric serialization and link-flap
/// dilation propagate into the computation's critical path. Everything is
/// deterministic: two identical runs produce identical digests (per-node
/// event logs + the fabric history), which bench_netscope gates.

namespace ghum::net {

struct MultiNodeConfig {
  /// Simulated superchips (2..8; the qvsim pattern needs a power of two).
  std::uint32_t nodes = 2;
  apps::MemMode mode = apps::MemMode::kManaged;
  /// Per-node machine configuration (every node is identical).
  core::SystemConfig node_config;
  /// Fabric cost model, used when no external fabric is supplied.
  NetSpec net;
  /// Message-fault schedule for the private fabric. When enabled, every
  /// halo moves through the reliable send path (checksummed, acked,
  /// retransmitted) instead of the raw transfer path, so the exchange
  /// survives drops and corruption at the cost of the recovery traffic.
  /// Ignored when an external fabric is supplied (it owns its own
  /// schedule).
  fault::MessageFaultConfig messages;
};

struct MultiNodeResult {
  std::uint32_t nodes = 0;
  sim::Picos makespan = 0;             ///< max node-local end time
  std::vector<sim::Picos> node_end;    ///< per-node local end times
  sim::Picos net_wait = 0;   ///< total time nodes stalled waiting on halos
  std::uint64_t exchanges = 0;         ///< synchronization rounds performed
  std::uint64_t checksum = 0;          ///< FNV over partition checksums
  /// FNV over per-node end times, event digests, partition checksums and
  /// the fabric transfer history — the bit-for-bit reproducibility gate.
  std::uint64_t digest = 0;
  FabricTotals net;  ///< the fabric's totals() at the end of the run
};

/// Row-band halo exchange for the hotspot stencil. \p global is the whole
/// problem; each node gets rows/nodes rows (remainder to the low nodes)
/// and trades one ghost row per neighbor per iteration. Throws
/// StatusError{kErrorInvalidValue} on nodes outside 2..8 or a partition
/// with no rows. When \p fabric is null, a private one is built from
/// cfg.net; passing one shares counters/history with the caller.
[[nodiscard]] MultiNodeResult run_hotspot_halo(const MultiNodeConfig& cfg,
                                               const apps::HotspotConfig& global,
                                               Fabric* fabric = nullptr);

/// Same banding for srad; two field rows (image J and coefficient c) per
/// neighbor per diffusion iteration.
[[nodiscard]] MultiNodeResult run_srad_halo(const MultiNodeConfig& cfg,
                                            const apps::SradConfig& global,
                                            Fabric* fabric = nullptr);

/// Distributed statevector chunk exchange: 2^k nodes each simulate
/// qubits-k local qubits; after every gate step, partners across global
/// qubit (step mod k) swap half their chunk. Throws on a non-power-of-two
/// node count or too few qubits to split.
[[nodiscard]] MultiNodeResult run_qv_chunks(const MultiNodeConfig& cfg,
                                            const apps::QvConfig& global,
                                            Fabric* fabric = nullptr);

}  // namespace ghum::net
