#pragma once

#include <cstdint>
#include <string_view>

#include "fault/status.hpp"
#include "sim/time.hpp"

/// \file net_spec.hpp
/// net::NetSpec — the inter-superchip network cost model, in the style of
/// UCX's performance estimator (DESIGN.md Section 12). Every constant is
/// seeded from the real `ucx.conf` tuning shipped for Grace Hopper and
/// Fujitsu ARM systems (SNIPPETS.md): per-protocol overheads
/// (UCX_PROTO_OVERHEAD), the IB send pipeline (UCX_IB_SEND_OVERHEAD),
/// shared-memory active-message overheads (UCX_MM_SEND/RECV_OVERHEAD),
/// bounce-copy bandwidth (UCX_BCOPY_BW), gdrcopy staging for cuda-managed
/// memory (UCX_GDR_COPY_LAT/BW/RCACHE_OVERHEAD), registration-cache
/// overhead (UCX_RCACHE_OVERHEAD) and the system-memory distance bandwidth
/// (UCX_DISTANCE_BW sys:). A message is charged one of four protocols —
/// eager short, eager bcopy, zcopy, rendezvous — selected by modeled cost
/// (the UCX estimator's rule).

namespace ghum::net {

/// The UCX protocol ladder, cheapest-fixed-cost first. Eager protocols
/// deliver through receive bounce buffers (bcopy pays a copy on both
/// sides, zcopy only on the receiver); rendezvous pays an RTS/RTR
/// handshake round trip to earn a true zero-copy bulk transfer.
enum class Protocol : std::uint8_t {
  kEagerShort = 0,  ///< payload inlined in the active message
  kEagerBcopy = 1,  ///< copy-in, send, copy-out through bounce buffers
  kZcopy = 2,       ///< registered send buffer, receive-side copy-out
  kRendezvous = 3,  ///< rts/rtr handshake, zero-copy both sides
};
inline constexpr std::size_t kProtocols = 4;

[[nodiscard]] constexpr std::string_view to_string(Protocol p) noexcept {
  switch (p) {
    case Protocol::kEagerShort: return "eager-short";
    case Protocol::kEagerBcopy: return "eager-bcopy";
    case Protocol::kZcopy: return "zcopy";
    case Protocol::kRendezvous: return "rendezvous";
  }
  return "?";
}

/// Where the message's payload lives. Host memory moves straight through
/// the NIC; cuda-managed memory is staged through gdrcopy (eager) or
/// GPUDirect-registered with rkey_ptr + gdrcopy rcache costs (zcopy,
/// rendezvous), exactly the distinction the Grace Hopper ucx.conf section
/// encodes (UCX_REG_NONBLOCK_MEM_TYPES=host,cuda-managed).
enum class MemType : std::uint8_t {
  kHost = 0,
  kCudaManaged = 1,
};

[[nodiscard]] constexpr std::string_view to_string(MemType m) noexcept {
  switch (m) {
    case MemType::kHost: return "host";
    case MemType::kCudaManaged: return "cuda-managed";
  }
  return "?";
}

struct NetSpec {
  // --- wire -----------------------------------------------------------------
  /// Inter-node fabric serialization bandwidth (the conservative 25 GB/s
  /// the fleet layer previously used as its flat transfer model).
  double wire_bandwidth_Bps = 25e9;
  /// One-way propagation + switch latency per message.
  sim::Picos wire_latency = sim::microseconds(2);

  // --- per-protocol overheads (UCX_PROTO_OVERHEAD) --------------------------
  sim::Picos proto_single = sim::nanoseconds(5);    ///< single:5ns
  sim::Picos proto_multi = sim::nanoseconds(10);    ///< multi:10ns
  sim::Picos rndv_offload = sim::nanoseconds(40);   ///< rndv_offload:40ns
  sim::Picos rndv_rtr = sim::nanoseconds(40);       ///< rndv_rtr:40ns
  sim::Picos rndv_rts = sim::nanoseconds(275);      ///< rndv_rts:275ns
  sim::Picos proto_sw = sim::nanoseconds(40);       ///< sw:40ns
  sim::Picos rkey_ptr = sim::nanoseconds(500);      ///< rkey_ptr:500ns

  // --- IB send pipeline (UCX_IB_SEND_OVERHEAD) ------------------------------
  sim::Picos send_bcopy = sim::nanoseconds(5);      ///< bcopy:5ns
  sim::Picos send_cqe = sim::nanoseconds(50);       ///< cqe:50ns
  sim::Picos send_db = sim::nanoseconds(400);       ///< db:400ns
  sim::Picos send_wqe_fetch = sim::nanoseconds(350);///< wqe_fetch:350ns
  sim::Picos send_wqe_post = sim::nanoseconds(100); ///< wqe_post:100ns

  // --- active-message overheads (UCX_MM_SEND/RECV_OVERHEAD) -----------------
  sim::Picos am_short = sim::nanoseconds(40);       ///< am_short:40ns
  sim::Picos am_bcopy = sim::nanoseconds(220);      ///< am_bcopy:220ns

  // --- copies & registration ------------------------------------------------
  double bcopy_bandwidth_Bps = 12e9;                ///< UCX_BCOPY_BW=12000MBs
  sim::Picos rcache_overhead = sim::nanoseconds(360);  ///< UCX_RCACHE_OVERHEAD

  // --- gdrcopy staging for cuda-managed payloads (UCX_GDR_COPY_*) -----------
  double gdr_get_bandwidth_Bps = 30e9;              ///< get_dedicated:30GBs
  double gdr_put_bandwidth_Bps = 30e9;              ///< put_dedicated:30GBs
  sim::Picos gdr_latency = sim::nanoseconds(30);    ///< UCX_GDR_COPY_LAT=30ns
  sim::Picos gdr_rcache_overhead = sim::nanoseconds(170);

  // --- distance bandwidth (UCX_DISTANCE_BW sys:16500MBs) --------------------
  /// NIC-to-system-memory path bandwidth; caps the eager-short payload
  /// drain and the host side of bounce copies.
  double distance_bandwidth_Bps = 16.5e9;

  // --- protocol selection policy --------------------------------------------
  /// Largest payload the short active message can inline. Messages above
  /// it are never eager-short regardless of modeled cost; otherwise the
  /// cheapest protocol by modeled cost is selected (the UCX estimator's
  /// rule).
  std::uint64_t eager_short_max = 208;

  /// kSuccess, or kErrorNetConfig naming the first malformed field class:
  /// zero/negative/non-finite bandwidths, or negative latencies or
  /// overheads.
  [[nodiscard]] Status validate() const noexcept;
};

}  // namespace ghum::net
