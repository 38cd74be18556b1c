#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "fault/fleet_fault.hpp"
#include "net/net_spec.hpp"
#include "obs/fleet_trace.hpp"
#include "obs/metrics.hpp"
#include "sim/fnv.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

/// \file fabric.hpp
/// net::Fabric — a deterministic inter-superchip network (DESIGN.md
/// Section 12). Endpoints are numbered 0..N-1; every ordered pair is a
/// directed link with its own serialization horizon, so concurrent
/// transfers on one link queue behind each other deterministically (the
/// fabric's congestion model: full serialization per directed link, the
/// same discipline the NVLink-C2C model uses per direction). Each message
/// is charged one of the four UCX protocols selected per NetSpec, with
/// cuda-managed payloads paying the gdrcopy/rkey_ptr staging costs of the
/// Grace Hopper ucx.conf section. fault::LinkFlapWindow schedules dilate
/// the costs of affected links while the window is open — the fleet-level
/// mirror of NVLink degradation windows.
///
/// Everything is replayable: same spec + same transfer sequence => the
/// same per-message costs, the same serialization order and the same
/// history digest (tests/test_net.cpp and bench_netscope gate this).

namespace ghum::net {

/// Outcome of one charged message.
struct Transfer {
  Protocol proto = Protocol::kEagerShort;
  sim::Picos start = 0;      ///< when the link accepted it (>= requested time)
  sim::Picos end = 0;        ///< delivery completion at the receiver
  sim::Picos queued = 0;     ///< start - requested time (link serialization)
  sim::Picos handshake = 0;  ///< rendezvous rts/rtr round trip (0 otherwise)
};

/// One logged transfer (recorded when set_log_enabled(true)): the wire
/// record plus the causal trace context it carried — what the fleet
/// trace exporter turns into duration events and cross-node flow-chain
/// members.
struct TransferRecord {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t bytes = 0;
  MemType mem = MemType::kHost;
  Protocol proto = Protocol::kEagerShort;
  sim::Picos start = 0;
  sim::Picos end = 0;
  obs::TraceContext ctx;
};

/// One unreliable wire attempt under the message-fault schedule: the raw
/// transfer plus the fate the link's seeded RNG stream dealt it. A
/// dropped datagram still occupied the wire (it was transmitted); a
/// corrupt one arrives but fails the receiver's checksum; a duplicated
/// one was delivered twice (the copy charged on the link, discarded by
/// receive-side dedup); a reordered one is held past its successor in
/// the receive queue before delivery.
struct Datagram {
  Transfer wire;
  sim::Picos delivered_at = 0;  ///< wire.end plus any reorder hold
  bool delivered = false;       ///< false: dropped, or the endpoint is down
  bool corrupt = false;         ///< link-level checksum fails at receive
  bool duplicated = false;
  bool reordered = false;
};

/// Outcome of one reliable end-to-end send (Fabric::send): checksummed
/// payload, ack/timeout with bounded exponential-backoff retransmission,
/// receive-side dedup. status is kSuccess or kErrorRetransmitExhausted.
struct ReliableTransfer {
  Transfer wire;                ///< the attempt whose payload was accepted
  sim::Picos delivered_at = 0;  ///< payload verified at the receiver
  sim::Picos end = 0;           ///< sender completion (ack, or final timeout)
  std::uint32_t attempts = 1;   ///< payload transmissions performed
  std::uint32_t retransmits = 0;
  bool reordered = false;
  /// End-to-end corruption of a bulk payload that slipped past the link
  /// checksum (caught only by application-level digest verification —
  /// the evacuation-blob integrity path).
  bool payload_corrupt = false;
  Status status = Status::kSuccess;
};

/// Reliability-protocol counts. Every field but sends, which has no
/// instrument, is a read of the fabric's ghum_net_* counter of that event.
struct ReliableTotals {
  std::uint64_t sends = 0;            ///< reliable send() calls
  std::uint64_t retransmits = 0;      ///< payload re-transmissions
  std::uint64_t recovered_sends = 0;  ///< succeeded after >= 1 retransmit
  std::uint64_t exhausted = 0;        ///< retry budget spent; send failed
  std::uint64_t drops = 0;            ///< datagrams lost in flight
  std::uint64_t corruptions = 0;      ///< link-level checksum failures
  std::uint64_t dup_discards = 0;     ///< deliveries discarded by dedup
  std::uint64_t reorders = 0;         ///< deliveries held out of order
  std::uint64_t acks = 0;             ///< ack/NAK messages charged
  std::uint64_t e2e_corruptions = 0;  ///< bulk payloads corrupted end-to-end
};

/// Per-protocol message counts, read from the fabric's ghum_net_*
/// instruments: msgs and bytes from the per-protocol counters,
/// rndv_handshakes from the rendezvous-handshake histogram's sample count.
struct FabricTotals {
  std::array<std::uint64_t, kProtocols> msgs{};
  std::array<std::uint64_t, kProtocols> bytes{};
  std::uint64_t rndv_handshakes = 0;
  std::uint64_t flapped_msgs = 0;  ///< messages dilated by an open flap window

  [[nodiscard]] std::uint64_t total_msgs() const noexcept {
    std::uint64_t n = 0;
    for (const std::uint64_t m : msgs) n += m;
    return n;
  }
  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    std::uint64_t n = 0;
    for (const std::uint64_t b : bytes) n += b;
    return n;
  }
};

class Fabric {
 public:
  /// Throws StatusError{kErrorNetConfig} if \p spec fails validation,
  /// \p endpoints is zero, a flap window's schedule is malformed (negative
  /// start or a window whose end precedes its start, i.e. negative
  /// duration), or \p messages fails its validation; and
  /// StatusError{kErrorInvalidValue} if a flap window names an endpoint
  /// outside the fabric or has a factor < 1. The ghum_net_* instruments,
  /// the fabric's only count of each event, are registered in \p reg (which
  /// must hold no other fabric's), or in a registry of its own if null.
  explicit Fabric(NetSpec spec, std::uint32_t endpoints,
                  obs::MetricsRegistry* reg = nullptr,
                  std::vector<fault::LinkFlapWindow> flaps = {},
                  fault::MessageFaultConfig messages = {});

  /// Charges one \p bytes-sized message src -> dst starting no earlier
  /// than \p now. Selects the protocol, applies any open flap window,
  /// queues behind in-flight traffic on the same directed link, advances
  /// the link horizon and records history. \p ctx is the causal trace
  /// context the message carries across the node boundary (null =
  /// untraced); it does not affect cost or digest, only the transfer log.
  /// Throws StatusError{kErrorInvalidValue} on src == dst or out-of-range
  /// ids.
  Transfer transfer(std::uint32_t src, std::uint32_t dst, std::uint64_t bytes,
                    MemType mem, sim::Picos now,
                    const obs::TraceContext* ctx = nullptr);

  /// One unreliable datagram under the message-fault schedule: charges a
  /// transfer() (plus a second copy when the link duplicates it) and
  /// draws the message's fate from the directed link's seeded RNG stream.
  /// With messages disabled the fate is always clean delivery. A datagram
  /// to a down endpoint is charged but never delivered. Heartbeat probes
  /// ride this path — an unacked message whose loss the sender cannot
  /// distinguish from a dead peer.
  Datagram datagram(std::uint32_t src, std::uint32_t dst, std::uint64_t bytes,
                    MemType mem, sim::Picos now,
                    const obs::TraceContext* ctx = nullptr);

  /// Reliable end-to-end send: per-transfer FNV-1a payload checksum
  /// verified at receive, ack (or NAK, on a checksum failure) on the
  /// reverse link, receive-side dedup of duplicated deliveries, and
  /// bounded retransmission — attempt k waits ack_timeout * 2^(k-1)
  /// before retrying, up to max_retransmits retries. Exhaustion returns
  /// status kErrorRetransmitExhausted (to a down endpoint this is the
  /// guaranteed outcome — nothing acks). Bulk payloads (bytes >=
  /// bulk_threshold) may additionally arrive corrupted end-to-end
  /// (payload_corrupt): past the link checksum, caught only by the
  /// caller's own digest verification.
  ReliableTransfer send(std::uint32_t src, std::uint32_t dst,
                        std::uint64_t bytes, MemType mem, sim::Picos now,
                        const obs::TraceContext* ctx = nullptr);

  /// True when a message-fault schedule is active on this fabric.
  [[nodiscard]] bool lossy() const noexcept { return msg_.enabled; }

  /// Physical endpoint liveness. A down endpoint receives nothing and
  /// acks nothing — the fabric-level truth of a silently dead node, which
  /// callers can only observe through missed heartbeats and exhausted
  /// retransmit budgets. Out-of-range ids are ignored.
  void set_endpoint_down(std::uint32_t ep, bool down) noexcept {
    if (ep < endpoints_) down_[ep] = down;
  }
  [[nodiscard]] bool endpoint_down(std::uint32_t ep) const noexcept {
    return ep < endpoints_ && down_[ep] != 0;
  }

  [[nodiscard]] ReliableTotals reliable_totals() const noexcept;

  /// When enabled, every transfer appends a TransferRecord to log().
  void set_log_enabled(bool on) noexcept { log_enabled_ = on; }
  [[nodiscard]] const std::vector<TransferRecord>& log() const noexcept {
    return log_;
  }

  /// Total bytes charged on the directed link src -> dst so far (its
  /// ghum_net_link_bytes_total counter) — the per-link utilization source
  /// the flight recorder samples.
  [[nodiscard]] std::uint64_t link_bytes_moved(std::uint32_t src,
                                               std::uint32_t dst) const noexcept {
    const auto it = links_.find(std::uint64_t{src} * endpoints_ + dst);
    return it == links_.end() ? 0 : it->second.bytes->value();
  }

  /// Protocol the spec selects for a message (no link or flap state).
  [[nodiscard]] Protocol select(std::uint64_t bytes, MemType mem) const;

  /// Undilated one-message cost of \p proto (link-idle, no flap): the
  /// pure cost model, exposed so tests can verify crossovers exactly.
  [[nodiscard]] sim::Picos cost(Protocol proto, std::uint64_t bytes,
                                MemType mem) const;

  [[nodiscard]] const NetSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] std::uint32_t endpoints() const noexcept { return endpoints_; }
  [[nodiscard]] FabricTotals totals() const noexcept;

  /// FNV-1a over the complete transfer history (src, dst, bytes, memtype,
  /// protocol, start, end). Two identical transfer sequences => identical
  /// digests; any cost or ordering divergence changes it.
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

 private:
  struct Dilation {
    double bandwidth_factor = 1.0;
    double latency_factor = 1.0;
    bool flapped = false;
  };

  struct Link {
    sim::Picos busy_until = 0;      ///< serialization horizon
    sim::Rng rng;                   ///< message-fate stream
    std::uint64_t next_seq = 0;     ///< sequence number of the next send()
    obs::Counter* bytes = nullptr;  ///< ghum_net_link_bytes_total{link}
  };

  /// The record of src -> dst, made (and its byte counter registered) on
  /// first use. Throws StatusError{kErrorInvalidValue} on src == dst or
  /// out-of-range ids.
  [[nodiscard]] Link& link(std::uint32_t src, std::uint32_t dst);
  /// transfer() on \p l, the link of src -> dst.
  Transfer charge(Link& l, std::uint32_t src, std::uint32_t dst,
                  std::uint64_t bytes, MemType mem, sim::Picos now,
                  const obs::TraceContext* ctx);

  [[nodiscard]] Dilation dilation(std::uint32_t src, std::uint32_t dst,
                                  sim::Picos at) const noexcept;
  [[nodiscard]] sim::Picos dilated_cost(Protocol proto, std::uint64_t bytes,
                                        MemType mem, const Dilation& d,
                                        sim::Picos* handshake) const;

  NetSpec spec_;
  std::uint32_t endpoints_ = 0;
  std::vector<fault::LinkFlapWindow> flaps_;
  fault::MessageFaultConfig msg_;
  /// Directed links src -> dst, keyed src * endpoints + dst. Sparse map:
  /// fleets are small but a full N^2 array would still be wasteful for the
  /// mostly-idle control links.
  std::map<std::uint64_t, Link> links_;
  std::vector<std::uint8_t> down_;  ///< endpoint liveness (fabric truth)
  std::uint64_t bulk_sends_ = 0;    ///< fabric-wide bulk send order
  std::uint64_t sends_ = 0;         ///< reliable send() calls

  std::uint64_t digest_ = sim::kFnvOffset;
  bool log_enabled_ = false;
  std::vector<TransferRecord> log_;

  /// reg_ is the caller's registry, or own_reg_ when it passes none.
  std::unique_ptr<obs::MetricsRegistry> own_reg_;
  obs::MetricsRegistry* reg_;
  std::array<obs::Counter*, kProtocols> msgs_{};
  std::array<obs::Counter*, kProtocols> bytes_{};
  std::array<obs::Counter*, kProtocols> selected_{};
  obs::Histogram* handshake_ns_ = nullptr;
  obs::Histogram* latency_ns_ = nullptr;
  obs::Counter* flapped_ = nullptr;
  obs::Counter* retransmits_ = nullptr;
  obs::Counter* recovered_ = nullptr;
  obs::Counter* exhausted_ = nullptr;
  obs::Counter* dropped_ = nullptr;
  obs::Counter* corrupt_ = nullptr;
  obs::Counter* dup_discards_ = nullptr;
  obs::Counter* reordered_ = nullptr;
  obs::Counter* acks_ = nullptr;
  obs::Counter* e2e_corrupt_ = nullptr;
};

}  // namespace ghum::net
