#include "net/fabric.hpp"

#include <algorithm>
#include <string>

#include "sim/fnv.hpp"

namespace ghum::net {

namespace {

/// FNV-1a over the message descriptor — the model's payload checksum,
/// computed at the sender and recomputed (verified) at the receiver. A
/// link-level corruption event perturbs the delivered value, so the
/// receiver's comparison genuinely catches it.
std::uint64_t payload_checksum(std::uint32_t src, std::uint32_t dst,
                               std::uint64_t bytes,
                               std::uint64_t seq) noexcept {
  std::uint64_t h = sim::kFnvOffset;
  sim::fnv_mix(h, src);
  sim::fnv_mix(h, dst);
  sim::fnv_mix(h, bytes);
  sim::fnv_mix(h, seq);
  return h;
}

/// The bit pattern a link-level corruption flips into a delivered
/// checksum (any nonzero pattern breaks the receiver's comparison).
constexpr std::uint64_t kCorruptFlip = 0x5a5a5a5a5a5a5a5aull;

/// transfer_time at a bandwidth divided by \p bw_factor.
sim::Picos wire_time(std::uint64_t bytes, double bw, double bw_factor) {
  return sim::transfer_time(bytes, bw / bw_factor);
}

std::vector<obs::Label> proto_label(Protocol p) {
  return {{"proto", std::string{to_string(p)}}};
}

}  // namespace

Fabric::Fabric(NetSpec spec, std::uint32_t endpoints, obs::MetricsRegistry* reg,
               std::vector<fault::LinkFlapWindow> flaps,
               fault::MessageFaultConfig messages)
    : spec_(spec),
      endpoints_(endpoints),
      flaps_(std::move(flaps)),
      msg_(std::move(messages)),
      own_reg_(reg != nullptr ? nullptr : std::make_unique<obs::MetricsRegistry>()),
      reg_(reg != nullptr ? reg : own_reg_.get()) {
  if (const Status s = spec_.validate(); s != Status::kSuccess) {
    throw StatusError{s, "net: NetSpec failed validation"};
  }
  if (endpoints_ == 0) {
    throw StatusError{Status::kErrorNetConfig, "net: fabric needs endpoints"};
  }
  if (const Status s = msg_.validate(); s != Status::kSuccess) {
    throw StatusError{s, "net: malformed message-fault config"};
  }
  for (const fault::LinkFlapWindow& w : flaps_) {
    // Schedule shape (a window that starts before t=0 or whose end
    // precedes its start) is a config error like any other NetSpec
    // malformation; endpoint range and factor direction stay
    // kErrorInvalidValue for compatibility with existing callers.
    if (w.start < 0 || w.duration < 0) {
      throw StatusError{Status::kErrorNetConfig,
                        "net: link-flap window end precedes its start"};
    }
    const bool nodes_ok =
        w.node_a < endpoints_ &&
        (w.node_b == fault::LinkFlapWindow::kAllPeers || w.node_b < endpoints_);
    if (!nodes_ok || w.bandwidth_factor < 1.0 || w.latency_factor < 1.0) {
      throw StatusError{Status::kErrorInvalidValue,
                        "net: malformed link-flap window"};
    }
  }
  down_.assign(endpoints_, 0);
  std::sort(flaps_.begin(), flaps_.end(),
            [](const fault::LinkFlapWindow& a, const fault::LinkFlapWindow& b) {
              return a.start != b.start ? a.start < b.start
                                        : a.node_a < b.node_a;
            });
  for (std::size_t p = 0; p < kProtocols; ++p) {
    const auto lbl = proto_label(static_cast<Protocol>(p));
    msgs_[p] = &reg_->counter("ghum_net_msgs_total", lbl);
    bytes_[p] = &reg_->counter("ghum_net_bytes_total", lbl);
    selected_[p] = &reg_->counter("ghum_net_proto_selected_total", lbl);
  }
  handshake_ns_ = &reg_->histogram("ghum_net_rndv_handshake_ns");
  latency_ns_ = &reg_->histogram("ghum_net_msg_latency_ns");
  flapped_ = &reg_->counter("ghum_net_flapped_msgs_total");
  retransmits_ = &reg_->counter("ghum_net_retransmits_total");
  recovered_ = &reg_->counter("ghum_net_recovered_sends_total");
  exhausted_ = &reg_->counter("ghum_net_send_exhausted_total");
  dropped_ = &reg_->counter("ghum_net_dropped_msgs_total");
  corrupt_ = &reg_->counter("ghum_net_corrupt_msgs_total");
  dup_discards_ = &reg_->counter("ghum_net_dup_discards_total");
  reordered_ = &reg_->counter("ghum_net_reordered_msgs_total");
  acks_ = &reg_->counter("ghum_net_acks_total");
  e2e_corrupt_ = &reg_->counter("ghum_net_e2e_corrupt_msgs_total");
}

FabricTotals Fabric::totals() const noexcept {
  FabricTotals t;
  for (std::size_t p = 0; p < kProtocols; ++p) {
    t.msgs[p] = msgs_[p]->value();
    t.bytes[p] = bytes_[p]->value();
  }
  t.rndv_handshakes = handshake_ns_->count();
  t.flapped_msgs = flapped_->value();
  return t;
}

ReliableTotals Fabric::reliable_totals() const noexcept {
  return {.sends = sends_,
          .retransmits = retransmits_->value(),
          .recovered_sends = recovered_->value(),
          .exhausted = exhausted_->value(),
          .drops = dropped_->value(),
          .corruptions = corrupt_->value(),
          .dup_discards = dup_discards_->value(),
          .reorders = reordered_->value(),
          .acks = acks_->value(),
          .e2e_corruptions = e2e_corrupt_->value()};
}

Fabric::Link& Fabric::link(std::uint32_t src, std::uint32_t dst) {
  if (src >= endpoints_ || dst >= endpoints_ || src == dst) {
    throw StatusError{Status::kErrorInvalidValue,
                      "net: transfer endpoints out of range"};
  }
  const std::uint64_t key = std::uint64_t{src} * endpoints_ + dst;
  const auto [it, fresh] = links_.try_emplace(key);
  Link& l = it->second;
  if (fresh) {
    // Independent stream per directed link: the fate sequence depends only
    // on this link's own message order, so cross-link interleaving cannot
    // perturb it (the per-link reproducibility contract).
    l.rng.reseed(msg_.seed ^ ((key + 1) * 0x9e3779b97f4a7c15ull));
    l.bytes = &reg_->counter(
        "ghum_net_link_bytes_total",
        {{"link", std::to_string(src) + "-" + std::to_string(dst)}});
  }
  return l;
}

Fabric::Dilation Fabric::dilation(std::uint32_t src, std::uint32_t dst,
                                  sim::Picos at) const noexcept {
  Dilation d;
  for (const fault::LinkFlapWindow& w : flaps_) {
    if (w.start > at) break;  // sorted by start
    if (at >= w.start + w.duration) continue;
    const bool touches =
        w.node_b == fault::LinkFlapWindow::kAllPeers
            ? (src == w.node_a || dst == w.node_a)
            : ((src == w.node_a && dst == w.node_b) ||
               (src == w.node_b && dst == w.node_a));
    if (!touches) continue;
    // Overlapping windows compound, mirroring how the intra-node link
    // degradation model treats nested degradation causes.
    d.bandwidth_factor *= w.bandwidth_factor;
    d.latency_factor *= w.latency_factor;
    d.flapped = true;
  }
  return d;
}

sim::Picos Fabric::dilated_cost(Protocol proto, std::uint64_t bytes,
                                MemType mem, const Dilation& d,
                                sim::Picos* handshake) const {
  const NetSpec& s = spec_;
  const auto lat = [&](sim::Picos t) {
    return static_cast<sim::Picos>(static_cast<double>(t) * d.latency_factor);
  };
  const double bf = d.bandwidth_factor;
  if (handshake != nullptr) *handshake = 0;

  // Wire serialization; cuda-managed zero-copy paths are additionally
  // capped by the dedicated gdrcopy get/put engines (GPUDirect staging).
  double wire_bw = s.wire_bandwidth_Bps;
  const bool cuda = mem == MemType::kCudaManaged;
  if (cuda && (proto == Protocol::kZcopy || proto == Protocol::kRendezvous)) {
    wire_bw = std::min(wire_bw, std::min(s.gdr_get_bandwidth_Bps,
                                         s.gdr_put_bandwidth_Bps));
  }
  const sim::Picos t_wire = wire_time(bytes, wire_bw, bf);
  const sim::Picos t_bcopy = wire_time(bytes, s.bcopy_bandwidth_Bps, bf);

  // Cuda-managed eager payloads are staged through gdrcopy on both ends
  // (get on the sender, put on the receiver); zero-copy paths instead pay
  // the remote-key + gdr registration-cache cost once per side.
  sim::Picos mem_extra = 0;
  if (cuda) {
    if (proto == Protocol::kEagerShort || proto == Protocol::kEagerBcopy) {
      mem_extra = 2 * lat(s.gdr_latency + s.gdr_rcache_overhead) +
                  wire_time(bytes, s.gdr_get_bandwidth_Bps, bf) +
                  wire_time(bytes, s.gdr_put_bandwidth_Bps, bf);
    } else {
      mem_extra = lat(s.rkey_ptr) + 2 * lat(s.gdr_rcache_overhead);
    }
  }

  switch (proto) {
    case Protocol::kEagerShort:
      // Inlined payload: single-fragment protocol dispatch, a short active
      // message on each side, the payload drained at the NIC-to-sysmem
      // distance bandwidth.
      return lat(s.proto_single) + 2 * lat(s.am_short) + lat(s.wire_latency) +
             t_wire + wire_time(bytes, s.distance_bandwidth_Bps, bf) +
             mem_extra;
    case Protocol::kEagerBcopy:
      // Copy-in on the sender and copy-out on the receiver through bounce
      // buffers, both at UCX_BCOPY_BW.
      return lat(s.proto_single) + 2 * lat(s.am_bcopy) + lat(s.send_bcopy) +
             lat(s.wire_latency) + t_wire + 2 * t_bcopy + mem_extra;
    case Protocol::kZcopy:
      // Registered send buffer (rcache hit path) and the full IB send
      // pipeline; the receiver still copies out of its eager buffer.
      return lat(s.proto_multi) + lat(s.rcache_overhead) + lat(s.send_db) +
             lat(s.send_wqe_fetch) + lat(s.send_wqe_post) + lat(s.send_cqe) +
             lat(s.wire_latency) + t_wire + t_bcopy + mem_extra;
    case Protocol::kRendezvous: {
      // RTS over, RTR back, then a true zero-copy bulk transfer with both
      // sides registered. The handshake is what the latency histograms
      // (and the protocol crossover) are made of.
      const sim::Picos hs = lat(s.rndv_rts) + lat(s.rndv_rtr) +
                            lat(s.rndv_offload) + 2 * lat(s.wire_latency);
      if (handshake != nullptr) *handshake = hs;
      return hs + 2 * lat(s.rcache_overhead) + lat(s.send_db) +
             lat(s.send_wqe_fetch) + lat(s.send_wqe_post) + lat(s.send_cqe) +
             lat(s.wire_latency) + t_wire + mem_extra;
    }
  }
  return 0;
}

sim::Picos Fabric::cost(Protocol proto, std::uint64_t bytes, MemType mem) const {
  return dilated_cost(proto, bytes, mem, Dilation{}, nullptr);
}

Protocol Fabric::select(std::uint64_t bytes, MemType mem) const {
  // UCX estimator rule: cheapest modeled cost among eligible protocols,
  // ties to the simpler protocol. Eager-short is capacity-limited.
  Protocol best = Protocol::kEagerBcopy;
  sim::Picos best_cost = cost(best, bytes, mem);
  if (bytes <= spec_.eager_short_max) {
    const sim::Picos c = cost(Protocol::kEagerShort, bytes, mem);
    if (c < best_cost) {
      best = Protocol::kEagerShort;
      best_cost = c;
    }
  }
  for (const Protocol p : {Protocol::kZcopy, Protocol::kRendezvous}) {
    const sim::Picos c = cost(p, bytes, mem);
    if (c < best_cost) {
      best = p;
      best_cost = c;
    }
  }
  return best;
}

Transfer Fabric::transfer(std::uint32_t src, std::uint32_t dst,
                          std::uint64_t bytes, MemType mem, sim::Picos now,
                          const obs::TraceContext* ctx) {
  return charge(link(src, dst), src, dst, bytes, mem, now, ctx);
}

Transfer Fabric::charge(Link& l, std::uint32_t src, std::uint32_t dst,
                        std::uint64_t bytes, MemType mem, sim::Picos now,
                        const obs::TraceContext* ctx) {
  Transfer t;
  t.start = std::max(now, l.busy_until);
  t.queued = t.start - now;

  const Dilation d = dilation(src, dst, t.start);
  t.proto = select(bytes, mem);
  t.end = t.start + dilated_cost(t.proto, bytes, mem, d, &t.handshake);
  l.busy_until = t.end;

  const auto p = static_cast<std::size_t>(t.proto);
  msgs_[p]->inc();
  bytes_[p]->inc(bytes);
  selected_[p]->inc();
  l.bytes->inc(bytes);
  latency_ns_->observe(
      static_cast<std::uint64_t>((t.end - t.start) / sim::kPicosPerNano));
  if (t.proto == Protocol::kRendezvous) {
    handshake_ns_->observe(
        static_cast<std::uint64_t>(t.handshake / sim::kPicosPerNano));
  }
  if (d.flapped) flapped_->inc();
  if (log_enabled_) {
    TransferRecord r;
    r.src = src;
    r.dst = dst;
    r.bytes = bytes;
    r.mem = mem;
    r.proto = t.proto;
    r.start = t.start;
    r.end = t.end;
    if (ctx != nullptr) r.ctx = *ctx;
    log_.push_back(r);
  }

  sim::fnv_mix(digest_, src);
  sim::fnv_mix(digest_, dst);
  sim::fnv_mix(digest_, bytes);
  sim::fnv_mix(digest_, static_cast<std::uint64_t>(mem));
  sim::fnv_mix(digest_, static_cast<std::uint64_t>(t.proto));
  sim::fnv_mix(digest_, static_cast<std::uint64_t>(t.start));
  sim::fnv_mix(digest_, static_cast<std::uint64_t>(t.end));
  return t;
}

Datagram Fabric::datagram(std::uint32_t src, std::uint32_t dst,
                          std::uint64_t bytes, MemType mem, sim::Picos now,
                          const obs::TraceContext* ctx) {
  Link& l = link(src, dst);
  Datagram d;
  d.wire = charge(l, src, dst, bytes, mem, now, ctx);
  d.delivered_at = d.wire.end;
  d.delivered = !endpoint_down(dst);

  if (msg_.enabled) {
    // Always draw all four fates in fixed order so the stream position
    // depends only on how many messages this link has carried, never on
    // earlier outcomes.
    const bool f_drop = l.rng.next_double() < msg_.drop_prob;
    const bool f_corrupt = l.rng.next_double() < msg_.corrupt_prob;
    const bool f_dup = l.rng.next_double() < msg_.duplicate_prob;
    const bool f_reorder = l.rng.next_double() < msg_.reorder_prob;
    if (f_drop) {
      // Lost in flight: the wire was occupied but nothing arrives. Drop
      // trumps every other fate.
      d.delivered = false;
      dropped_->inc();
    } else if (d.delivered) {
      if (f_corrupt) {
        d.corrupt = true;
        corrupt_->inc();
      }
      if (f_dup) {
        // The link delivers a second copy: charged on the wire like any
        // message, discarded by receive-side dedup.
        d.duplicated = true;
        charge(l, src, dst, bytes, mem, d.wire.end, ctx);
      }
      if (f_reorder) {
        d.reordered = true;
        d.delivered_at += msg_.reorder_delay;
        reordered_->inc();
      }
    }
  }

  // Fold the fate into the history digest so two chaos runs only match
  // when every message met the same end.
  sim::fnv_mix(digest_, static_cast<std::uint64_t>(d.delivered) |
                            (static_cast<std::uint64_t>(d.corrupt) << 1) |
                            (static_cast<std::uint64_t>(d.duplicated) << 2) |
                            (static_cast<std::uint64_t>(d.reordered) << 3));
  return d;
}

ReliableTransfer Fabric::send(std::uint32_t src, std::uint32_t dst,
                              std::uint64_t bytes, MemType mem, sim::Picos now,
                              const obs::TraceContext* ctx) {
  Link& fwd = link(src, dst);
  ReliableTransfer r;
  ++sends_;

  // The payload checksum travels with every attempt of this sequence
  // number; a link-level corruption perturbs the delivered value.
  const std::uint64_t seq = fwd.next_seq++;
  const std::uint64_t sent_sum = payload_checksum(src, dst, bytes, seq);
  const std::uint32_t budget = msg_.enabled ? msg_.max_retransmits : 0;

  bool receiver_has = false;  // payload accepted at the receiver (dedup floor)
  sim::Picos clock = now;
  for (std::uint32_t attempt = 0;; ++attempt) {
    const Datagram d = datagram(src, dst, bytes, mem, clock, ctx);
    bool acked = false;
    sim::Picos reply_at = 0;  // when the ack, or the NAK, reached the sender
    if (d.delivered) {
      const std::uint64_t recv_sum =
          d.corrupt ? (sent_sum ^ kCorruptFlip) : sent_sum;
      const bool intact = recv_sum == sent_sum;
      if (intact) {
        if (receiver_has) {
          // Retransmission of a payload whose ack was lost: dedup
          // discards the body, but the receiver still re-acks.
          dup_discards_->inc();
        } else {
          receiver_has = true;
          r.wire = d.wire;
          r.delivered_at = d.delivered_at;
          r.reordered = d.reordered;
        }
        // The link's extra copy is always redundant by now.
        if (d.duplicated) dup_discards_->inc();
      }
      // An ack back, or on a checksum failure a NAK, which lets the sender
      // retransmit before its timeout would fire.
      const Datagram reply =
          datagram(dst, src, msg_.ack_bytes, MemType::kHost, d.delivered_at);
      acks_->inc();
      if (reply.delivered && !reply.corrupt) {
        acked = intact;
        reply_at = reply.delivered_at;
      }
    }

    if (acked) {
      r.end = reply_at;
      r.status = Status::kSuccess;
      if (attempt > 0) recovered_->inc();
      break;
    }
    const sim::Picos timeout = msg_.ack_timeout * (sim::Picos{1} << attempt);
    if (attempt >= budget) {
      r.status = Status::kErrorRetransmitExhausted;
      r.end = d.wire.end + timeout;
      exhausted_->inc();
      break;
    }
    // Retransmit at the exponential-backoff timeout, or as soon as a NAK
    // told us the payload arrived mangled — whichever comes first.
    clock = d.wire.end + timeout;
    if (reply_at != 0 && reply_at < clock) clock = reply_at;
    ++r.attempts;
    ++r.retransmits;
    retransmits_->inc();
  }

  // End-to-end corruption of bulk payloads: past the link checksum, so it
  // only exists on *verified-delivered* sends and only the caller's own
  // digest check can catch it.
  if (msg_.enabled && r.status == Status::kSuccess &&
      bytes >= msg_.bulk_threshold) {
    const std::uint64_t bulk_index = bulk_sends_++;
    bool scheduled = false;
    for (const std::uint64_t i : msg_.e2e_corrupt_bulk) {
      if (i == bulk_index) {
        scheduled = true;
        break;
      }
    }
    if (scheduled || fwd.rng.next_double() < msg_.e2e_corrupt_prob) {
      r.payload_corrupt = true;
      e2e_corrupt_->inc();
    }
  }

  sim::fnv_mix(digest_,
               static_cast<std::uint64_t>(r.status) |
                   (static_cast<std::uint64_t>(r.payload_corrupt) << 8) |
                   (std::uint64_t{r.attempts} << 16));
  sim::fnv_mix(digest_, static_cast<std::uint64_t>(r.end));
  return r;
}

}  // namespace ghum::net
