#include "net/halo.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <utility>

#include "core/system.hpp"
#include "fault/status.hpp"
#include "runtime/runtime.hpp"
#include "sim/fnv.hpp"

namespace ghum::net {

namespace {

/// One boundary message owed after a compute round.
struct HaloMsg {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t bytes = 0;
};

struct NodeRun {
  std::unique_ptr<core::System> sys;
  std::unique_ptr<runtime::Runtime> rt;
  apps::AppCoro coro;
  bool more = true;
};

void check_node_count(std::uint32_t nodes) {
  if (nodes < 2 || nodes > 8) {
    throw StatusError{Status::kErrorInvalidValue,
                      "net: multi-node runs span 2..8 superchips"};
  }
}

/// The BSP engine shared by all three workloads. Every node's coroutine is
/// stepped once per round, in node order; after each round inside the
/// compute window [compute_begin, compute_begin + compute_rounds), \p plan
/// emits the boundary messages of that round, each is charged through the
/// fabric at its sender's local clock, and every receiver's clock is
/// advanced to its latest arrival before the next round may start. The
/// advance is the halo wait: a slow or flapped link shows up directly in
/// the downstream node's critical path.
MultiNodeResult lockstep(
    const MultiNodeConfig& cfg, Fabric* fabric, std::uint32_t compute_begin,
    std::uint32_t compute_rounds,
    const std::function<apps::AppCoro(runtime::Runtime&, std::uint32_t)>& make,
    const std::function<void(std::uint32_t round, std::vector<HaloMsg>&)>&
        plan) {
  check_node_count(cfg.nodes);
  std::optional<Fabric> local;
  Fabric& fab = fabric != nullptr
                    ? *fabric
                    : local.emplace(cfg.net, cfg.nodes, nullptr,
                                    std::vector<fault::LinkFlapWindow>{}, cfg.messages);
  if (fab.endpoints() < cfg.nodes) {
    throw StatusError{Status::kErrorInvalidValue,
                      "net: fabric has fewer endpoints than nodes"};
  }
  const MemType mem = cfg.mode == apps::MemMode::kManaged
                          ? MemType::kCudaManaged
                          : MemType::kHost;

  std::vector<NodeRun> nodes(cfg.nodes);
  for (std::uint32_t i = 0; i < cfg.nodes; ++i) {
    NodeRun& n = nodes[i];
    n.sys = std::make_unique<core::System>(cfg.node_config);
    n.rt = std::make_unique<runtime::Runtime>(*n.sys);
    n.coro = make(*n.rt, i);
  }

  MultiNodeResult res;
  res.nodes = cfg.nodes;
  std::vector<HaloMsg> msgs;
  std::vector<sim::Picos> arrival(cfg.nodes, 0);

  for (std::uint32_t round = 0;; ++round) {
    bool any = false;
    for (NodeRun& n : nodes) {
      if (n.more) n.more = n.coro.step();
      any = any || n.more;
    }
    if (!any) break;

    if (round < compute_begin || round >= compute_begin + compute_rounds) {
      continue;
    }
    msgs.clear();
    plan(round - compute_begin, msgs);
    std::fill(arrival.begin(), arrival.end(), sim::Picos{0});
    for (const HaloMsg& m : msgs) {
      // On a lossy fabric the halo must actually arrive: the reliable
      // send path pays for retransmissions, and a neighbor that never
      // confirms stalls its receiver exactly as a real exchange would.
      // On a clean fabric the raw transfer path keeps pre-existing runs
      // bit-for-bit unchanged.
      if (fab.lossy()) {
        const ReliableTransfer t =
            fab.send(m.src, m.dst, m.bytes, mem, nodes[m.src].sys->now());
        arrival[m.dst] = std::max(
            arrival[m.dst], t.status == Status::kSuccess ? t.delivered_at
                                                         : t.end);
      } else {
        const Transfer t =
            fab.transfer(m.src, m.dst, m.bytes, mem, nodes[m.src].sys->now());
        arrival[m.dst] = std::max(arrival[m.dst], t.end);
      }
    }
    for (std::uint32_t i = 0; i < cfg.nodes; ++i) {
      const sim::Picos now = nodes[i].sys->now();
      if (arrival[i] > now) {
        res.net_wait += arrival[i] - now;
        nodes[i].sys->advance(arrival[i] - now);
      }
    }
    ++res.exchanges;
  }

  res.node_end.reserve(cfg.nodes);
  std::uint64_t checksum = sim::kFnvOffset;
  std::uint64_t digest = sim::kFnvOffset;
  for (NodeRun& n : nodes) {
    const sim::Picos end = n.sys->now();
    res.node_end.push_back(end);
    res.makespan = std::max(res.makespan, end);
    sim::fnv_mix(checksum, n.coro.report().checksum);
    sim::fnv_mix(digest, static_cast<std::uint64_t>(end));
    sim::fnv_mix(digest, n.sys->events().digest(end));
    sim::fnv_mix(digest, n.coro.report().checksum);
  }
  sim::fnv_mix(digest, fab.digest());
  res.checksum = checksum;
  res.digest = digest;
  res.net = fab.totals();
  return res;
}

/// Row-band partition: rows/nodes each, remainder spread over the low
/// nodes; throws if some node would get an empty band.
std::uint32_t band_rows(std::uint32_t rows, std::uint32_t nodes,
                        std::uint32_t i) {
  const std::uint32_t base = rows / nodes;
  const std::uint32_t r = base + (i < rows % nodes ? 1u : 0u);
  if (r == 0) {
    throw StatusError{Status::kErrorInvalidValue,
                      "net: row band smaller than the node count"};
  }
  return r;
}

/// Nearest-neighbor plan: every interior boundary moves one message in
/// each direction, all rounds identical.
void neighbor_plan(std::uint32_t nodes, std::uint64_t bytes,
                   std::vector<HaloMsg>& msgs) {
  for (std::uint32_t i = 0; i < nodes; ++i) {
    if (i > 0) msgs.push_back({i, i - 1, bytes});
    if (i + 1 < nodes) msgs.push_back({i, i + 1, bytes});
  }
}

}  // namespace

MultiNodeResult run_hotspot_halo(const MultiNodeConfig& cfg,
                                 const apps::HotspotConfig& global,
                                 Fabric* fabric) {
  check_node_count(cfg.nodes);
  std::vector<apps::HotspotConfig> parts(cfg.nodes, global);
  for (std::uint32_t i = 0; i < cfg.nodes; ++i) {
    parts[i].rows = band_rows(global.rows, cfg.nodes, i);
    parts[i].seed = global.seed + i;
  }
  // One ghost row of temperatures per neighbor per stencil iteration.
  const std::uint64_t halo = std::uint64_t{global.cols} * sizeof(float);
  return lockstep(
      cfg, fabric, /*compute_begin=*/2, /*compute_rounds=*/global.iterations,
      [&](runtime::Runtime& rt, std::uint32_t i) {
        return apps::hotspot_steps(rt, cfg.mode, parts[i]);
      },
      [&](std::uint32_t, std::vector<HaloMsg>& msgs) {
        neighbor_plan(cfg.nodes, halo, msgs);
      });
}

MultiNodeResult run_srad_halo(const MultiNodeConfig& cfg,
                              const apps::SradConfig& global, Fabric* fabric) {
  check_node_count(cfg.nodes);
  std::vector<apps::SradConfig> parts(cfg.nodes, global);
  for (std::uint32_t i = 0; i < cfg.nodes; ++i) {
    parts[i].rows = band_rows(global.rows, cfg.nodes, i);
    parts[i].seed = global.seed + i;
  }
  // Two field rows per neighbor per diffusion iteration: the image J and
  // the diffusion-coefficient field c both feed the 5-point stencil.
  const std::uint64_t halo = 2ull * global.cols * sizeof(float);
  return lockstep(
      cfg, fabric, /*compute_begin=*/2, /*compute_rounds=*/global.iterations,
      [&](runtime::Runtime& rt, std::uint32_t i) {
        return apps::srad_steps(rt, cfg.mode, parts[i]);
      },
      [&](std::uint32_t, std::vector<HaloMsg>& msgs) {
        neighbor_plan(cfg.nodes, halo, msgs);
      });
}

MultiNodeResult run_qv_chunks(const MultiNodeConfig& cfg,
                              const apps::QvConfig& global, Fabric* fabric) {
  check_node_count(cfg.nodes);
  if ((cfg.nodes & (cfg.nodes - 1)) != 0) {
    throw StatusError{Status::kErrorInvalidValue,
                      "net: qv chunk exchange needs a power-of-two node count"};
  }
  if (cfg.mode == apps::MemMode::kExplicit) {
    // The explicit port's oversized path runs a nested chunk-sweep
    // coroutine with a different yield structure; the distributed form
    // models the unified ports only.
    throw StatusError{Status::kErrorInvalidValue,
                      "net: qv chunk exchange models unified memory modes"};
  }
  std::uint32_t k = 0;
  while ((1u << (k + 1)) <= cfg.nodes) ++k;
  if (global.qubits < k + 2) {
    throw StatusError{Status::kErrorInvalidValue,
                      "net: too few qubits to split across nodes"};
  }

  // Every node simulates the same circuit shape over its local chunk of
  // 2^(qubits-k) amplitudes: same seed, fewer qubits.
  apps::QvConfig local = global;
  local.qubits = global.qubits - k;
  const std::uint32_t gates =
      static_cast<std::uint32_t>(apps::qv_circuit(local).size());
  // After each gate layer, partners across global qubit (round mod k) swap
  // half their chunk (the Aer chunk-distribution pattern).
  const std::uint64_t swap_bytes = (16ull << local.qubits) / 2;

  return lockstep(
      cfg, fabric, /*compute_begin=*/2, /*compute_rounds=*/gates,
      [&](runtime::Runtime& rt, std::uint32_t) {
        return apps::qvsim_steps(rt, cfg.mode, local);
      },
      [&](std::uint32_t round, std::vector<HaloMsg>& msgs) {
        const std::uint32_t bit = 1u << (round % k);
        for (std::uint32_t i = 0; i < cfg.nodes; ++i) {
          msgs.push_back({i, i ^ bit, swap_bytes});
        }
      });
}

}  // namespace ghum::net
