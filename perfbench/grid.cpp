// paper-grid: the paper's Figure 3 grid — five Rodinia apps plus qvsim
// (17 qubits), each in explicit, managed and system mode, every cell on a
// fresh core::System with 64 KiB pages and the event log off, as the
// Figure 3 bench runs it. One unit is one cell. Set-up is a warm-up pass of
// the same grid at Scale::kSmall.

#include <algorithm>
#include <memory>
#include <utility>
#include <new>

#include "benchsupport/scenarios.hpp"
#include "fault/status.hpp"
#include "runtime/runtime.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using namespace ghum;
namespace bs = benchsupport;

using MakeFn = apps::AppCoro (*)(runtime::Runtime&, apps::MemMode, bs::Scale,
                                 std::uint64_t seed);

struct GridApp {
  const char* name;
  bool qv;  ///< runs on the Quantum Volume machine (HBM 24 MiB)
  MakeFn make;
};

constexpr std::uint32_t kQubits = 17;

const GridApp kApps[] = {
    {"bfs", false,
     [](runtime::Runtime& rt, apps::MemMode m, bs::Scale s, std::uint64_t seed) {
       apps::BfsConfig c = bs::bfs_config(s);
       c.seed = seed;
       return apps::bfs_steps(rt, m, c);
     }},
    {"hotspot", false,
     [](runtime::Runtime& rt, apps::MemMode m, bs::Scale s, std::uint64_t seed) {
       apps::HotspotConfig c = bs::hotspot_config(s);
       c.seed = seed;
       return apps::hotspot_steps(rt, m, c);
     }},
    {"needle", false,
     [](runtime::Runtime& rt, apps::MemMode m, bs::Scale s, std::uint64_t seed) {
       apps::NeedleConfig c = bs::needle_config(s);
       c.seed = seed;
       return apps::needle_steps(rt, m, c);
     }},
    {"pathfinder", false,
     [](runtime::Runtime& rt, apps::MemMode m, bs::Scale s, std::uint64_t seed) {
       apps::PathfinderConfig c = bs::pathfinder_config(s);
       c.seed = seed;
       return apps::pathfinder_steps(rt, m, c);
     }},
    {"srad", false,
     [](runtime::Runtime& rt, apps::MemMode m, bs::Scale s, std::uint64_t seed) {
       apps::SradConfig c = bs::srad_config(s);
       c.seed = seed;
       return apps::srad_steps(rt, m, c);
     }},
    {"qvsim", true,
     [](runtime::Runtime& rt, apps::MemMode m, bs::Scale s, std::uint64_t seed) {
       apps::QvConfig c = bs::qv_sim_config(s, kQubits);
       c.seed = seed;
       return apps::qvsim_steps(rt, m, c);
     }},
};
constexpr apps::MemMode kModes[] = {apps::MemMode::kExplicit,
                                    apps::MemMode::kManaged,
                                    apps::MemMode::kSystem};
constexpr std::size_t kCells = std::size(kApps) * std::size(kModes);

/// Simulated results and layer counters of one cell.
struct Cell {
  Status status = Status::kSuccess;
  std::uint64_t checksum = 0;
  sim::Picos sim_end = 0;  ///< final simulated time
  // Counters, read only in traced batches.
  std::uint64_t steps = 0;
  std::uint64_t pt_runs = 0;
  std::uint64_t scan_steps = 0;
  std::uint64_t tlb_hits = 0;
  std::uint64_t tlb_misses = 0;
  std::uint64_t gpu_faults = 0;
  std::uint64_t migrated_bytes = 0;
  std::uint64_t prefetch_bytes = 0;
  std::uint64_t os_faults = 0;
  std::uint64_t c2c_bytes = 0;
  std::uint64_t memcpy_bytes = 0;
};

class Grid final : public Workload {
 public:
  explicit Grid(const Params& p) : p_(p) {}

  void setup(SpanLog* log) override {
    Scope s{log, "bench.setup", 0};
    for (std::size_t i = 0; i < kCells; ++i) {
      (void)run_cell(i, bs::Scale::kSmall, nullptr, nullptr, nullptr);
    }
  }

  std::uint64_t run_batch(SpanLog* log) override {
    Scope s{log, "bench.batch", batches_};
    for (std::size_t i = 0; i < kCells; ++i) {
      cells_[i] = run_cell(i, scale(), log, &untimed_ns_, nullptr);
    }
    return kCells;
  }

  std::int64_t untimed_ns() override { return std::exchange(untimed_ns_, 0); }

  void check_batch(SpanLog* log) override {
    // The first traced batch is followed by a census: the same grid with
    // the event log on, counting simulated events. Logging must not change
    // what the simulator does.
    const bool census = log != nullptr && census_events_.empty();
    std::vector<Cell> logged;
    if (census) {
      Scope s{log, "bench.census", batches_};
      census_events_.resize(kCells);
      for (std::size_t i = 0; i < kCells; ++i) {
        logged.push_back(run_cell(i, scale(), nullptr, nullptr, &census_events_[i]));
      }
    }
    for (std::size_t a = 0; a < std::size(kApps); ++a) {
      // All three memory modes of an app compute the same output; the
      // explicit-copy cell is the reference the other two must match.
      std::uint64_t reference = cells_[a * std::size(kModes)].checksum;
      if (p_.corrupt_reference) reference ^= 1;
      for (std::size_t m = 0; m < std::size(kModes); ++m) {
        const std::size_t i = a * std::size(kModes) + m;
        const Cell& c = cells_[i];
        bool ok = c.status == Status::kSuccess;
        if (m > 0 && c.checksum != reference) ok = false;
        // Every batch simulates the same grid: results must repeat.
        if (batches_ == 0) {
          first_[i] = c;
        } else if (!same_result(c, first_[i])) {
          ok = false;
        }
        if (census && !same_result(c, logged[i])) ok = false;
        ++attempted;
        if (!ok) ++failed;
      }
    }
    if (log != nullptr) {
      traced_ = cells_;
      ++traced_batches_;
    }
    ++batches_;
  }

  std::uint64_t digest() const override {
    std::uint64_t h = kFnvBasis;
    for (const Cell& c : first_) {
      h = fnv_mix(h, c.checksum);
      h = fnv_mix(h, static_cast<std::uint64_t>(c.sim_end));
    }
    return h;
  }

  void layer_metrics(const SpanLog& log, Metrics& m) const override {
    if (traced_batches_ == 0) return;
    double sim_s = 0;
    std::uint64_t steps = 0, runs_max = 0, scan = 0, hits = 0,
                  misses = 0, gpu_faults = 0, migrated = 0, prefetch = 0,
                  os_faults = 0, c2c = 0, memcpy = 0;
    for (const Cell& c : traced_) {
      sim_s += sim::to_seconds(c.sim_end);
      steps += c.steps;
      runs_max = std::max(runs_max, c.pt_runs);
      scan += c.scan_steps;
      hits += c.tlb_hits;
      misses += c.tlb_misses;
      gpu_faults += c.gpu_faults;
      migrated += c.migrated_bytes;
      prefetch += c.prefetch_bytes;
      os_faults += c.os_faults;
      c2c += c.c2c_bytes;
      memcpy += c.memcpy_bytes;
    }
    // Counts are per grid pass; they repeat exactly across passes.
    m["sim.sim_s"] = sim_s;
    m["sim.digest"] = static_cast<double>(digest() & kDigestMask);
    m["apps.steps"] = static_cast<double>(steps);
    std::uint64_t events = 0;
    for (const std::uint64_t e : census_events_) events += e;
    m["core.sim_events"] = static_cast<double>(events);
    m["pagetable.runs_max"] = static_cast<double>(runs_max);
    m["pagetable.scan_steps"] = static_cast<double>(scan);
    m["pagetable.tlb_hit_ratio"] =
        hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0;
    m["driver.gpu_faults"] = static_cast<double>(gpu_faults);
    m["driver.migrated_bytes"] = static_cast<double>(migrated);
    m["driver.prefetch_bytes"] = static_cast<double>(prefetch);
    m["os.faults"] = static_cast<double>(os_faults);
    m["interconnect.c2c_bytes"] = static_cast<double>(c2c);
    m["runtime.memcpy_bytes"] = static_cast<double>(memcpy);

    // Host time: mean seconds per cell in each mode, and per app step.
    std::vector<double> by_mode[std::size(kModes)];
    std::vector<double> step_us;
    double timed_s = 0;
    for (const SpanLog::Span& s : log.spans()) {
      const double d = s.seconds();
      const std::string_view name = s.name;
      if (name == "bench.cell") by_mode[s.unit % std::size(kModes)].push_back(d);
      if (name == "apps.step") step_us.push_back(d * 1e6);
      if (name == "bench.batch") timed_s += d;
      if (name == "bench.check") timed_s -= d;
    }
    m["apps.cell_s.explicit"] = mean(by_mode[0]);
    m["apps.cell_s.managed"] = mean(by_mode[1]);
    m["apps.cell_s.system"] = mean(by_mode[2]);
    m["apps.step_us.p50"] = percentile(step_us, 50);
    m["apps.step_us.p99"] = percentile(step_us, 99);
    const double traced_events = static_cast<double>(events * traced_batches_);
    m["core.host_ns_per_event"] = traced_events > 0 ? timed_s * 1e9 / traced_events : 0;
  }

 private:
  [[nodiscard]] bs::Scale scale() const { return p_.small ? bs::Scale::kSmall : bs::Scale::kDefault; }

  [[nodiscard]] static bool same_result(const Cell& a, const Cell& b) {
    return a.status == b.status && a.checksum == b.checksum && a.sim_end == b.sim_end;
  }

  /// Runs cell \p i (app-major, mode-minor) on a fresh System. When
  /// \p untimed is set, the host time spent reading counters is added to
  /// it so the caller can leave it out of the timed phase. When \p events
  /// is set, the cell runs with the event log on and stores the number of
  /// events recorded there.
  Cell run_cell(std::size_t i, bs::Scale scale, SpanLog* log, std::int64_t* untimed,
                std::uint64_t* events) {
    const GridApp& app = kApps[i / std::size(kModes)];
    const apps::MemMode mode = kModes[i % std::size(kModes)];
    const std::uint64_t unit = batches_ * kCells + i;  // one id per cell run
    Scope cell_span{log, "bench.cell", unit};
    Cell c;
    std::unique_ptr<core::System> sys;
    std::unique_ptr<runtime::Runtime> rt;
    {
      Scope s{log, "core.build", unit};
      core::SystemConfig cfg = app.qv ? bs::qv_config(pagetable::kSystemPage64K, false)
                                      : bs::rodinia_config(pagetable::kSystemPage64K, false);
      cfg.event_log = events != nullptr;
      sys = std::make_unique<core::System>(cfg);
      rt = std::make_unique<runtime::Runtime>(*sys);
    }
    {
      apps::AppCoro coro =
          app.make(*rt, mode, scale, derive_seed(p_.seed, i / std::size(kModes)));
      try {
        if (log == nullptr) {
          while (coro.step()) {
          }
        } else {
          for (bool more = true; more; ++c.steps) {
            {
              Scope s{log, "apps.step", unit};
              more = coro.step();
            }
            // Buffers are freed before the app returns, so the extent
            // count is sampled at every step boundary.
            c.pt_runs = std::max<std::uint64_t>(c.pt_runs, sys->machine().system_pt().run_count());
          }
        }
        c.checksum = coro.report().checksum;
      } catch (const StatusError& e) {
        c.status = e.status();
      } catch (const std::bad_alloc&) {
        c.status = Status::kErrorMemoryAllocation;
      }
    }
    c.sim_end = sys->now();
    if (events != nullptr) *events = sys->events().events().size();
    if (log != nullptr) {
      const std::int64_t t0 = now_ns();
      Scope s{log, "bench.check", unit};
      read_counters(*sys, c);
      if (untimed != nullptr) *untimed += now_ns() - t0;
    }
    {
      Scope s{log, "core.teardown", unit};
      rt.reset();
      sys.reset();
    }
    return c;
  }

  static void read_counters(core::System& sys, Cell& c) {
    core::Machine& mach = sys.machine();
    c.scan_steps = mach.system_pt().scan_steps() + mach.gpu_pt().scan_steps();
    c.tlb_hits = counter_family(mach.obs(), "ghum_tlb_hits_total");
    c.tlb_misses = counter_family(mach.obs(), "ghum_tlb_misses_total");
    c.gpu_faults = sys.stats().get("driver.managed.gpu_faults");
    const obs::MemSysMetrics& met = mach.metrics();
    c.migrated_bytes = met.migrated_bytes_h2d->value() + met.migrated_bytes_d2h->value();
    c.prefetch_bytes = met.prefetched_bytes->value();
    c.os_faults = sys.fault_handler().faults(mem::Node::kCpu) +
                  sys.fault_handler().faults(mem::Node::kGpu);
    c.c2c_bytes = mach.c2c().bytes_moved(interconnect::Direction::kCpuToGpu) +
                  mach.c2c().bytes_moved(interconnect::Direction::kGpuToCpu);
    c.memcpy_bytes = sys.stats().get("runtime.memcpy_bytes");
  }

  Params p_;
  std::uint64_t batches_ = 0;
  std::int64_t untimed_ns_ = 0;
  std::vector<Cell> cells_ = std::vector<Cell>(kCells);
  std::vector<Cell> first_ = std::vector<Cell>(kCells);
  std::vector<Cell> traced_;  ///< cells of the last traced batch
  std::vector<std::uint64_t> census_events_;  ///< events per cell, event log on
  std::uint64_t traced_batches_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_grid(const Params& p) { return std::make_unique<Grid>(p); }

}  // namespace perfbench
