#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "benchsupport/scenarios.hpp"
#include "runtime/runtime.hpp"

// Golden pin of the paper's Figure 3 grid at Scale::kSmall: all six apps in
// all three memory modes, each on a fresh machine with the event log on.
// Every value below was recorded from the simulator and must repeat
// exactly. The pin compares the Span accounting against fixed numbers, not
// against another path that shares it: a change to how accesses are
// counted (bytes, unique lines, page visits, commit boundaries) moves the
// traffic sums, the simulated end time or the event digest of some cell.
//
// On a mismatch the test prints the whole table as it now reads, in the
// source form of kGolden, so an intended model change can be re-pinned.

namespace ghum {
namespace {

namespace bs = benchsupport;
using apps::MemMode;

constexpr std::uint32_t kQubits = 17;

struct GoldenCell {
  std::string_view app;
  MemMode mode;
  Status status;
  std::uint64_t checksum;
  sim::Picos sim_end;
  std::uint64_t event_digest;
  std::uint64_t l1l2_bytes;
  std::uint64_t hbm_read_bytes;
  std::uint64_t hbm_write_bytes;
  std::uint64_t ddr_read_bytes;
  std::uint64_t ddr_write_bytes;
  std::uint64_t c2c_read_bytes;
  std::uint64_t c2c_write_bytes;

  bool operator==(const GoldenCell&) const = default;
};

// clang-format off
const GoldenCell kGolden[] = {
    {"bfs", MemMode::kExplicit, Status::kSuccess, 12217964842933167717ull, 9369062089, 4503240115883810250ull, 2572032, 1050924, 266916, 0, 573504, 0, 1152},
    {"bfs", MemMode::kManaged, Status::kSuccess, 12217964842933167717ull, 8582585982, 2604988002389510576ull, 2572416, 1051003, 266931, 0, 573504, 0, 1152},
    {"bfs", MemMode::kSystem, Status::kSuccess, 12217964842933167717ull, 8177205836, 6009213859632593364ull, 2572032, 0, 0, 0, 573504, 2011529, 560503},
    {"hotspot", MemMode::kExplicit, Status::kSuccess, 12958572477492417851ull, 8649088181, 3443486873322110978ull, 2942976, 2949120, 589824, 0, 294912, 0, 0},
    {"hotspot", MemMode::kManaged, Status::kSuccess, 12958572477492417851ull, 8474052436, 2606594530994716465ull, 2943104, 2949140, 589824, 0, 294912, 0, 0},
    {"hotspot", MemMode::kSystem, Status::kSuccess, 12958572477492417851ull, 8247426212, 16682024602005855539ull, 2942976, 1179648, 294912, 0, 294912, 1471488, 294912},
    {"needle", MemMode::kExplicit, Status::kSuccess, 6097986680353855866ull, 8584655936, 12561875167469663805ull, 2850816, 671744, 262144, 0, 530240, 0, 0},
    {"needle", MemMode::kManaged, Status::kSuccess, 6097986680353855866ull, 8478456255, 9177998688339302166ull, 2850944, 671768, 262144, 0, 530240, 0, 0},
    {"needle", MemMode::kSystem, Status::kSuccess, 6097986680353855866ull, 8185008328, 4050460565642959007ull, 2850816, 0, 0, 0, 530240, 2080768, 770048},
    {"pathfinder", MemMode::kExplicit, Status::kSuccess, 3858522577108079789ull, 8871257684, 2450228278593344085ull, 774144, 516348, 258048, 0, 262144, 0, 0},
    {"pathfinder", MemMode::kManaged, Status::kSuccess, 3858522577108079789ull, 8630844067, 11620258191627559426ull, 774400, 516396, 258048, 0, 262144, 0, 0},
    {"pathfinder", MemMode::kSystem, Status::kSuccess, 3858522577108079789ull, 8475685640, 1236514120563084188ull, 774400, 254200, 258048, 0, 262144, 262400, 0},
    {"srad", MemMode::kExplicit, Status::kSuccess, 14704995987399598453ull, 9285806219, 2580729710380628057ull, 9819648, 7983360, 3686400, 0, 102400, 0, 768},
    {"srad", MemMode::kManaged, Status::kSuccess, 14704995987399598453ull, 8435225645, 12418840124373156324ull, 9820544, 7983436, 3686512, 0, 102400, 0, 768},
    {"srad", MemMode::kSystem, Status::kSuccess, 14704995987399598453ull, 8185573508, 3403946435869820040ull, 9821440, 4296960, 3072224, 0, 102400, 2757888, 307968},
    {"qvsim", MemMode::kExplicit, Status::kSuccess, 3615917497988629376ull, 8433433521, 1996141497096844707ull, 50331648, 33554432, 35651584, 0, 0, 0, 0},
    {"qvsim", MemMode::kManaged, Status::kSuccess, 3615917497988629376ull, 8140539474, 14346224160605429349ull, 50331648, 33554432, 35651584, 0, 0, 0, 0},
    {"qvsim", MemMode::kSystem, Status::kSuccess, 3615917497988629376ull, 8253674016, 17599169863616282969ull, 50331648, 33554432, 35651584, 0, 0, 0, 0},
};

// hotspot, needle, pathfinder and srad at Scale::kSmall on
// rodinia_config(kSystemPage4K, /*access_counters=*/true).
const GoldenCell kGolden4K[] = {
    {"hotspot", MemMode::kExplicit, Status::kSuccess, 12958572477492417851ull, 8696576915, 17175893102387929274ull, 2942976, 2949120, 589824, 0, 294912, 0, 0},
    {"hotspot", MemMode::kManaged, Status::kSuccess, 12958572477492417851ull, 8511266680, 9225842820547411199ull, 2943104, 2949140, 589824, 0, 294912, 0, 0},
    {"hotspot", MemMode::kSystem, Status::kSuccess, 12958572477492417851ull, 8299084109, 6297199739900768195ull, 2943360, 2307056, 589824, 0, 294912, 628608, 0},
    {"needle", MemMode::kExplicit, Status::kSuccess, 6097986680353855866ull, 8674053894, 893042022069178852ull, 2850816, 671744, 262144, 0, 540992, 0, 0},
    {"needle", MemMode::kManaged, Status::kSuccess, 6097986680353855866ull, 8549386099, 7881874330544459037ull, 2850944, 671768, 262144, 0, 540992, 0, 0},
    {"needle", MemMode::kSystem, Status::kSuccess, 6097986680353855866ull, 8277220125, 1280077381717062430ull, 2851072, 402860, 258368, 0, 540992, 791680, 12416},
    {"pathfinder", MemMode::kExplicit, Status::kSuccess, 3858522577108079789ull, 8915825624, 3321587254824100681ull, 774144, 516348, 258048, 0, 262144, 0, 0},
    {"pathfinder", MemMode::kManaged, Status::kSuccess, 3858522577108079789ull, 8669484007, 4895405873577221018ull, 774400, 516396, 258048, 0, 262144, 0, 0},
    {"pathfinder", MemMode::kSystem, Status::kSuccess, 3858522577108079789ull, 8527928014, 8394437841898713009ull, 774400, 483576, 258048, 0, 262144, 33024, 0},
    {"srad", MemMode::kExplicit, Status::kSuccess, 14704995987399598453ull, 9300942596, 1258498354750054399ull, 9819648, 7983360, 3686400, 0, 102400, 0, 768},
    {"srad", MemMode::kManaged, Status::kSuccess, 14704995987399598453ull, 8446802795, 17473407185376587483ull, 9820544, 7983436, 3686512, 0, 102400, 0, 768},
    {"srad", MemMode::kSystem, Status::kSuccess, 14704995987399598453ull, 8387140210, 17314741786990591971ull, 9842048, 7951148, 3689200, 0, 102400, 32768, 768},
};
// clang-format on

/// One pinned app run: the label its cells carry and how it runs on a
/// machine. The machine is qv_config() for the label "qvsim" and
/// rodinia_config() otherwise.
struct PinnedRun {
  std::string_view label;
  std::function<apps::AppReport(runtime::Runtime&, MemMode)> run;
};

/// The named app at Scale::kSmall (qvsim at kQubits).
PinnedRun small_app(std::string_view app) {
  if (app == "qvsim") {
    return {app, [](runtime::Runtime& rt, MemMode mode) {
              return apps::run_qvsim(rt, mode, bs::qv_sim_config(bs::Scale::kSmall, kQubits));
            }};
  }
  for (const bs::NamedApp& a : bs::rodinia_apps()) {
    if (a.name == app) {
      return {app, [&a](runtime::Runtime& rt, MemMode mode) {
                return a.run(rt, mode, bs::Scale::kSmall);
              }};
    }
  }
  throw std::invalid_argument{"unknown app"};
}

GoldenCell run_cell(const PinnedRun& app, MemMode mode, std::uint64_t page,
                    bool access_counters) {
  core::SystemConfig cfg = app.label == "qvsim"
                               ? bs::qv_config(page, access_counters)
                               : bs::rodinia_config(page, access_counters);
  cfg.event_log = true;
  core::System sys{cfg};
  runtime::Runtime rt{sys};
  const bs::GuardedResult r = bs::guarded_run([&] { return app.run(rt, mode); });
  const cache::KernelTraffic t = sys.workload().total("");
  return GoldenCell{app.label,
                    mode,
                    r.status,
                    r.report.checksum,
                    sys.now(),
                    sys.events().digest(sys.now()),
                    t.l1l2_bytes,
                    t.hbm_read_bytes,
                    t.hbm_write_bytes,
                    t.ddr_read_bytes,
                    t.ddr_write_bytes,
                    t.c2c_read_bytes,
                    t.c2c_write_bytes};
}

std::string source_row(const GoldenCell& c) {
  static const char* const kModeNames[] = {"kExplicit", "kManaged", "kSystem"};
  std::ostringstream o;
  o << "    {\"" << c.app << "\", MemMode::" << kModeNames[static_cast<int>(c.mode)]
    << ", "
    << (c.status == Status::kSuccess
            ? std::string{"Status::kSuccess"}
            : "static_cast<Status>(" + std::to_string(static_cast<int>(c.status)) + ")")
    << ", "
    << c.checksum << "ull, " << c.sim_end << ", " << c.event_digest << "ull, "
    << c.l1l2_bytes << ", " << c.hbm_read_bytes << ", " << c.hbm_write_bytes << ", "
    << c.ddr_read_bytes << ", " << c.ddr_write_bytes << ", " << c.c2c_read_bytes << ", "
    << c.c2c_write_bytes << "},\n";
  return o.str();
}

/// Runs \p runs x all three modes at \p page size and compares every cell
/// with \p pinned, printing the table as it now reads on any mismatch.
template <std::size_t N>
void expect_pinned(const std::vector<PinnedRun>& runs, std::uint64_t page,
                   bool access_counters, const GoldenCell (&pinned_cells)[N]) {
  const MemMode kModes[] = {MemMode::kExplicit, MemMode::kManaged, MemMode::kSystem};
  std::vector<GoldenCell> actual;
  for (const PinnedRun& run : runs) {
    for (const MemMode mode : kModes) {
      actual.push_back(run_cell(run, mode, page, access_counters));
    }
  }
  const std::vector<GoldenCell> pinned(std::begin(pinned_cells), std::end(pinned_cells));
  for (std::size_t i = 0; i < std::min(actual.size(), pinned.size()); ++i) {
    EXPECT_TRUE(actual[i] == pinned[i])
        << "cell " << pinned[i].app << "/" << apps::to_string(pinned[i].mode)
        << " now reads\n" << source_row(actual[i]);
  }
  if (actual != pinned) {
    std::string table;
    for (const GoldenCell& c : actual) table += source_row(c);
    ADD_FAILURE() << "current table:\n" << table;
  }
}

/// The named apps at Scale::kSmall.
template <std::size_t N>
void expect_pinned(std::initializer_list<std::string_view> apps, std::uint64_t page,
                   bool access_counters, const GoldenCell (&pinned_cells)[N]) {
  std::vector<PinnedRun> runs;
  for (const std::string_view app : apps) runs.push_back(small_app(app));
  expect_pinned(runs, page, access_counters, pinned_cells);
}

TEST(GoldenGrid, SmallScaleGridMatchesPinnedValues) {
  expect_pinned({"bfs", "hotspot", "needle", "pathfinder", "srad", "qvsim"},
                pagetable::kSystemPage64K, /*access_counters=*/false, kGolden);
}

// The stencil and DP apps again with 4 KiB pages and access-counter
// migration on: their rows cross pages mid-row, and counter-driven
// migrations bump the residency epoch while a kernel's spans are live, so
// page visits start and end inside the column loops.
TEST(GoldenGrid, SmallScale4KAccessCountersMatchPinnedValues) {
  expect_pinned({"hotspot", "needle", "pathfinder", "srad"}, pagetable::kSystemPage4K,
                /*access_counters=*/true, kGolden4K);
}

// srad, hotspot and pathfinder on shapes made mostly or wholly of clamped
// edge cells: one cell, one row, one column and a 3x3 block, and
// pathfinder rows of 1, 2, 3 and 17 columns. Here the first and last
// columns, where the kernels clamp their neighbours, meet or are the whole
// row. The values were recorded before the kernels' rows moved into
// apps/kernel_rows.hpp, except srad 1x1's checksum: a one-pixel image has
// zero variance, and its pixel stays as initialized rather than turning
// NaN.
// clang-format off
const GoldenCell kGoldenEdgeShapes[] = {
    {"srad 1x1", MemMode::kExplicit, Status::kSuccess, 15072822453329701344ull, 9277082990, 16320364382752685506ull, 13056, 2016, 1056, 0, 64, 0, 768},
    {"srad 1x1", MemMode::kManaged, Status::kSuccess, 15072822453329701344ull, 8392202620, 15908599652481614773ull, 13056, 2016, 1056, 0, 64, 0, 768},
    {"srad 1x1", MemMode::kSystem, Status::kSuccess, 15072822453329701344ull, 8145848185, 13507244039283839216ull, 13056, 1152, 960, 0, 64, 3456, 1152},
    {"srad 1x17", MemMode::kExplicit, Status::kSuccess, 5302365902372872082ull, 9277085125, 13939299430915955744ull, 13056, 5280, 2448, 0, 128, 0, 768},
    {"srad 1x17", MemMode::kManaged, Status::kSuccess, 5302365902372872082ull, 8392204304, 10199127488902268302ull, 13952, 5356, 2560, 0, 128, 0, 768},
    {"srad 1x17", MemMode::kSystem, Status::kSuccess, 5302365902372872082ull, 8145850202, 15779839823839761387ull, 13952, 2832, 2152, 0, 128, 3840, 1152},
    {"srad 17x1", MemMode::kExplicit, Status::kSuccess, 5302365902372872082ull, 9277085017, 9428106661717549307ull, 13056, 4896, 2448, 0, 128, 0, 768},
    {"srad 17x1", MemMode::kManaged, Status::kSuccess, 5302365902372872082ull, 8392204197, 6152415359787212915ull, 13952, 4976, 2560, 0, 128, 0, 768},
    {"srad 17x1", MemMode::kSystem, Status::kSuccess, 5302365902372872082ull, 8145850094, 4899376722424399357ull, 13952, 2448, 2152, 0, 128, 3840, 1152},
    {"srad 3x3", MemMode::kExplicit, Status::kSuccess, 16958612732656106791ull, 9277083558, 8674916014504935712ull, 13056, 2736, 1296, 0, 64, 0, 768},
    {"srad 3x3", MemMode::kManaged, Status::kSuccess, 16958612732656106791ull, 8392202988, 15266678051789200980ull, 13952, 2812, 1408, 0, 64, 0, 768},
    {"srad 3x3", MemMode::kSystem, Status::kSuccess, 16958612732656106791ull, 8145849348, 16455597268172703532ull, 13952, 1440, 1192, 0, 64, 3840, 1152},
    {"hotspot 1x1", MemMode::kExplicit, Status::kSuccess, 18435129236190670812ull, 8629184092, 13357693059088770092ull, 2560, 512, 128, 0, 128, 0, 0},
    {"hotspot 1x1", MemMode::kManaged, Status::kSuccess, 18435129236190670812ull, 8315723362, 4673510104099761630ull, 2560, 512, 128, 0, 128, 0, 0},
    {"hotspot 1x1", MemMode::kSystem, Status::kSuccess, 18435129236190670812ull, 8225170204, 12075230607467804430ull, 2560, 192, 64, 0, 128, 1280, 256},
    {"hotspot 1x17", MemMode::kExplicit, Status::kSuccess, 7596196951859324962ull, 8629185512, 17162277650108569965ull, 2560, 1360, 272, 0, 256, 0, 0},
    {"hotspot 1x17", MemMode::kManaged, Status::kSuccess, 7596196951859324962ull, 8315723931, 8908768990292808537ull, 2688, 1380, 272, 0, 256, 0, 0},
    {"hotspot 1x17", MemMode::kSystem, Status::kSuccess, 7596196951859324962ull, 8225170596, 9779800961301612515ull, 2560, 544, 136, 0, 256, 1280, 256},
    {"hotspot 17x1", MemMode::kExplicit, Status::kSuccess, 7596196951859324962ull, 8629185512, 17162277650108569965ull, 2560, 1360, 272, 0, 256, 0, 0},
    {"hotspot 17x1", MemMode::kManaged, Status::kSuccess, 7596196951859324962ull, 8315723932, 12309754245339942429ull, 2688, 1384, 272, 0, 256, 0, 0},
    {"hotspot 17x1", MemMode::kSystem, Status::kSuccess, 7596196951859324962ull, 8225170596, 9779800961301612515ull, 2560, 544, 136, 0, 256, 1280, 256},
    {"hotspot 3x3", MemMode::kExplicit, Status::kSuccess, 3077628457603979581ull, 8629184586, 6549269998333240770ull, 2560, 720, 144, 0, 128, 0, 0},
    {"hotspot 3x3", MemMode::kManaged, Status::kSuccess, 3077628457603979581ull, 8315723431, 5141795757608002934ull, 2688, 740, 144, 0, 128, 0, 0},
    {"hotspot 3x3", MemMode::kSystem, Status::kSuccess, 3077628457603979581ull, 8225170234, 5026787756149664660ull, 2560, 288, 72, 0, 128, 1280, 256},
    {"pathfinder c1", MemMode::kExplicit, Status::kSuccess, 4525023903997977743ull, 8857184896, 2256365748387145530ull, 24192, 4032, 2016, 0, 256, 0, 0},
    {"pathfinder c1", MemMode::kManaged, Status::kSuccess, 4525023903997977743ull, 8547566688, 8683850186207549084ull, 24192, 4032, 2016, 0, 256, 0, 0},
    {"pathfinder c1", MemMode::kSystem, Status::kSuccess, 4525023903997977743ull, 8462092075, 13037942125144807879ull, 24192, 1984, 2016, 0, 256, 8192, 0},
    {"pathfinder c2", MemMode::kExplicit, Status::kSuccess, 17461151922250061255ull, 8857186494, 5482920539175585225ull, 24192, 4032, 2016, 0, 512, 0, 0},
    {"pathfinder c2", MemMode::kManaged, Status::kSuccess, 17461151922250061255ull, 8547567225, 12576008846136807860ull, 24320, 4064, 2016, 0, 512, 0, 0},
    {"pathfinder c2", MemMode::kSystem, Status::kSuccess, 17461151922250061255ull, 8462092943, 15864195981282143425ull, 24320, 1984, 2016, 0, 512, 8320, 0},
    {"pathfinder c3", MemMode::kExplicit, Status::kSuccess, 5658920016876080595ull, 8857188128, 5039187380052833690ull, 24704, 4160, 2016, 0, 768, 0, 0},
    {"pathfinder c3", MemMode::kManaged, Status::kSuccess, 5658920016876080595ull, 8547567798, 8925862793364641532ull, 24960, 4224, 2016, 0, 768, 0, 0},
    {"pathfinder c3", MemMode::kSystem, Status::kSuccess, 5658920016876080595ull, 8462095175, 9841573108261949177ull, 24960, 1984, 2016, 0, 768, 8960, 0},
    {"pathfinder c17", MemMode::kExplicit, Status::kSuccess, 2028371410978988223ull, 8857212600, 14025855074683760061ull, 28288, 8820, 4284, 0, 4352, 0, 0},
    {"pathfinder c17", MemMode::kManaged, Status::kSuccess, 2028371410978988223ull, 8547577289, 11310285914800780279ull, 28544, 8868, 4284, 0, 4352, 0, 0},
    {"pathfinder c17", MemMode::kSystem, Status::kSuccess, 2028371410978988223ull, 8462113534, 15010646576213577106ull, 28544, 4464, 4284, 0, 4352, 12544, 0},
};
// clang-format on

std::vector<PinnedRun> edge_shapes() {
  std::vector<PinnedRun> runs;
  const auto srad = [&](std::string_view label, std::uint32_t rows, std::uint32_t cols) {
    apps::SradConfig cfg = bs::srad_config(bs::Scale::kSmall);
    cfg.rows = rows;
    cfg.cols = cols;
    runs.push_back({label, [cfg](runtime::Runtime& rt, MemMode mode) {
                      return apps::run_srad(rt, mode, cfg);
                    }});
  };
  const auto hotspot = [&](std::string_view label, std::uint32_t rows, std::uint32_t cols) {
    apps::HotspotConfig cfg = bs::hotspot_config(bs::Scale::kSmall);
    cfg.rows = rows;
    cfg.cols = cols;
    runs.push_back({label, [cfg](runtime::Runtime& rt, MemMode mode) {
                      return apps::run_hotspot(rt, mode, cfg);
                    }});
  };
  const auto pathfinder = [&](std::string_view label, std::uint32_t cols) {
    apps::PathfinderConfig cfg = bs::pathfinder_config(bs::Scale::kSmall);
    cfg.cols = cols;
    runs.push_back({label, [cfg](runtime::Runtime& rt, MemMode mode) {
                      return apps::run_pathfinder(rt, mode, cfg);
                    }});
  };
  srad("srad 1x1", 1, 1);
  srad("srad 1x17", 1, 17);
  srad("srad 17x1", 17, 1);
  srad("srad 3x3", 3, 3);
  hotspot("hotspot 1x1", 1, 1);
  hotspot("hotspot 1x17", 1, 17);
  hotspot("hotspot 17x1", 17, 1);
  hotspot("hotspot 3x3", 3, 3);
  pathfinder("pathfinder c1", 1);
  pathfinder("pathfinder c2", 2);
  pathfinder("pathfinder c3", 3);
  pathfinder("pathfinder c17", 17);
  return runs;
}

TEST(GoldenGrid, EdgeShapesMatchPinnedValues) {
  expect_pinned(edge_shapes(), pagetable::kSystemPage64K, /*access_counters=*/false,
                kGoldenEdgeShapes);
}

// qvsim's host reference and both gate kernels apply a gate through one
// shared body, so the apps tests that compare a run with
// qvsim_reference_checksum() cannot see a change to that body. These
// values pin it from outside: they were recorded before the three paths
// shared it.

TEST(QvGolden, ReferenceChecksumsMatchPinnedValues) {
  // The configs of QvsimMatchesReference, QvsimExplicitChunkedPipelineMatchesReference
  // and QvsimExplicitChunkedAcrossChunkWidths.
  EXPECT_EQ(apps::qvsim_reference_checksum(bs::qv_sim_config(bs::Scale::kSmall, 10)),
            13469320486134064646ull);
  EXPECT_EQ(apps::qvsim_reference_checksum({.qubits = 14, .depth = 2, .seed = 5}),
            2179833198930671442ull);
  EXPECT_EQ(apps::qvsim_reference_checksum({.qubits = 12, .depth = 3, .seed = 11}),
            1191817494544091283ull);
}

struct QvRun {
  std::uint64_t checksum;
  sim::Picos sim_end;
  std::uint64_t event_digest;
};

QvRun run_qv(core::SystemConfig mc, MemMode mode, const apps::QvConfig& cfg) {
  mc.event_log = true;
  core::System sys{mc};
  runtime::Runtime rt{sys};
  const std::uint64_t checksum = apps::run_qvsim(rt, mode, cfg).checksum;
  return {checksum, sys.now(), sys.events().digest(sys.now())};
}

TEST(QvGolden, ExplicitChunkedRunMatchesPinnedValues) {
  // The 14-qubit statevector does not fit the 1 MiB of free HBM: Aer's
  // chunk-exchange pipeline stages it through device chunk buffers.
  core::SystemConfig mc = bs::qv_config(pagetable::kSystemPage64K, false);
  mc.hbm_capacity = 2ull << 20;
  mc.gpu_driver_baseline = 1ull << 20;
  const QvRun r = run_qv(mc, MemMode::kExplicit, {.qubits = 14, .depth = 2, .seed = 5});
  EXPECT_EQ(r.checksum, 2179833198930671442ull);
  EXPECT_EQ(r.sim_end, 10341995922);
  EXPECT_EQ(r.event_digest, 11847860476401888262ull);
}

TEST(QvGolden, FleetChaosTemplateMatchesPinnedValues) {
  // The managed 16-qubit qvsim job of the fleet-chaos catalog, on its node
  // configuration.
  const QvRun r = run_qv(bs::rodinia_config(pagetable::kSystemPage64K, false),
                         MemMode::kManaged, bs::qv_sim_config(bs::Scale::kSmall, 16));
  EXPECT_EQ(r.checksum, 10702829359926139956ull);
  EXPECT_EQ(r.sim_end, 8129861736);
  EXPECT_EQ(r.event_digest, 17260069152380938029ull);
}

}  // namespace
}  // namespace ghum
