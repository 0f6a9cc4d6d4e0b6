// The LUT fast path must be a pure optimization: for every registered
// curve the precomputed cell -> index table equals direct IndexOf on every
// grid cell, and an Encapsulator that builds its tables produces
// bit-identical characterization values to one capped at lut_max_cells = 0
// (no table), across every stage mode.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/encapsulator.h"
#include "core/presets.h"
#include "sfc/curve.h"
#include "sfc/registry.h"
#include "workload/request.h"

namespace csfc {
namespace {

std::vector<Request> GridRequests(const EncapsulatorConfig& cfg, size_t n) {
  const uint32_t levels = uint32_t{1} << cfg.priority_bits;
  std::vector<Request> reqs(n);
  uint64_t x = 0x243F6A8885A308D3ULL;
  for (size_t i = 0; i < n; ++i) {
    Request& r = reqs[i];
    r.id = i;
    for (uint32_t k = 0; k < cfg.priority_dims; ++k) {
      x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      r.priorities.push_back(static_cast<PriorityLevel>((x >> 33) % levels));
    }
    r.deadline = MsToSim(static_cast<double>((x >> 17) % 1500));
    r.cylinder = static_cast<Cylinder>((x >> 7) % cfg.cylinders);
  }
  return reqs;
}

void ExpectLutMatchesDirect(const EncapsulatorConfig& cfg) {
  EncapsulatorConfig no_lut = cfg;
  no_lut.lut_max_cells = 0;
  auto direct = Encapsulator::Create(no_lut);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  auto lut = Encapsulator::Create(cfg);
  ASSERT_TRUE(lut.ok()) << lut.status().ToString();

  const auto reqs = GridRequests(cfg, 4096);
  for (const DispatchContext ctx :
       {DispatchContext{.now = 0, .head = 0},
        DispatchContext{.now = MsToSim(250), .head = 1900},
        DispatchContext{.now = MsToSim(990), .head = 3831}}) {
    for (const Request& r : reqs) {
      ASSERT_EQ((*direct)->Characterize(r, ctx), (*lut)->Characterize(r, ctx))
          << cfg.Signature() << " request " << r.id;
    }
  }
}

// --- Curve index tables -----------------------------------------------------

TEST(BuildIndexTableTest, MatchesIndexOfForEveryCurveAndCell) {
  for (const GridSpec spec : {GridSpec{.dims = 2, .bits = 3},
                              GridSpec{.dims = 3, .bits = 2}}) {
    for (const auto& name : AllCurveNames()) {
      auto curve = MakeCurve(name, spec);
      ASSERT_TRUE(curve.ok()) << name;
      const std::vector<uint64_t> table = (*curve)->BuildIndexTable();
      ASSERT_EQ(table.size(), (*curve)->num_cells()) << name;
      for (uint64_t i = 0; i < (*curve)->num_cells(); ++i) {
        const std::vector<uint32_t> p = (*curve)->PointOf(i);
        EXPECT_EQ((*curve)->IndexOf(p), i) << name;
        EXPECT_EQ(table[(*curve)->CellOf(p)], i)
            << name << " cell for index " << i;
      }
    }
  }
}

// --- Encapsulator equivalence -----------------------------------------------

TEST(EncapsulatorLutTest, Stage1MatchesDirectForEveryCurve) {
  for (const auto& name : AllCurveNames()) {
    CascadedConfig cfg =
        PresetFull(std::string(name), 3, 4, 1.0, 3, 3832, 0.05, 700.0);
    ExpectLutMatchesDirect(cfg.encapsulator);
  }
}

TEST(EncapsulatorLutTest, Stage2CurveModeMatchesDirect) {
  for (const char* name : {"diagonal", "hilbert"}) {
    for (const bool deadline_major : {false, true}) {
      CascadedConfig cfg =
          PresetFull("hilbert", 2, 3, 1.0, 3, 3832, 0.05, 700.0);
      cfg.encapsulator.stage2_mode = Stage2Mode::kCurve;
      cfg.encapsulator.sfc2 = name;
      cfg.encapsulator.stage2_bits = 7;
      cfg.encapsulator.stage2_deadline_major = deadline_major;
      ExpectLutMatchesDirect(cfg.encapsulator);
    }
  }
}

TEST(EncapsulatorLutTest, Stage3CurveModeMatchesDirect) {
  for (const char* name : {"cscan", "spiral", "hilbert"}) {
    CascadedConfig cfg =
        PresetFull("hilbert", 2, 3, 1.0, 3, 3832, 0.05, 700.0);
    cfg.encapsulator.stage3_mode = Stage3Mode::kCurve;
    cfg.encapsulator.sfc3 = name;
    cfg.encapsulator.stage3_bits = 7;
    ExpectLutMatchesDirect(cfg.encapsulator);
  }
}

TEST(EncapsulatorLutTest, AllCurveCascadeMatchesDirect) {
  CascadedConfig cfg = PresetFull("peano", 3, 3, 1.0, 3, 3832, 0.05, 700.0);
  cfg.encapsulator.stage2_mode = Stage2Mode::kCurve;
  cfg.encapsulator.sfc2 = "gray";
  cfg.encapsulator.stage2_bits = 6;
  cfg.encapsulator.stage3_mode = Stage3Mode::kCurve;
  cfg.encapsulator.sfc3 = "scan";
  cfg.encapsulator.stage3_bits = 6;
  ExpectLutMatchesDirect(cfg.encapsulator);
}

TEST(EncapsulatorLutTest, StageFlagsReflectModes) {
  CascadedConfig cfg = PresetFull("hilbert", 3, 4, 1.0, 3, 3832, 0.05, 700.0);
  auto e = Encapsulator::Create(cfg.encapsulator);
  ASSERT_TRUE(e.ok());
  EXPECT_TRUE((*e)->stage1_uses_lut());
  // Formula stage 2 and partitioned-C-SCAN stage 3 have no curve to
  // tabulate.
  EXPECT_FALSE((*e)->stage2_uses_lut());
  EXPECT_FALSE((*e)->stage3_uses_lut());

  cfg.encapsulator.stage2_mode = Stage2Mode::kCurve;
  cfg.encapsulator.sfc2 = "diagonal";
  cfg.encapsulator.stage3_mode = Stage3Mode::kCurve;
  cfg.encapsulator.sfc3 = "cscan";
  auto e2 = Encapsulator::Create(cfg.encapsulator);
  ASSERT_TRUE(e2.ok());
  EXPECT_TRUE((*e2)->stage2_uses_lut());
  EXPECT_TRUE((*e2)->stage3_uses_lut());
}

TEST(EncapsulatorLutTest, OversizedGridsFallBackToDirectEval) {
  CascadedConfig cfg = PresetFull("hilbert", 3, 4, 1.0, 3, 3832, 0.05, 700.0);
  cfg.encapsulator.lut_max_cells = 16;  // below the 2^12 stage-1 grid
  auto e = Encapsulator::Create(cfg.encapsulator);
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE((*e)->stage1_uses_lut());
  // Still correct, just slower.
  ExpectLutMatchesDirect(cfg.encapsulator);
}

TEST(EncapsulatorLutTest, DisabledLutBuildsNoTables) {
  CascadedConfig cfg = PresetFull("hilbert", 3, 4, 1.0, 3, 3832, 0.05, 700.0);
  cfg.encapsulator.lut_max_cells = 0;
  auto e = Encapsulator::Create(cfg.encapsulator);
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE((*e)->stage1_uses_lut());
  EXPECT_FALSE((*e)->stage2_uses_lut());
  EXPECT_FALSE((*e)->stage3_uses_lut());
}

}  // namespace
}  // namespace csfc
