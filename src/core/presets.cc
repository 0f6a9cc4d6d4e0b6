#include "core/presets.h"

namespace csfc {

namespace {
// Large enough that the deadline term dominates any priority separation in
// the stage-2 formula, emulating "f set to a very large value".
constexpr double kLargeF = 1e6;
}  // namespace

CascadedConfig PresetEdf(double deadline_horizon_ms) {
  CascadedConfig c;
  c.encapsulator.stage1_enabled = false;
  c.encapsulator.priority_dims = 0;
  c.encapsulator.stage2_mode = Stage2Mode::kFormula;
  c.encapsulator.f = kLargeF;
  c.encapsulator.stage2_tie = Stage2TieBreak::kNone;
  c.encapsulator.deadline_horizon_ms = deadline_horizon_ms;
  c.encapsulator.stage3_mode = Stage3Mode::kDisabled;
  c.dispatcher.discipline = QueueDiscipline::kFullyPreemptive;
  return c;
}

CascadedConfig PresetMultiQueue(uint32_t priority_bits,
                                double deadline_horizon_ms) {
  CascadedConfig c;
  c.encapsulator.stage1_enabled = false;  // single priority passes through
  c.encapsulator.priority_dims = 1;
  c.encapsulator.priority_bits = priority_bits;
  c.encapsulator.stage2_mode = Stage2Mode::kCurve;
  c.encapsulator.sfc2 = "cscan";
  c.encapsulator.stage2_deadline_major = false;  // priority on the major axis
  c.encapsulator.stage2_bits = std::max(priority_bits, 8u);
  c.encapsulator.deadline_horizon_ms = deadline_horizon_ms;
  c.encapsulator.stage3_mode = Stage3Mode::kDisabled;
  c.dispatcher.discipline = QueueDiscipline::kFullyPreemptive;
  return c;
}

CascadedConfig PresetCScan(uint32_t cylinders) {
  CascadedConfig c;
  c.encapsulator.stage1_enabled = false;
  c.encapsulator.priority_dims = 0;
  c.encapsulator.stage2_mode = Stage2Mode::kDisabled;
  c.encapsulator.stage3_mode = Stage3Mode::kPartitionedCScan;
  c.encapsulator.partitions_r = 1;
  c.encapsulator.cylinders = cylinders;
  c.dispatcher.discipline = QueueDiscipline::kNonPreemptive;
  return c;
}

CascadedConfig PresetScanEdf(uint32_t cylinders, double deadline_horizon_ms) {
  CascadedConfig c;
  c.encapsulator.stage1_enabled = false;
  c.encapsulator.priority_dims = 0;
  c.encapsulator.stage2_mode = Stage2Mode::kFormula;
  c.encapsulator.f = kLargeF;
  c.encapsulator.stage2_tie = Stage2TieBreak::kNone;
  c.encapsulator.deadline_horizon_ms = deadline_horizon_ms;
  // Many partitions: deadline (via v2) picks the partition, the sweep
  // orders requests of similar urgency by cylinder.
  c.encapsulator.stage3_mode = Stage3Mode::kPartitionedCScan;
  c.encapsulator.partitions_r = 64;
  c.encapsulator.stage3_bits = 12;
  c.encapsulator.cylinders = cylinders;
  c.dispatcher.discipline = QueueDiscipline::kFullyPreemptive;
  return c;
}

CascadedConfig PresetStage1Only(const std::string& curve, uint32_t dims,
                                uint32_t bits, double window,
                                bool serve_promote) {
  CascadedConfig c;
  c.encapsulator.stage1_enabled = true;
  c.encapsulator.sfc1 = curve;
  c.encapsulator.priority_dims = dims;
  c.encapsulator.priority_bits = bits;
  c.encapsulator.stage2_mode = Stage2Mode::kDisabled;
  c.encapsulator.stage3_mode = Stage3Mode::kDisabled;
  c.dispatcher.discipline = QueueDiscipline::kConditionallyPreemptive;
  c.dispatcher.window = window;
  c.dispatcher.serve_promote = serve_promote;
  return c;
}

CascadedConfig PresetStage12(const std::string& sfc1, uint32_t dims,
                             uint32_t bits, double f, double window,
                             double deadline_horizon_ms) {
  CascadedConfig c = PresetStage1Only(sfc1, dims, bits, window);
  c.encapsulator.stage2_mode = Stage2Mode::kFormula;
  c.encapsulator.f = f;
  c.encapsulator.stage2_tie = Stage2TieBreak::kEarliestDeadline;
  c.encapsulator.deadline_horizon_ms = deadline_horizon_ms;
  return c;
}

CascadedConfig PresetFull(const std::string& sfc1, uint32_t dims,
                          uint32_t bits, double f, uint32_t r,
                          uint32_t cylinders, double window,
                          double deadline_horizon_ms) {
  CascadedConfig c =
      PresetStage12(sfc1, dims, bits, f, window, deadline_horizon_ms);
  c.encapsulator.stage3_mode = Stage3Mode::kPartitionedCScan;
  c.encapsulator.partitions_r = r;
  c.encapsulator.stage3_bits = 10;
  c.encapsulator.cylinders = cylinders;
  return c;
}

CascadedConfig PresetStage2Curve(const std::string& sfc2, bool deadline_major,
                                 uint32_t bits, double window,
                                 double deadline_horizon_ms) {
  CascadedConfig c;
  c.encapsulator.stage1_enabled = false;  // one priority type: direct entry
  c.encapsulator.priority_dims = 1;
  c.encapsulator.priority_bits = bits;
  c.encapsulator.stage2_mode = Stage2Mode::kCurve;
  c.encapsulator.sfc2 = sfc2;
  c.encapsulator.stage2_deadline_major = deadline_major;
  c.encapsulator.stage2_bits = std::max(bits, 8u);
  c.encapsulator.deadline_horizon_ms = deadline_horizon_ms;
  c.encapsulator.stage3_mode = Stage3Mode::kDisabled;
  c.dispatcher.discipline = QueueDiscipline::kConditionallyPreemptive;
  c.dispatcher.window = window;
  return c;
}

}  // namespace csfc
