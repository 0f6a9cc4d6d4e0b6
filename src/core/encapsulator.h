// Part 1 of the Cascaded-SFC scheduler: the encapsulator (Figure 2).
//
// A disk request with D priority dimensions, a deadline and a cylinder is
// a point in (D+2)-dimensional space. Three cascaded stages reduce it to a
// single characterization value v_c in [0, 1):
//
//   Stage 1 (SFC1): a D-dimensional space-filling curve over the priority
//     levels. Output: the request's normalized curve position. Purpose:
//     minimize priority inversion (Section 5.1).
//
//   Stage 2 (SFC2): combines the Stage-1 output with the request deadline.
//     Two modes:
//       * kFormula  - the paper's tunable blend v2 = (v1 + f*dl) / (1+f)
//         with a configurable tie-breaker; f < 1 favors priority, f > 1
//         favors deadline (Section 5.2).
//       * kCurve    - a generic 2-D SFC over the (priority, deadline) grid
//         with a configurable axis assignment; this realizes the
//         "Hilbert-as-SFC2" variants of Figure 9 and the -X / -Y
//         configurations of Figure 11.
//
//   Stage 3 (SFC3): combines the Stage-2 output with the forward C-SCAN
//     cylinder distance from the current head. Two modes:
//       * kPartitionedCScan - the paper's R-partition formula (Section
//         5.3): the priority-deadline axis is cut into R vertical
//         partitions of width P_s; each partition is served in one
//         cylinder sweep, ties on a cylinder broken by priority-deadline.
//         R = 1 degenerates to a pure C-SCAN; large R to pure priority.
//       * kCurve - a generic 2-D SFC over the (priority-deadline,
//         distance) grid.
//
// Any stage may be disabled (Section 4.1 flexibility): a disabled Stage 1
// passes dimension-0 priority through (or 0 when the request has no
// priorities); disabled Stages 2/3 forward their input unchanged.
//
// v_c is computed when a request is enqueued: the deadline axis uses
// time-to-deadline at that instant and the distance axis uses the head
// position at that instant, exactly as the paper inserts requests into the
// priority queue on arrival.

#ifndef CSFC_CORE_ENCAPSULATOR_H_
#define CSFC_CORE_ENCAPSULATOR_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"
#include "core/cvalue.h"
#include "sched/scheduler.h"
#include "sfc/curve.h"
#include "workload/request.h"

namespace csfc {

/// Stage-2 operating mode.
enum class Stage2Mode { kDisabled, kFormula, kCurve };
/// Stage-3 operating mode.
enum class Stage3Mode { kDisabled, kPartitionedCScan, kCurve };
/// Tie-breaking for the Stage-2 formula (applied as an infinitesimal
/// secondary key).
enum class Stage2TieBreak { kNone, kEarliestDeadline, kHighestPriority };

/// Full encapsulator configuration.
struct EncapsulatorConfig {
  // --- Stage 1 ---
  bool stage1_enabled = true;
  std::string sfc1 = "hilbert";     ///< registry name of the D-dim curve
  uint32_t priority_dims = 3;       ///< D
  uint32_t priority_bits = 4;       ///< levels per dimension = 2^bits

  // --- Stage 2 ---
  Stage2Mode stage2_mode = Stage2Mode::kFormula;
  double f = 1.0;                   ///< formula balance factor (>= 0)
  Stage2TieBreak stage2_tie = Stage2TieBreak::kEarliestDeadline;
  std::string sfc2 = "diagonal";    ///< curve for kCurve mode
  uint32_t stage2_bits = 8;         ///< per-axis grid bits in kCurve mode
  bool stage2_deadline_major = false;  ///< kCurve: deadline on axis 0 (X)
  double deadline_horizon_ms = 1000.0; ///< deadline-axis scale

  // --- Stage 3 ---
  Stage3Mode stage3_mode = Stage3Mode::kPartitionedCScan;
  uint32_t partitions_r = 3;        ///< R, number of cylinder sweeps
  std::string sfc3 = "cscan";       ///< curve for kCurve mode
  uint32_t stage3_bits = 8;         ///< per-axis grid bits
  uint32_t cylinders = 3832;        ///< disk size for the distance axis

  // --- Hot path ---
  /// Largest grid (in cells) for which Create() precomputes a flat
  /// cell -> v lookup table, turning per-request curve evaluation into
  /// quantize + one array load; larger grids evaluate the curve directly.
  /// Purely an optimization: characterization values are identical either
  /// way (asserted by tests), and 0 builds no table at all (the
  /// before/after microbenchmarks). 2^20 cells = 8 MB of CValues.
  uint64_t lut_max_cells = uint64_t{1} << 20;

  Status Validate() const;

  /// Short config signature, e.g. "hilbert|f=1|R=3".
  std::string Signature() const;
};

/// Per-stage intermediate values of one characterization: what each
/// cascaded stage contributed to the final v_c. Exposed for the
/// observability layer (characterize trace events) and tests; the hot
/// path uses Characterize, which skips materializing them.
struct StageValues {
  CValue v1 = 0.0;  ///< SFC1 output (priority curve position)
  CValue v2 = 0.0;  ///< SFC2 output (priority-deadline blend)
  CValue vc = 0.0;  ///< SFC3 output = the final characterization value
};

/// The encapsulator: maps requests to characterization values.
///
/// Immutable once Create returns: v_c is a pure function of the request
/// and the dispatch context, so the const members are safe to call
/// concurrently and one instance can serve every scheduler built from
/// one configuration (see MakeSchedulerFactory).
class Encapsulator {
 public:
  static Result<std::unique_ptr<Encapsulator>> Create(
      const EncapsulatorConfig& config);

  /// Computes v_c in [0, 1) for `r` given the disk state in `ctx`.
  CSFC_HOT CSFC_DETERMINISTIC
  CValue Characterize(const Request& r, const DispatchContext& ctx) const;

  /// Characterize, also returning each stage's intermediate value.
  /// StageValues.vc is identical to what Characterize returns on the same
  /// inputs.
  StageValues CharacterizeStages(const Request& r,
                                 const DispatchContext& ctx) const;

  /// Batch characterization under one shared context: out[i] receives the
  /// v_c of *reqs[i], bit-identical to Characterize(*reqs[i], ctx)
  /// (asserted by tests). This is the batch re-characterization hot path:
  /// every queue swap rekeys the whole forming batch. The full cascade
  /// (Stage 1 LUT or pass-through, Stage-2 formula, Stage-3 partitioned
  /// C-SCAN) runs FusedFormulaPartitionedBatch, which hoists the per-call
  /// invariants out of the loop once; every other configuration loops
  /// Characterize. Requires out.size() == reqs.size().
  CSFC_HOT CSFC_DETERMINISTIC
  void CharacterizeBatch(std::span<const Request* const> reqs,
                         const DispatchContext& ctx,
                         std::span<CValue> out) const;

  const EncapsulatorConfig& config() const { return config_; }

  /// True when stage N resolves through a precomputed lookup table
  /// (exposed for tests and the hot-path microbenchmark).
  bool stage1_uses_lut() const { return !lut1_.empty(); }
  bool stage2_uses_lut() const { return !lut2_.empty(); }
  bool stage3_uses_lut() const { return !lut3_.empty(); }

 private:
  explicit Encapsulator(const EncapsulatorConfig& config);

  CSFC_HOT CValue Stage1(const Request& r) const;
  CSFC_HOT CValue Stage2(CValue v1, const Request& r,
                         const DispatchContext& ctx) const;
  CSFC_HOT CValue Stage3(CValue v2, const Request& r,
                         const DispatchContext& ctx) const;

  /// Single-pass kernel for the full-cascade common case (Stage 1 LUT or
  /// pass-through, Stage-2 formula, Stage-3 partitioned C-SCAN).
  /// Per-request operations are exactly the three stage bodies in order,
  /// so the result is bit-identical to Characterize. Hoists the batch
  /// invariants (core/characterize_kernel.h), then loops FusedScalarOne.
  template <bool kLut1>
  CSFC_HOT void FusedFormulaPartitionedBatch(
      std::span<const Request* const> reqs, const DispatchContext& ctx,
      std::span<CValue> v) const;

  /// Builds the normalized cell -> v tables for every active curve whose
  /// grid has at most `max_cells` cells.
  void BuildLuts(uint64_t max_cells);

  EncapsulatorConfig config_;
  CurvePtr curve1_;  // null when stage 1 is disabled or D == 0
  CurvePtr curve2_;  // null unless stage2_mode == kCurve
  CurvePtr curve3_;  // null unless stage3_mode == kCurve
  // Flat cell -> normalized curve value tables (empty = evaluate the
  // curve directly). Cell numbering is SpaceFillingCurve::CellOf: row
  // major, dimension 0 most significant.
  std::vector<CValue> lut1_;
  std::vector<CValue> lut2_;
  std::vector<CValue> lut3_;
};

}  // namespace csfc

#endif  // CSFC_CORE_ENCAPSULATOR_H_
