// The fused characterization kernel (Stage-1 LUT/pass-through + Stage-2
// formula + Stage-3 partitioned C-SCAN) behind
// Encapsulator::CharacterizeBatch.
//
// Two pieces:
//
//   * FusedInvariants — everything CharacterizeBatch hoists per batch:
//     stage-mode decisions, LUT base pointer, the power-of-two-denominator
//     reciprocal, the magic-divide constant, grid scales, and the context
//     terms (now, head).
//
//   * FusedScalarOne — one request through the fused cascade; the batch
//     kernel is a plain loop over it. It must stay bit-identical to the
//     per-request Characterize (batch_characterize_test.cc), so every
//     rewrite below is exact:
//
//       - Stage 2: the deadline clamp is selects over a u64 wrap-around
//         difference, and dividing by a power-of-two 1 + f equals
//         multiplying by its reciprocal.
//       - Stage 3: the partition divide is the multiply-shift
//         `p_n = (x_v * magic) >> 32`, exact for x_v < 2^16, which
//         CharacterizeBatch guarantees by fusing only when
//         stage3_bits <= 16.
//
// There is no vector form. A 4-lane kernel ran this cascade 1.6-1.9x
// faster in isolation, but characterization is ~2% of a service pump's
// time per request, and no end-to-end run measured a difference (DESIGN.md
// §9).

#ifndef CSFC_CORE_CHARACTERIZE_KERNEL_H_
#define CSFC_CORE_CHARACTERIZE_KERNEL_H_

#include <algorithm>
#include <cstdint>

#include "common/annotations.h"
#include "common/types.h"
#include "core/cvalue.h"
#include "core/encapsulator.h"
#include "workload/request.h"

namespace csfc {

/// Weight of the Stage-2 tie-breaking secondary key. Small enough that it
/// can never reorder requests whose primary keys differ by one grid cell
/// (the smallest primary separation is ~2^-16 at the maximum stage-2 grid).
inline constexpr double kTieEpsilon = 0x1.0p-24;

/// Per-batch invariants of the fused formula+partitioned kernel. Built
/// once per CharacterizeBatch call; read-only inside the kernels.
struct FusedInvariants {
  // Stage 1.
  const CValue* lut1 = nullptr;  ///< non-null iff the kLut1 kernels run
  uint32_t priority_bits = 0;
  uint32_t priority_dims = 0;
  uint32_t levels = 0;  ///< 1 << priority_bits
  double levels_d = 0.0;
  // Stage 2.
  SimTime now = 0;
  double f = 0.0;
  double denom = 1.0;      ///< 1 + f
  double inv_denom = 0.0;  ///< 1 / denom when denom_pow2, else unused
  bool denom_pow2 = false;
  double cap = 0.0;  ///< nextafter(1.0, 0.0)
  double horizon_d = 0.0;
  Stage2TieBreak tie = Stage2TieBreak::kNone;
  // Stage 3.
  uint32_t cylinders = 0;
  Cylinder head = 0;
  uint32_t max_x = 0;  ///< 1 << stage3_bits
  uint32_t p_s = 1;    ///< partition width
  uint64_t magic = 0;  ///< ceil(2^32 / p_s); == 2^32 when p_s == 1
  double raw_max = 1.0;
};

/// One request through the fused cascade: the three stage bodies of
/// Characterize in order, with the per-batch decisions hoisted (see the
/// bit-identity note at the top of this header before touching anything).
template <bool kLut1>
CSFC_HOT inline CValue FusedScalarOne(const FusedInvariants& in,
                                      const Request& r) {
  // Stage 1: LUT load or pass-through.
  double v1;
  if constexpr (kLut1) {
    uint64_t cell = 0;
    for (uint32_t k = 0; k < in.priority_dims; ++k) {
      cell = (cell << in.priority_bits) |
             std::min<uint32_t>(r.priority(k), in.levels - 1);
    }
    v1 = in.lut1[cell];
  } else {
    if (r.priorities.empty()) {
      v1 = 0.0;
    } else {
      const PriorityLevel p = std::min(r.priorities[0], in.levels - 1);
      v1 = static_cast<double>(p) / in.levels_d;
    }
  }
  // Stage 2: the formula blend. The deadline clamp is selects, not
  // branches: deadlines are effectively random per request, so an if/else
  // chain mispredicts constantly. The unsigned difference below is exact
  // whenever it survives the selects — past-due wrap-arounds are
  // discarded by the `due` select, and kNoDeadline's enormous quotient
  // hits the min() clamp at exactly the 1.0 the no-deadline arm returns.
  const SimTime deadline = r.deadline;
  const uint64_t remaining =
      static_cast<uint64_t>(deadline) - static_cast<uint64_t>(in.now);
  double dl = std::min(1.0, static_cast<double>(remaining) / in.horizon_d);
  dl = deadline <= in.now ? 0.0 : dl;
  double val =
      in.denom_pow2 ? (v1 + in.f * dl) * in.inv_denom : (v1 + in.f * dl) / in.denom;
  switch (in.tie) {
    case Stage2TieBreak::kNone:
      break;
    case Stage2TieBreak::kEarliestDeadline:
      val += kTieEpsilon * dl;
      break;
    case Stage2TieBreak::kHighestPriority:
      val += kTieEpsilon * v1;
      break;
  }
  const double v2 = std::min(val, in.cap);
  // Stage 3: partitioned C-SCAN. The C-SCAN wrap test is a select for the
  // same reason as the deadline clamp.
  const uint32_t cyl = r.cylinder;
  const uint32_t y_v = cyl - in.head + (cyl < in.head ? in.cylinders : 0);
  const uint32_t x_v = QuantizeUnit(v2, in.max_x);
  const uint32_t p_n = static_cast<uint32_t>((x_v * in.magic) >> 32);
  const uint64_t raw =
      (static_cast<uint64_t>(p_n) * in.cylinders + y_v) * in.p_s +
      (x_v - p_n * in.p_s);
  return static_cast<double>(raw) / in.raw_max;
}

}  // namespace csfc

#endif  // CSFC_CORE_CHARACTERIZE_KERNEL_H_
