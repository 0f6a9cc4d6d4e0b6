// The fused characterization kernel (Stage-1 LUT/pass-through + Stage-2
// formula + Stage-3 partitioned C-SCAN), shared between the scalar batch
// path and the SIMD backends.
//
// Three pieces:
//
//   * FusedInvariants — everything CharacterizeBatch hoists per batch:
//     stage-mode decisions, LUT base pointer, the power-of-two-denominator
//     reciprocal, the magic-divide constant, grid scales, and the context
//     terms (now, head).
//
//   * FusedScalarOne — one request through the fused cascade. This IS the
//     scalar batch kernel (the kScalar dispatch level runs a plain loop
//     over it) and the remainder/fallback path of the vector kernels, so
//     elementwise bit-identity across lane widths reduces to the vector
//     ops matching these exact operations in this exact order.
//
//   * FusedSimdKernel<Backend, kLut1> — the vector main loop, written
//     against the common/simd.h op set. Instantiated per ISA in
//     core/characterize_simd_{sse2,avx2}.cc (per-file compile flags).
//
// Why the lane math is exact (the bit-identity argument):
//
//   * Stage 2: `remaining` is a u64 wrap-around difference in both paths;
//     U64ToF64 is the correctly-rounded conversion; min/div/add/mul are
//     elementwise IEEE ops in the same order; the overdue zeroing is a
//     bitwise AND with a full-lane mask, which produces the same +0.0 the
//     scalar select assigns. No FMA contraction: the SIMD TUs compile
//     with -ffp-contract=off (and the scalar path never contracts under
//     the project's default flags).
//
//   * Stage 3: the scalar kernel already replaced the partition divide by
//     the exact multiply-shift `p_n = (x_v * magic) >> 32` (exact for
//     x_v < 2^16, which CharacterizeBatch guarantees by only fusing when
//     stage3_bits <= 16). MulHiU32 is that same multiply-shift when
//     p_s >= 2 (then magic <= 2^31 fits a u32 lane); p_s == 1 has
//     magic = 2^32 and degenerates to p_n = x_v, a per-batch branch. The
//     raw linearization is then evaluated in f64 lanes instead of u64:
//     with cylinders <= 2^30 and x_v <= 2^16 every intermediate is an
//     integer below 2^47 < 2^53, so each f64 op is exact and equals the
//     u64 arithmetic followed by the (exact) cast the scalar path does.
//     Encapsulator only dispatches to the vector kernels under that
//     cylinder bound (plus head < cylinders), and the kernel re-checks
//     each staging chunk's cylinder values (< 2^30) so i32 lanes never
//     see a value whose signed interpretation differs — a violating
//     chunk falls back to FusedScalarOne, keeping bit-identity
//     unconditional.

#ifndef CSFC_CORE_CHARACTERIZE_KERNEL_H_
#define CSFC_CORE_CHARACTERIZE_KERNEL_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>

#include "common/annotations.h"
#include "common/simd.h"
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
  // Exact small-integer invariants pre-converted for the f64 lanes.
  double max_x_d = 0.0;
  double p_s_d = 0.0;
  double max_y_d = 0.0;  ///< double(cylinders)
};

/// One request through the fused cascade. Operation-for-operation the
/// loop body of PR 3's FusedFormulaPartitionedBatch (see the bit-identity
/// note at the top of this header before touching anything).
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

/// The vector main loop: kWidth requests per iteration, remainder lanes
/// (and blocks whose cylinder values leave the exact i32/f64 domain)
/// through FusedScalarOne.
template <typename B, bool kLut1>
CSFC_HOT inline void FusedSimdKernel(const FusedInvariants& in,
                                     std::span<const Request* const> reqs,
                                     std::span<CValue> v) {
  constexpr size_t kW = static_cast<size_t>(B::kWidth);
  const size_t n = reqs.size();
  // Copy the invariants into a local whose address never escapes: `in`
  // arrives by reference, so without this the compiler must assume every
  // store through `v` may alias it and reloads in.lut1 / in.tie /
  // in.denom_pow2 (and re-evaluates their branches) on every iteration.
  // The scalar batch loop never pays this — its FusedInvariants is a
  // local of the calling TU — and the reloads alone were worth ~25% of
  // the kernel's runtime.
  const FusedInvariants inv = in;
  const Request* const* req_ptr = reqs.data();
  CValue* out = v.data();
  // Scalar invariants of the lane-marshalling loops.
  const uint32_t priority_dims = inv.priority_dims;
  const uint32_t priority_bits = inv.priority_bits;
  const uint32_t levels_m1 = inv.levels - 1;
  // Stage-2 lane invariants.
  const typename B::F64 one_v = B::Set1F64(1.0);
  const typename B::F64 f_v = B::Set1F64(inv.f);
  const typename B::F64 denom_v = B::Set1F64(inv.denom);
  const typename B::F64 inv_denom_v = B::Set1F64(inv.inv_denom);
  const typename B::F64 cap_v = B::Set1F64(inv.cap);
  const typename B::F64 horizon_v = B::Set1F64(inv.horizon_d);
  const typename B::F64 eps_v = B::Set1F64(kTieEpsilon);
  const typename B::F64 levels_v = B::Set1F64(inv.levels_d);
  const typename B::I64 now_v = B::Set1I64(static_cast<int64_t>(inv.now));
  // Stage-3 lane invariants.
  const typename B::I32 head_v = B::Set1I32(static_cast<int32_t>(inv.head));
  const typename B::I32 cylinders_v =
      B::Set1I32(static_cast<int32_t>(inv.cylinders));
  const typename B::I32 max_x_m1_v =
      B::Set1I32(static_cast<int32_t>(inv.max_x - 1));
  const typename B::I32 magic_v =
      B::Set1I32(static_cast<int32_t>(static_cast<uint32_t>(inv.magic)));
  const typename B::F64 max_x_v = B::Set1F64(inv.max_x_d);
  const typename B::F64 p_s_v = B::Set1F64(inv.p_s_d);
  const typename B::F64 max_y_v = B::Set1F64(inv.max_y_d);
  const typename B::F64 raw_max_v = B::Set1F64(inv.raw_max);
  const bool p_s_is_1 = inv.p_s == 1;

  // The loop is three passes over L1-resident staging chunks rather than
  // a gather-compute-store per vector block. Pass 1 marshals request
  // fields into dense arrays in a tight scalar loop; pass 1.5 runs the
  // stage-1 LUT gathers back-to-back so they pipeline at throughput
  // instead of heading pass 2's dependency chain (vgatherdpd is a
  // ~20-cycle latency op); pass 2 is a pure vector loop of plain aligned
  // loads. Interleaving these (the obvious per-block structure) costs
  // ~30% on Skylake-class cores: the vector loads stall on
  // store-forwarding from the lane-sized stores written cycles earlier,
  // and the combined loop body spills invariants to the stack. The chunk
  // is kept small (~1.5 KiB of staging) so pass 1's pointer-chasing
  // misses overlap with pass 2 compute across chunks instead of
  // serializing at L3-resident batch sizes.
  constexpr size_t kChunk = 64;
  static_assert(kChunk % kW == 0);
  alignas(64) int64_t deadline_buf[kChunk];
  alignas(64) int32_t cyl_buf[kChunk];
  alignas(64) int32_t cell_buf[kChunk];
  alignas(64) CValue v1_buf[kChunk];

  // Pass 1, stamped per dimension count: marshalling walks each request
  // once, and the cell-packing inner loop (which runs priority_dims times
  // per request with a bounds select per dimension) unrolls completely
  // for the common small grids. kDims == 0 is the generic-dims fallback.
  // The non-LUT shape reuses the kDims == 1 stamp: its "cell" is the
  // clamped first priority, which is what a one-dimension pack computes.
  const auto marshal = [&](size_t i0, size_t chunk, auto dims_c) {
    constexpr uint32_t kDims = decltype(dims_c)::value;
    uint32_t cyl_or = 0;
    for (size_t j = 0; j < chunk; ++j) {
      // Request fields scatter across the dispatcher's slot pool, which
      // outgrows L2 at simulation queue depths; prefetch ahead (the
      // adjacent-line hardware prefetcher picks up each Request's second
      // cache line). The distance is double the scalar batch loop's:
      // this pass retires requests several times faster, so the same
      // lead in requests is less lead in cycles.
      if (i0 + j + 32 < n) {
        __builtin_prefetch(req_ptr[i0 + j + 32]);
      }
      const Request& r = *req_ptr[i0 + j];
      deadline_buf[j] = r.deadline;
      const uint32_t cyl = r.cylinder;
      cyl_or |= cyl;
      cyl_buf[j] = static_cast<int32_t>(cyl);
      if constexpr (kDims > 0) {
        const size_t psz = r.priorities.size();
        const PriorityLevel* pd = r.priorities.data();
        uint64_t cell = 0;
        if (psz >= kDims) [[likely]] {
          // Full-width request: straight loads, no per-dim selects.
          for (uint32_t k = 0; k < kDims; ++k) {
            cell = (cell << priority_bits) |
                   std::min<uint32_t>(pd[k], levels_m1);
          }
        } else {
          for (uint32_t k = 0; k < kDims; ++k) {
            const uint32_t p = k < psz ? static_cast<uint32_t>(pd[k]) : 0u;
            cell = (cell << priority_bits) | std::min(p, levels_m1);
          }
        }
        cell_buf[j] = static_cast<int32_t>(cell);
      } else {
        uint64_t cell = 0;
        for (uint32_t k = 0; k < priority_dims; ++k) {
          cell = (cell << priority_bits) |
                 std::min<uint32_t>(r.priority(k), levels_m1);
        }
        cell_buf[j] = static_cast<int32_t>(cell);
      }
    }
    return cyl_or;
  };

  size_t i = 0;
  while (i + kW <= n) {
    const size_t chunk = std::min(kChunk, (n - i) & ~(kW - 1));
    uint32_t cyl_or;
    if constexpr (kLut1) {
      switch (priority_dims) {
        case 1:
          cyl_or = marshal(i, chunk, std::integral_constant<uint32_t, 1>{});
          break;
        case 2:
          cyl_or = marshal(i, chunk, std::integral_constant<uint32_t, 2>{});
          break;
        case 3:
          cyl_or = marshal(i, chunk, std::integral_constant<uint32_t, 3>{});
          break;
        default:
          cyl_or = marshal(i, chunk, std::integral_constant<uint32_t, 0>{});
      }
    } else {
      cyl_or = marshal(i, chunk, std::integral_constant<uint32_t, 1>{});
    }
    if ((cyl_or >> 30) != 0) {
      // A cylinder outside the exact-lane domain (see header comment):
      // run this chunk through the scalar kernel instead.
      for (size_t j = 0; j < chunk; ++j) {
        out[i + j] = FusedScalarOne<kLut1>(inv, *req_ptr[i + j]);
      }
      i += chunk;
      continue;
    }
    // Pass 1.5: Stage-1 values into their own staging array. The LUT
    // gather has a ~20-cycle latency and would otherwise head pass 2's
    // dependency chain; in a loop of its own the gathers pipeline at
    // throughput and pass 2 starts from a plain L1 load instead.
    if constexpr (kLut1) {
      for (size_t j = 0; j < chunk; j += kW) {
        B::StoreF64(&v1_buf[j],
                    B::GatherF64(inv.lut1, B::LoadI32(&cell_buf[j])));
      }
    } else {
      for (size_t j = 0; j < chunk; j += kW) {
        B::StoreF64(&v1_buf[j],
                    B::DivF64(B::I32ToF64(B::LoadI32(&cell_buf[j])), levels_v));
      }
    }
    // Pass 2: the vector loop.
    for (size_t j = 0; j < chunk; j += kW) {
      // Stage 1.
      const typename B::F64 v1 = B::LoadF64(&v1_buf[j]);
      // Stage 2.
      const typename B::I64 deadline_v = B::LoadI64(&deadline_buf[j]);
      const typename B::I64 due_mask = B::CmpGtI64(deadline_v, now_v);
      const typename B::F64 remaining_v =
          B::U64ToF64(B::SubI64(deadline_v, now_v));
      typename B::F64 dl = B::MinF64(B::DivF64(remaining_v, horizon_v), one_v);
      dl = B::AndMaskF64(dl, due_mask);
      const typename B::F64 blend = B::AddF64(v1, B::MulF64(f_v, dl));
      typename B::F64 val = inv.denom_pow2 ? B::MulF64(blend, inv_denom_v)
                                           : B::DivF64(blend, denom_v);
      switch (inv.tie) {
        case Stage2TieBreak::kNone:
          break;
        case Stage2TieBreak::kEarliestDeadline:
          val = B::AddF64(val, B::MulF64(eps_v, dl));
          break;
        case Stage2TieBreak::kHighestPriority:
          val = B::AddF64(val, B::MulF64(eps_v, v1));
          break;
      }
      const typename B::F64 v2 = B::MinF64(val, cap_v);
      // Stage 3.
      const typename B::I32 cyl_v = B::LoadI32(&cyl_buf[j]);
      const typename B::I32 wrap_mask = B::CmpLtU32(cyl_v, head_v);
      const typename B::I32 y_v = B::AddI32(B::SubI32(cyl_v, head_v),
                                            B::AndI32(wrap_mask, cylinders_v));
      const typename B::I32 x_v =
          B::MinI32(B::F64ToI32Trunc(B::MulF64(v2, max_x_v)), max_x_m1_v);
      const typename B::I32 p_n = p_s_is_1 ? x_v : B::MulHiU32(x_v, magic_v);
      const typename B::F64 p_n_d = B::I32ToF64(p_n);
      const typename B::F64 x_d = B::I32ToF64(x_v);
      const typename B::F64 y_d = B::I32ToF64(y_v);
      const typename B::F64 raw = B::AddF64(
          B::MulF64(B::AddF64(B::MulF64(p_n_d, max_y_v), y_d), p_s_v),
          B::SubF64(x_d, B::MulF64(p_n_d, p_s_v)));
      B::StoreF64(&out[i + j], B::DivF64(raw, raw_max_v));
    }
    i += chunk;
  }
  for (; i < n; ++i) out[i] = FusedScalarOne<kLut1>(inv, *req_ptr[i]);
}

/// ISA-specific instantiations of FusedSimdKernel, one translation unit
/// each (per-file compile flags, see src/CMakeLists.txt). On targets where
/// the ISA is unavailable the TU instantiates the next-best backend it can
/// compile (scalar emulation on non-x86), which is still bit-identical —
/// only slower. The *Backend() queries report what actually got compiled
/// in (surfaced by Encapsulator::simd_backend() and the bench).
CSFC_HOT void CharacterizeFusedSse2(const FusedInvariants& in,
                                    std::span<const Request* const> reqs,
                                    std::span<CValue> out, bool lut1);
CSFC_HOT void CharacterizeFusedAvx2(const FusedInvariants& in,
                                    std::span<const Request* const> reqs,
                                    std::span<CValue> out, bool lut1);
const char* CharacterizeFusedSse2Backend();
const char* CharacterizeFusedAvx2Backend();

}  // namespace csfc

#endif  // CSFC_CORE_CHARACTERIZE_KERNEL_H_
