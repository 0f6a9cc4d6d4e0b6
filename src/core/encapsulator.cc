#include "core/encapsulator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "core/characterize_kernel.h"
#include "sfc/registry.h"

namespace csfc {

Status EncapsulatorConfig::Validate() const {
  if (stage1_enabled && priority_dims > 0) {
    GridSpec spec{.dims = priority_dims, .bits = priority_bits};
    if (Status s = spec.Validate(); !s.ok()) return s;
    if (!IsKnownCurve(sfc1)) {
      return Status::NotFound("unknown SFC1 curve: " + sfc1);
    }
  }
  if (stage2_mode == Stage2Mode::kFormula && f < 0.0) {
    return Status::InvalidArgument("stage-2 balance factor f must be >= 0");
  }
  if (stage2_mode == Stage2Mode::kCurve) {
    GridSpec spec{.dims = 2, .bits = stage2_bits};
    if (Status s = spec.Validate(); !s.ok()) return s;
    if (!IsKnownCurve(sfc2)) {
      return Status::NotFound("unknown SFC2 curve: " + sfc2);
    }
  }
  if (stage2_mode != Stage2Mode::kDisabled && deadline_horizon_ms <= 0.0) {
    return Status::InvalidArgument("deadline_horizon_ms must be > 0");
  }
  if (stage3_mode == Stage3Mode::kPartitionedCScan && partitions_r == 0) {
    return Status::InvalidArgument("partitions_r (R) must be >= 1");
  }
  if (stage3_mode == Stage3Mode::kCurve) {
    GridSpec spec{.dims = 2, .bits = stage3_bits};
    if (Status s = spec.Validate(); !s.ok()) return s;
    if (!IsKnownCurve(sfc3)) {
      return Status::NotFound("unknown SFC3 curve: " + sfc3);
    }
  }
  if (stage3_mode != Stage3Mode::kDisabled && cylinders < 2) {
    return Status::InvalidArgument("cylinders must be >= 2");
  }
  if (stage3_mode == Stage3Mode::kPartitionedCScan && stage3_bits < 1) {
    return Status::InvalidArgument("stage3_bits must be >= 1");
  }
  return Status::OK();
}

std::string EncapsulatorConfig::Signature() const {
  std::string sig;
  sig += stage1_enabled && priority_dims > 0 ? sfc1 : "off";
  sig += '|';
  switch (stage2_mode) {
    case Stage2Mode::kDisabled:
      sig += "off";
      break;
    case Stage2Mode::kFormula:
      sig += "f=";
      sig += std::to_string(f);
      break;
    case Stage2Mode::kCurve:
      sig += sfc2;
      sig += stage2_deadline_major ? "(dl-major)" : "(pri-major)";
      break;
  }
  sig += '|';
  switch (stage3_mode) {
    case Stage3Mode::kDisabled:
      sig += "off";
      break;
    case Stage3Mode::kPartitionedCScan:
      sig += "R=";
      sig += std::to_string(partitions_r);
      break;
    case Stage3Mode::kCurve:
      sig += sfc3;
      break;
  }
  return sig;
}

Result<std::unique_ptr<Encapsulator>> Encapsulator::Create(
    const EncapsulatorConfig& config) {
  if (Status s = config.Validate(); !s.ok()) return s;
  std::unique_ptr<Encapsulator> e(new Encapsulator(config));
  if (config.stage1_enabled && config.priority_dims > 0) {
    GridSpec spec{.dims = config.priority_dims, .bits = config.priority_bits};
    Result<CurvePtr> c = MakeCurve(config.sfc1, spec);
    if (!c.ok()) return c.status();
    e->curve1_ = std::move(*c);
  }
  if (config.stage2_mode == Stage2Mode::kCurve) {
    GridSpec spec{.dims = 2, .bits = config.stage2_bits};
    Result<CurvePtr> c = MakeCurve(config.sfc2, spec);
    if (!c.ok()) return c.status();
    e->curve2_ = std::move(*c);
  }
  if (config.stage3_mode == Stage3Mode::kCurve) {
    GridSpec spec{.dims = 2, .bits = config.stage3_bits};
    Result<CurvePtr> c = MakeCurve(config.sfc3, spec);
    if (!c.ok()) return c.status();
    e->curve3_ = std::move(*c);
  }
  e->BuildLuts(config.lut_max_cells);
  return e;
}

void Encapsulator::BuildLuts(uint64_t max_cells) {
  const auto build = [max_cells](const CurvePtr& curve,
                                 std::vector<CValue>& lut) {
    if (curve == nullptr || curve->num_cells() > max_cells) return;
    const std::vector<uint64_t> table = curve->BuildIndexTable();
    lut.resize(table.size());
    for (size_t cell = 0; cell < table.size(); ++cell) {
      lut[cell] = NormalizeIndex(table[cell], table.size());
    }
  };
  build(curve1_, lut1_);
  build(curve2_, lut2_);
  build(curve3_, lut3_);
}

Encapsulator::Encapsulator(const EncapsulatorConfig& config)
    : config_(config) {}

CValue Encapsulator::Characterize(const Request& r,
                                  const DispatchContext& ctx) const {
  const CValue v1 = Stage1(r);
  const CValue v2 = Stage2(v1, r, ctx);
  return Stage3(v2, r, ctx);
}

StageValues Encapsulator::CharacterizeStages(const Request& r,
                                             const DispatchContext& ctx) const {
  StageValues sv;
  sv.v1 = Stage1(r);
  sv.v2 = Stage2(sv.v1, r, ctx);
  sv.vc = Stage3(sv.v2, r, ctx);
  return sv;
}

void Encapsulator::CharacterizeBatch(std::span<const Request* const> reqs,
                                     const DispatchContext& ctx,
                                     std::span<CValue> out) const {
  assert(reqs.size() == out.size());
  // Full-cascade common case: run each request's three stages back to
  // back in one pass (see FusedFormulaPartitionedBatch).
  if (config_.stage2_mode == Stage2Mode::kFormula &&
      config_.stage3_mode == Stage3Mode::kPartitionedCScan &&
      config_.stage3_bits <= 16) {  // magic-divide exactness bound
    if (curve1_ == nullptr) {
      FusedFormulaPartitionedBatch<false>(reqs, ctx, out);
      return;
    }
    if (!lut1_.empty()) {
      FusedFormulaPartitionedBatch<true>(reqs, ctx, out);
      return;
    }
  }
  // Every other configuration runs the per-request cascade.
  for (size_t i = 0; i < reqs.size(); ++i) {
    out[i] = Characterize(*reqs[i], ctx);
  }
}

CValue Encapsulator::Stage1(const Request& r) const {
  if (curve1_ == nullptr) {
    // Pass-through: single-priority (or no-priority) applications skip
    // SFC1 (Section 4.1).
    if (r.priorities.empty()) return 0.0;
    const uint32_t levels = uint32_t{1} << config_.priority_bits;
    const PriorityLevel p = std::min(r.priorities[0], levels - 1);
    return static_cast<double>(p) / static_cast<double>(levels);
  }
  const uint32_t levels = uint32_t{1} << config_.priority_bits;
  if (!lut1_.empty()) {
    // Hot path: pack the quantized priorities into the row-major cell
    // number (CellOf layout) and load the precomputed value.
    uint64_t cell = 0;
    for (uint32_t k = 0; k < config_.priority_dims; ++k) {
      cell = (cell << config_.priority_bits) |
             std::min<uint32_t>(r.priority(k), levels - 1);
    }
    return lut1_[cell];
  }
  uint32_t point[16];
  for (uint32_t k = 0; k < config_.priority_dims; ++k) {
    point[k] = std::min<uint32_t>(r.priority(k), levels - 1);
  }
  const uint64_t index = curve1_->Index(
      std::span<const uint32_t>(point, config_.priority_dims));
  return NormalizeIndex(index, curve1_->num_cells());
}

CValue Encapsulator::Stage2(CValue v1, const Request& r,
                            const DispatchContext& ctx) const {
  if (config_.stage2_mode == Stage2Mode::kDisabled) return v1;
  const SimTime horizon = MsToSim(config_.deadline_horizon_ms);

  if (config_.stage2_mode == Stage2Mode::kFormula) {
    // Continuous deadline axis in [0, 1]: time-to-deadline over horizon.
    double dl;
    if (!r.has_deadline()) {
      dl = 1.0;
    } else if (r.deadline <= ctx.now) {
      dl = 0.0;
    } else {
      dl = std::min(1.0, static_cast<double>(r.deadline - ctx.now) /
                             static_cast<double>(horizon));
    }
    double v = (v1 + config_.f * dl) / (1.0 + config_.f);
    switch (config_.stage2_tie) {
      case Stage2TieBreak::kNone:
        break;
      case Stage2TieBreak::kEarliestDeadline:
        v += kTieEpsilon * dl;
        break;
      case Stage2TieBreak::kHighestPriority:
        v += kTieEpsilon * v1;
        break;
    }
    return std::min(v, std::nextafter(1.0, 0.0));
  }

  // kCurve: quantize both axes onto the stage grid and walk the 2-D curve.
  const uint32_t cells = uint32_t{1} << config_.stage2_bits;
  const uint32_t pri_cell = QuantizeUnit(v1, cells);
  const uint32_t dl_cell =
      QuantizeDeadline(r.deadline, ctx.now, horizon, cells);
  uint32_t point[2];
  if (config_.stage2_deadline_major) {
    point[0] = dl_cell;
    point[1] = pri_cell;
  } else {
    point[0] = pri_cell;
    point[1] = dl_cell;
  }
  if (!lut2_.empty()) {
    return lut2_[(uint64_t{point[0]} << config_.stage2_bits) | point[1]];
  }
  const uint64_t index = curve2_->Index(std::span<const uint32_t>(point, 2));
  return NormalizeIndex(index, curve2_->num_cells());
}

CValue Encapsulator::Stage3(CValue v2, const Request& r,
                            const DispatchContext& ctx) const {
  if (config_.stage3_mode == Stage3Mode::kDisabled) return v2;
  const uint32_t y_v = CScanDistance(r.cylinder, ctx.head, config_.cylinders);

  if (config_.stage3_mode == Stage3Mode::kPartitionedCScan) {
    // Section 5.3: cut the priority-deadline axis into R partitions of
    // width P_s; serve partition by partition, each in one cylinder sweep,
    // ties on a cylinder broken by the priority-deadline value.
    const uint32_t max_x = uint32_t{1} << config_.stage3_bits;
    const uint32_t x_v = QuantizeUnit(v2, max_x);
    const uint32_t r_parts = config_.partitions_r;
    const uint32_t p_s = (max_x + r_parts - 1) / r_parts;  // partition width
    const uint32_t p_n = x_v / p_s;                        // partition index
    const uint64_t max_y = config_.cylinders;
    const uint64_t raw =
        (static_cast<uint64_t>(p_n) * max_y + y_v) * p_s + (x_v % p_s);
    const uint64_t raw_max = static_cast<uint64_t>(r_parts) * max_y * p_s;
    return static_cast<double>(raw) / static_cast<double>(raw_max);
  }

  // kCurve: 2-D curve over (priority-deadline, distance).
  const uint32_t cells = uint32_t{1} << config_.stage3_bits;
  uint32_t point[2];
  point[0] = QuantizeUnit(v2, cells);
  point[1] = QuantizeUnit(
      static_cast<double>(y_v) / static_cast<double>(config_.cylinders), cells);
  if (!lut3_.empty()) {
    return lut3_[(uint64_t{point[0]} << config_.stage3_bits) | point[1]];
  }
  const uint64_t index = curve3_->Index(std::span<const uint32_t>(point, 2));
  return NormalizeIndex(index, curve3_->num_cells());
}

template <bool kLut1>
void Encapsulator::FusedFormulaPartitionedBatch(
    std::span<const Request* const> reqs, const DispatchContext& ctx,
    std::span<CValue> v) const {
  FusedInvariants in;
  // Stage-1 invariants.
  in.priority_bits = config_.priority_bits;
  in.levels = uint32_t{1} << in.priority_bits;
  in.levels_d = static_cast<double>(in.levels);
  in.priority_dims = config_.priority_dims;
  in.lut1 = kLut1 ? lut1_.data() : nullptr;
  // Stage-2 invariants.
  in.now = ctx.now;
  in.f = config_.f;
  in.denom = 1.0 + in.f;
  // When denom is a power of two (notably f = 1), dividing by it and
  // multiplying by its reciprocal are the same exact exponent shift, so
  // the per-request divide can become a multiply. Another per-batch
  // invariant decision; the scalar stage pays the divide every call.
  int denom_exp = 0;
  in.denom_pow2 = std::frexp(in.denom, &denom_exp) == 0.5;
  in.inv_denom = in.denom_pow2 ? 1.0 / in.denom : 0.0;
  in.cap = std::nextafter(1.0, 0.0);
  in.horizon_d = static_cast<double>(MsToSim(config_.deadline_horizon_ms));
  in.tie = config_.stage2_tie;
  // Stage-3 invariants.
  in.cylinders = config_.cylinders;
  in.head = ctx.head;
  in.max_x = uint32_t{1} << config_.stage3_bits;
  const uint32_t r_parts = config_.partitions_r;
  in.p_s = (in.max_x + r_parts - 1) / r_parts;  // partition width
  in.raw_max = static_cast<double>(static_cast<uint64_t>(r_parts) *
                                   in.cylinders * in.p_s);
  // x_v / p_s as an exact multiply-shift: with magic = ceil(2^32 / p_s),
  // floor(x_v * magic / 2^32) == x_v / p_s whenever
  // x_v * (magic * p_s - 2^32) < 2^32, and here x_v < 2^16 and the error
  // term is < p_s <= 2^16 (CharacterizeBatch only takes this kernel when
  // stage3_bits <= 16). p_s is a per-batch invariant, so this hoists the
  // per-request hardware divide into one multiply per request.
  in.magic = ((uint64_t{1} << 32) + in.p_s - 1) / in.p_s;

  const size_t n = reqs.size();
  for (size_t i = 0; i < n; ++i) {
    // The gathered pointers scatter across the dispatcher's slot pool,
    // which outgrows L2 at simulation queue depths; prefetch a few
    // requests ahead (a Request spans two cache lines). This is a
    // batch-only option: the per-request path sees one request at a time.
    if (i + 16 < n) {
      const char* next = reinterpret_cast<const char*>(reqs[i + 16]);
      __builtin_prefetch(next);
      __builtin_prefetch(next + 64);
    }
    v[i] = FusedScalarOne<kLut1>(in, *reqs[i]);
  }
}

}  // namespace csfc
