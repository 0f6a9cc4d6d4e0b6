// The Peano curve of the Mokbel/Aref research line: bit-interleaving
// Z-order (Morton order). Named "peano" in the registry for fidelity with
// the paper's terminology; "zorder" is an alias.
//
// Bit layout: bit b of dimension i maps to index bit b*dims + (dims-1-i),
// so dimension 0 holds the most significant bit of each interleaved group.

#include "sfc/curve.h"

#include "common/annotations.h"

#include <cassert>

#include "sfc/bits.h"

namespace csfc {

uint64_t InterleaveBits(std::span<const uint32_t> point, uint32_t dims,
                        uint32_t bits) {
  uint64_t index = 0;
  for (uint32_t b = 0; b < bits; ++b) {
    for (uint32_t i = 0; i < dims; ++i) {
      const uint64_t bit = (point[i] >> b) & 1u;
      index |= bit << (static_cast<uint64_t>(b) * dims + (dims - 1 - i));
    }
  }
  return index;
}

void DeinterleaveBits(uint64_t index, uint32_t dims, uint32_t bits,
                      std::span<uint32_t> out) {
  for (uint32_t i = 0; i < dims; ++i) out[i] = 0;
  for (uint32_t b = 0; b < bits; ++b) {
    for (uint32_t i = 0; i < dims; ++i) {
      const uint32_t bit = static_cast<uint32_t>(
          (index >> (static_cast<uint64_t>(b) * dims + (dims - 1 - i))) & 1u);
      out[i] |= bit << b;
    }
  }
}

namespace {

class ZOrderCurve final : public SpaceFillingCurve {
 public:
  explicit ZOrderCurve(GridSpec spec) : SpaceFillingCurve(spec) {}

  std::string_view name() const override { return "peano"; }

  CSFC_DETERMINISTIC
  uint64_t Index(std::span<const uint32_t> point) const override {
    assert(point.size() == dims());
    return InterleaveBits(point, dims(), bits());
  }

  CSFC_DETERMINISTIC
  void Point(uint64_t index, std::span<uint32_t> out) const override {
    assert(out.size() == dims());
    DeinterleaveBits(index, dims(), bits(), out);
  }

  CSFC_DETERMINISTIC
  void IndexBatch(std::span<const uint32_t> flat,
                  std::span<uint64_t> out) const override {
    assert(flat.size() == out.size() * dims());
    for (size_t j = 0; j < out.size(); ++j) {
      out[j] = Index(flat.subspan(j * dims(), dims()));
    }
  }

  std::vector<uint64_t> BuildIndexTable() const override {
    return BuildIndexTableByEncode();
  }
};

}  // namespace

Result<CurvePtr> MakeZOrderCurve(GridSpec spec) {
  if (Status s = spec.Validate(); !s.ok()) return s;
  return CurvePtr(new ZOrderCurve(spec));
}

}  // namespace csfc
