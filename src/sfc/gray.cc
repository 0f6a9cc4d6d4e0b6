// The Gray curve: position i along the curve visits the cell whose
// interleaved (Morton) coordinate equals the binary-reflected Gray code of
// i. Consecutive curve positions therefore differ in exactly one interleaved
// bit, i.e. in exactly one coordinate, by a power of two.

#include "sfc/curve.h"

#include "common/annotations.h"

#include <cassert>

#include "sfc/bits.h"

namespace csfc {

namespace {

class GrayCurve final : public SpaceFillingCurve {
 public:
  explicit GrayCurve(GridSpec spec) : SpaceFillingCurve(spec) {}

  std::string_view name() const override { return "gray"; }

  CSFC_DETERMINISTIC
  uint64_t Index(std::span<const uint32_t> point) const override {
    assert(point.size() == dims());
    return GrayDecode(InterleaveBits(point, dims(), bits()));
  }

  CSFC_DETERMINISTIC
  void Point(uint64_t index, std::span<uint32_t> out) const override {
    assert(out.size() == dims());
    DeinterleaveBits(GrayCode(index), dims(), bits(), out);
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

Result<CurvePtr> MakeGrayCurve(GridSpec spec) {
  if (Status s = spec.Validate(); !s.ok()) return s;
  return CurvePtr(new GrayCurve(spec));
}

}  // namespace csfc
