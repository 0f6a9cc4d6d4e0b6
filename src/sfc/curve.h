// Space-filling-curve (SFC) interface.
//
// An SFC defines a total order over the cells of a D-dimensional grid with
// 2^bits cells per side: a bijection between grid points and the index range
// [0, 2^(D*bits)). The Cascaded-SFC scheduler (Mokbel et al., ICDE 2004)
// uses these orders to linearize multi-QoS disk requests; see
// core/encapsulator.h.
//
// Seven curve families are provided, matching Figure 1 of the paper:
//   scan      - boustrophedon sweep (snake order)
//   cscan     - row-major sweep, reset each row (alias: sweep)
//   peano     - bit-interleaving Z-order / Morton (alias: zorder); this
//               research line's papers call the Z-order curve "Peano"
//   gray      - Gray-coded bit interleaving
//   hilbert   - Hilbert curve (Butz algorithm, Skilling's transpose form)
//   spiral    - center-out spiral (true ring walk in 2-D; concentric
//               L-infinity shells with lexicographic shell order in D != 2)
//   diagonal  - anti-diagonal plane order (zigzag between planes)
//
// All curves support any dimensionality D >= 1 and any bits >= 1 with
// D*bits <= 62, and provide both the forward map (Index) and the inverse
// (Point); the pair is exercised by bijectivity property tests.

#ifndef CSFC_SFC_CURVE_H_
#define CSFC_SFC_CURVE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotations.h"
#include "common/status.h"

namespace csfc {

/// Shape of the grid an SFC is defined over: `dims` dimensions, each with
/// 2^`bits` cells.
struct GridSpec {
  uint32_t dims = 2;
  uint32_t bits = 4;

  /// Cells per side (2^bits).
  uint64_t side() const { return uint64_t{1} << bits; }
  /// Total number of cells (2^(dims*bits)).
  uint64_t num_cells() const { return uint64_t{1} << (dims * bits); }

  /// OK iff dims in [1,16], bits in [1,16] and dims*bits <= 62.
  Status Validate() const;

  bool operator==(const GridSpec&) const = default;
};

/// Abstract space-filling curve over a GridSpec.
///
/// Implementations must be bijections: Point(Index(p)) == p for every grid
/// point p, and Index(Point(i)) == i for every index i in [0, num_cells()).
class SpaceFillingCurve {
 public:
  explicit SpaceFillingCurve(GridSpec spec) : spec_(spec) {}
  virtual ~SpaceFillingCurve() = default;

  SpaceFillingCurve(const SpaceFillingCurve&) = delete;
  SpaceFillingCurve& operator=(const SpaceFillingCurve&) = delete;

  /// Canonical curve name ("hilbert", "scan", ...).
  virtual std::string_view name() const = 0;

  /// Maps a grid point (size() == dims(), each coordinate < side()) to its
  /// position along the curve.
  virtual uint64_t Index(std::span<const uint32_t> point) const = 0;

  /// Maps a curve position back to the grid point (inverse of Index).
  /// `out.size()` must equal dims().
  virtual void Point(uint64_t index, std::span<uint32_t> out) const = 0;

  /// Batch encode: out[j] = Index of the j-th point of `flat`, which holds
  /// out.size() row-major points back to back (flat.size() == out.size()
  /// * dims()). The base implementation loops over the virtual Index().
  /// Z-order and Gray, whose table builds sweep every cell through here,
  /// override it with the same loop bound to their own Index(): through
  /// the virtual call their table builds ran 2-20% slower
  /// (bench_micro_sfc, BM_BuildIndexTable).
  CSFC_DETERMINISTIC
  virtual void IndexBatch(std::span<const uint32_t> flat,
                          std::span<uint64_t> out) const;

  const GridSpec& spec() const { return spec_; }
  uint32_t dims() const { return spec_.dims; }
  uint32_t bits() const { return spec_.bits; }
  uint64_t side() const { return spec_.side(); }
  uint64_t num_cells() const { return spec_.num_cells(); }

  /// Convenience wrapper taking a vector.
  uint64_t IndexOf(const std::vector<uint32_t>& point) const {
    return Index(std::span<const uint32_t>(point.data(), point.size()));
  }
  /// Convenience wrapper returning a vector.
  std::vector<uint32_t> PointOf(uint64_t index) const {
    std::vector<uint32_t> p(dims());
    Point(index, std::span<uint32_t>(p.data(), p.size()));
    return p;
  }

  /// Packs a grid point into its row-major cell number: dimension 0 is the
  /// most significant axis, so cell = p[0]·side^(D-1) + ... + p[D-1]. This
  /// is the addressing scheme of BuildIndexTable.
  uint64_t CellOf(std::span<const uint32_t> point) const {
    uint64_t cell = 0;
    for (uint32_t k = 0; k < spec_.dims; ++k) {
      cell = (cell << spec_.bits) | point[k];
    }
    return cell;
  }

  /// Builds the flat forward lookup table: `table[CellOf(p)] == Index(p)`
  /// for every grid point p. One O(num_cells) pass replaces all per-request
  /// curve math with an array load (see core/encapsulator.h). The generic
  /// implementation walks the curve once via Point(); subclasses may
  /// override when a direct sweep is cheaper.
  virtual std::vector<uint64_t> BuildIndexTable() const;

 protected:
  /// BuildIndexTable by sweeping cells in row-major order through
  /// IndexBatch (table[cell] = Index(point-of-cell)) instead of walking
  /// the curve through Point(). Produces the identical table (the curve
  /// is a bijection); curves whose encode is cheaper than their decode
  /// (Z-order, Gray) override BuildIndexTable to this.
  std::vector<uint64_t> BuildIndexTableByEncode() const;

  GridSpec spec_;
};

using CurvePtr = std::unique_ptr<SpaceFillingCurve>;

// Concrete curve factories (each validates `spec`).
Result<CurvePtr> MakeScanCurve(GridSpec spec);
Result<CurvePtr> MakeCScanCurve(GridSpec spec);
Result<CurvePtr> MakeZOrderCurve(GridSpec spec);
Result<CurvePtr> MakeGrayCurve(GridSpec spec);
Result<CurvePtr> MakeHilbertCurve(GridSpec spec);
Result<CurvePtr> MakeSpiralCurve(GridSpec spec);
Result<CurvePtr> MakeDiagonalCurve(GridSpec spec);

}  // namespace csfc

#endif  // CSFC_SFC_CURVE_H_
