// IndexBatch / BuildIndexTable identity for every curve family.
//
// IndexBatch must agree with the per-point Index() path for every batch
// size, and the table builds must agree with the generic curve walk:
// Z-order and Gray build their tables by sweeping cells through
// IndexBatch (BuildIndexTableByEncode), Hilbert by one descent over the
// bit levels.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/random.h"
#include "sfc/curve.h"
#include "sfc/registry.h"

namespace csfc {
namespace {

std::vector<uint32_t> RandomPoints(Rng& rng, const GridSpec& spec, size_t n) {
  std::vector<uint32_t> flat(n * spec.dims);
  for (uint32_t& c : flat) {
    c = static_cast<uint32_t>(rng.Uniform(spec.side()));
  }
  return flat;
}

// The grid point whose row-major cell number is `cell` (CellOf inverted).
void CellToPoint(const GridSpec& spec, uint64_t cell,
                 std::vector<uint32_t>& p) {
  for (uint32_t k = 0; k < spec.dims; ++k) {
    p[k] = static_cast<uint32_t>(cell >> ((spec.dims - 1 - k) * spec.bits)) &
           static_cast<uint32_t>(spec.side() - 1);
  }
}

void ExpectIndexBatchMatchesIndex(const SpaceFillingCurve& curve,
                                  uint64_t seed) {
  Rng rng(seed);
  const uint32_t d = curve.dims();
  // Sizes straddling the 64-point blocks of BuildIndexTableByEncode.
  for (const size_t n : {0u, 1u, 2u, 3u, 5u, 8u, 63u, 64u, 65u, 200u}) {
    const std::vector<uint32_t> flat = RandomPoints(rng, curve.spec(), n);
    std::vector<uint64_t> got(n, ~uint64_t{0});
    curve.IndexBatch(std::span<const uint32_t>(flat.data(), flat.size()),
                     std::span<uint64_t>(got.data(), got.size()));
    for (size_t j = 0; j < n; ++j) {
      EXPECT_EQ(got[j],
                curve.Index(std::span<const uint32_t>(&flat[j * d], d)))
          << curve.name() << " point " << j << " of " << n;
    }
  }
}

TEST(IndexBatchTest, MatchesPerPointIndexForEveryCurve) {
  uint64_t seed = 500;
  for (const std::string_view name : AllCurveNames()) {
    for (const GridSpec spec :
         {GridSpec{.dims = 1, .bits = 9}, GridSpec{.dims = 2, .bits = 5},
          GridSpec{.dims = 3, .bits = 4}, GridSpec{.dims = 5, .bits = 2}}) {
      auto curve = MakeCurve(name, spec);
      ASSERT_TRUE(curve.ok()) << name;
      ExpectIndexBatchMatchesIndex(**curve, ++seed);
    }
  }
}

// BuildIndexTableByEncode must produce the identical table the generic
// curve walk produces — same bijection, opposite traversal.
TEST(IndexBatchTest, EncodeBuiltTablesMatchCurveWalk) {
  for (const std::string_view name : {"peano", "gray"}) {
    const GridSpec spec{.dims = 2, .bits = 5};
    auto curve = MakeCurve(name, spec);
    ASSERT_TRUE(curve.ok()) << name;
    const std::vector<uint64_t> table = (*curve)->BuildIndexTable();
    ASSERT_EQ(table, (*curve)->SpaceFillingCurve::BuildIndexTable()) << name;
    // Check against Index() on every cell, and that it is a bijection.
    std::vector<bool> seen(table.size(), false);
    std::vector<uint32_t> p(spec.dims);
    for (uint64_t cell = 0; cell < table.size(); ++cell) {
      CellToPoint(spec, cell, p);
      const uint64_t idx =
          (*curve)->Index(std::span<const uint32_t>(p.data(), p.size()));
      EXPECT_EQ(table[cell], idx) << name << " cell " << cell;
      ASSERT_LT(idx, table.size());
      EXPECT_FALSE(seen[idx]) << name << " duplicate index " << idx;
      seen[idx] = true;
    }
  }
}

// Hilbert builds its table in one descent over the bit levels instead of
// the base class's Point() walk. On every grid the encapsulator tabulates
// (dims*bits <= 20: the default lut_max_cells of 2^20) the descent must
// build the walk's exact table, and every entry must round-trip through
// Index(). Sanitizer builds stop at 2^16 cells, which keeps the sweep to
// a few seconds there.
TEST(IndexBatchTest, HilbertTableMatchesPointWalkOnEveryLutGrid) {
#ifdef CSFC_SANITIZER_BUILD
  constexpr uint32_t kLutBits = 16;
#else
  constexpr uint32_t kLutBits = 20;
#endif
  for (uint32_t dims = 1; dims <= 16; ++dims) {
    for (uint32_t bits = 1; bits <= 16 && dims * bits <= kLutBits; ++bits) {
      const GridSpec spec{.dims = dims, .bits = bits};
      SCOPED_TRACE(std::to_string(dims) + " dims x " + std::to_string(bits) +
                   " bits");
      auto curve = MakeCurve("hilbert", spec);
      ASSERT_TRUE(curve.ok());
      const SpaceFillingCurve& c = **curve;
      const std::vector<uint64_t> table = c.BuildIndexTable();
      ASSERT_TRUE(table == c.SpaceFillingCurve::BuildIndexTable());
      std::vector<uint32_t> p(dims);
      for (uint64_t cell = 0; cell < table.size(); ++cell) {
        CellToPoint(spec, cell, p);
        ASSERT_EQ(c.Index(std::span<const uint32_t>(p.data(), p.size())),
                  table[cell])
            << "cell " << cell;
      }
    }
  }
}

}  // namespace
}  // namespace csfc
