// The Hilbert curve for arbitrary dimensionality, using the Butz algorithm
// in John Skilling's "transpose" formulation (AIP Conf. Proc. 707, 2004).
//
// The transpose representation stores the Hilbert index as `dims` words of
// `bits` bits each, where word i holds index bits i, i+dims, i+2*dims, ...
// (most significant interleaved group first). AxesToTranspose converts grid
// coordinates into this representation in place; interleaving the words then
// yields the scalar index. TransposeToAxes is the exact inverse.

#include "sfc/curve.h"

#include "common/annotations.h"

#include <bit>
#include <cassert>
#include <utility>
#include <vector>

namespace csfc {

namespace {

// In-place coordinate -> transposed-Hilbert-index conversion (Skilling).
void AxesToTranspose(uint32_t* x, uint32_t bits, uint32_t dims) {
  const uint32_t m = uint32_t{1} << (bits - 1);
  // Inverse undo of the Hilbert transform.
  for (uint32_t q = m; q > 1; q >>= 1) {
    const uint32_t p = q - 1;
    for (uint32_t i = 0; i < dims; ++i) {
      if (x[i] & q) {
        x[0] ^= p;  // invert low bits of x[0]
      } else {
        const uint32_t t = (x[0] ^ x[i]) & p;
        x[0] ^= t;
        x[i] ^= t;
      }
    }
  }
  // Gray encode.
  for (uint32_t i = 1; i < dims; ++i) x[i] ^= x[i - 1];
  uint32_t t = 0;
  for (uint32_t q = m; q > 1; q >>= 1) {
    if (x[dims - 1] & q) t ^= q - 1;
  }
  for (uint32_t i = 0; i < dims; ++i) x[i] ^= t;
}

// In-place transposed-Hilbert-index -> coordinate conversion (Skilling).
void TransposeToAxes(uint32_t* x, uint32_t bits, uint32_t dims) {
  const uint32_t n = uint32_t{2} << (bits - 1);
  // Gray decode by H ^ (H/2).
  uint32_t t = x[dims - 1] >> 1;
  for (uint32_t i = dims - 1; i > 0; --i) x[i] ^= x[i - 1];
  x[0] ^= t;
  // Undo excess work.
  for (uint32_t q = 2; q != n; q <<= 1) {
    const uint32_t p = q - 1;
    for (uint32_t i = dims; i-- > 0;) {
      if (x[i] & q) {
        x[0] ^= p;
      } else {
        t = (x[0] ^ x[i]) & p;
        x[0] ^= t;
        x[i] ^= t;
      }
    }
  }
}

// BuildIndexTable without a TransposeToAxes per cell. AxesToTranspose
// handles the bit levels top first, and what it does at a level depends
// only on that level's column of coordinate bits c:
//  - It reads y = sigma(c), where sigma is a signed permutation of the
//    coordinates that the levels above built up.
//  - The Gray-encode step turns y into the level's index digit: the
//    prefix-XOR of y, complemented (the `t` mask) when the columns above
//    held an odd number of set bits.
//  - Its loop updates sigma for every level below: for each position i,
//    flip position 0 if y_i is set, otherwise swap positions 0 and i.
// So one descent over the levels, carrying sigma and that parity, reaches
// every cell with its index. A node enumerates its 2^D columns in Gray
// order: each step toggles one coordinate bit, which toggles one bit of
// the cell number and a run of low bits of the digit, so each cell costs
// one XOR on each. With one dimension the walk reduces to the identity,
// which is what Index() returns there.
class IndexTableWalk {
 public:
  IndexTableWalk(const GridSpec& spec, uint64_t* table)
      : dims_(spec.dims), bits_(spec.bits), table_(table) {}

  void Run() const {
    SignedPerm identity{};
    for (uint32_t j = 0; j < dims_; ++j) {
      identity.perm[j] = static_cast<uint8_t>(j);
    }
    Descend(bits_ - 1, identity, 0, 0, 0);
  }

 private:
  // Position j of the permuted point holds coordinate perm[j], complemented
  // when bit j of `flip` is set.
  struct SignedPerm {
    uint8_t perm[16];
    uint32_t flip;
  };

  // Fills every cell under one node. The levels above `level` are fixed in
  // `cell` and `index` and leave `sigma` and `parity` to this one.
  void Descend(uint32_t level, const SignedPerm& sigma, uint32_t parity,
               uint64_t cell, uint64_t index) const {
    const uint32_t d = dims_;
    uint32_t pos[16] = {};  // pos[k]: the position coordinate k sits at
    for (uint32_t j = 0; j < d; ++j) pos[sigma.perm[j]] = j;
    // Column 0 (every coordinate bit clear) reads y = flip (bit j: y_j).
    uint32_t y = sigma.flip;
    const uint32_t shift = level * d;
    index |= Digit(y, parity) << shift;
    const uint32_t columns = uint32_t{1} << d;
    for (uint32_t s = 1;; ++s) {
      if (level == 0) {
        table_[cell] = index;
      } else {
        Descend(level - 1, Below(sigma, y),
                parity ^ (static_cast<uint32_t>(std::popcount(y)) & 1u), cell,
                index);
      }
      if (s == columns) break;
      // Gray order: step s toggles coordinate countr_zero(s)'s bit.
      const uint32_t k = static_cast<uint32_t>(std::countr_zero(s));
      const uint32_t j = pos[k];
      cell ^= uint64_t{1} << ((d - 1 - k) * bits_ + level);
      y ^= uint32_t{1} << j;
      // Digit bit d-1-i is the prefix-XOR through y_i: y_j reaches i >= j.
      index ^= ((uint64_t{1} << (d - j)) - 1) << shift;
    }
  }

  // Digit bit d-1-i = parity ^ y_0 ^ ... ^ y_i (word 0 most significant,
  // as Index() interleaves the transpose words).
  uint64_t Digit(uint32_t y, uint32_t parity) const {
    uint64_t digit = 0;
    for (uint32_t i = 0; i < dims_; ++i) {
      parity ^= (y >> i) & 1u;
      digit |= uint64_t{parity} << (dims_ - 1 - i);
    }
    return digit;
  }

  // AxesToTranspose's per-level loop, applied to sigma.
  SignedPerm Below(const SignedPerm& sigma, uint32_t y) const {
    SignedPerm s = sigma;
    for (uint32_t i = 0; i < dims_; ++i) {
      if ((y >> i) & 1u) {
        s.flip ^= 1u;
      } else if (i != 0) {
        std::swap(s.perm[0], s.perm[i]);
        if (((s.flip >> i) ^ s.flip) & 1u) s.flip ^= 1u | (uint32_t{1} << i);
      }
    }
    return s;
  }

  uint32_t dims_;
  uint32_t bits_;
  uint64_t* table_;
};

class HilbertCurve final : public SpaceFillingCurve {
 public:
  explicit HilbertCurve(GridSpec spec) : SpaceFillingCurve(spec) {}

  std::string_view name() const override { return "hilbert"; }

  CSFC_DETERMINISTIC
  uint64_t Index(std::span<const uint32_t> point) const override {
    assert(point.size() == dims());
    uint32_t x[16];
    for (uint32_t i = 0; i < dims(); ++i) {
      assert(point[i] < side());
      x[i] = point[i];
    }
    if (dims() > 1) AxesToTranspose(x, bits(), dims());
    // Interleave the transpose words: bit b of word i becomes index bit
    // b*dims + (dims-1-i).
    uint64_t index = 0;
    for (uint32_t b = 0; b < bits(); ++b) {
      for (uint32_t i = 0; i < dims(); ++i) {
        const uint64_t bit = (x[i] >> b) & 1u;
        index |= bit << (static_cast<uint64_t>(b) * dims() + (dims() - 1 - i));
      }
    }
    return index;
  }

  CSFC_DETERMINISTIC
  void Point(uint64_t index, std::span<uint32_t> out) const override {
    assert(out.size() == dims());
    uint32_t x[16] = {};
    for (uint32_t b = 0; b < bits(); ++b) {
      for (uint32_t i = 0; i < dims(); ++i) {
        const uint32_t bit = static_cast<uint32_t>(
            (index >> (static_cast<uint64_t>(b) * dims() + (dims() - 1 - i))) &
            1u);
        x[i] |= bit << b;
      }
    }
    if (dims() > 1) TransposeToAxes(x, bits(), dims());
    for (uint32_t i = 0; i < dims(); ++i) out[i] = x[i];
  }

  std::vector<uint64_t> BuildIndexTable() const override {
    std::vector<uint64_t> table(num_cells());
    IndexTableWalk(spec(), table.data()).Run();
    return table;
  }
};

}  // namespace

Result<CurvePtr> MakeHilbertCurve(GridSpec spec) {
  if (Status s = spec.Validate(); !s.ok()) return s;
  return CurvePtr(new HilbertCurve(spec));
}

}  // namespace csfc
