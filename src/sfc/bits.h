// Bit-interleaving helpers shared by the Z-order and Gray curves.

#ifndef CSFC_SFC_BITS_H_
#define CSFC_SFC_BITS_H_

#include <cstdint>
#include <span>

namespace csfc {

/// Interleaves `bits` bits of each of `dims` coordinates into a Morton
/// index. Bit b of dimension i maps to index bit b*dims + (dims-1-i).
uint64_t InterleaveBits(std::span<const uint32_t> point, uint32_t dims,
                        uint32_t bits);

/// Inverse of InterleaveBits.
void DeinterleaveBits(uint64_t index, uint32_t dims, uint32_t bits,
                      std::span<uint32_t> out);

/// Binary-reflected Gray code of x.
constexpr uint64_t GrayCode(uint64_t x) { return x ^ (x >> 1); }

/// Inverse of GrayCode.
constexpr uint64_t GrayDecode(uint64_t g) {
  uint64_t x = g;
  for (uint64_t shift = 1; shift < 64; shift <<= 1) x ^= x >> shift;
  return x;
}

}  // namespace csfc

#endif  // CSFC_SFC_BITS_H_
