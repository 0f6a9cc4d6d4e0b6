// Core scalar types and time conventions shared by every csfc module.
//
// Simulation time is a signed 64-bit count of microseconds (`SimTime`).
// Disk-model arithmetic is done in double milliseconds and converted at the
// boundary with MsToSim/SimToMs.

#ifndef CSFC_COMMON_TYPES_H_
#define CSFC_COMMON_TYPES_H_

#include <cstdint>
#include <limits>

namespace csfc {

/// Simulation timestamp / duration in microseconds.
using SimTime = int64_t;

/// One millisecond in SimTime units.
inline constexpr SimTime kMillisecond = 1000;
/// One second in SimTime units.
inline constexpr SimTime kSecond = 1000 * kMillisecond;

/// Converts a duration in (possibly fractional) milliseconds to SimTime,
/// saturating at SimTime's range (NaN maps to the maximum): a disk model
/// prices a 2^64-byte request past 2^63 us, where the bare cast is
/// undefined.
constexpr SimTime MsToSim(double ms) {
  const double us = ms * static_cast<double>(kMillisecond) + 0.5;
  if (!(us < 0x1p63)) return std::numeric_limits<SimTime>::max();
  if (us < -0x1p63) return std::numeric_limits<SimTime>::min();
  return static_cast<SimTime>(us);
}

/// t + d, saturating at SimTime's range, for timestamps a service time
/// is added to: one near the top of the range must not wrap.
constexpr SimTime AddSaturating(SimTime t, SimTime d) {
  SimTime sum = 0;
  if (__builtin_add_overflow(t, d, &sum)) {
    return d > 0 ? std::numeric_limits<SimTime>::max()
                 : std::numeric_limits<SimTime>::min();
  }
  return sum;
}

/// Converts a SimTime duration to fractional milliseconds.
constexpr double SimToMs(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kMillisecond);
}

/// Disk cylinder index.
using Cylinder = uint32_t;

/// A quantized priority level. Level 0 is the HIGHEST priority in every
/// dimension, so that ascending characterization order serves important
/// requests first (see DESIGN.md section 6).
using PriorityLevel = uint32_t;

/// Monotonically increasing request identifier.
using RequestId = uint64_t;

}  // namespace csfc

#endif  // CSFC_COMMON_TYPES_H_
