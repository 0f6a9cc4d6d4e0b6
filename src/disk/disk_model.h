// Disk service-time model, parameterized after Table 1 of the paper
// (Quantum XP32150-class drive in the PanaViss video server):
//
//   cylinders 3832, 10 tracks/cylinder, 16 zones, 512-byte sectors,
//   7200 RPM, average seek 8.5 ms, max seek 18 ms, 2.1 GB capacity,
//   64 KB file blocks, RAID-5 over 5 disks (4 data + 1 parity).
//
// The paper's seek-cost-function cell is unreadable in the available text;
// we use the standard two-regime analytic model (Ruemmler & Wilkes):
//   seek(d) = a + b*sqrt(d)           for 0 < d < cutoff  (arm acceleration)
//   seek(d) = c + e*d                 for d >= cutoff     (coast at speed)
// with default constants calibrated so that the mean seek over uniformly
// random request pairs is 8.5 ms and seek(max distance) = 18 ms, matching
// the published figures (see disk_model_test.cc).

#ifndef CSFC_DISK_DISK_MODEL_H_
#define CSFC_DISK_DISK_MODEL_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "common/types.h"

namespace csfc {

/// Two-regime seek-time curve (milliseconds as a function of cylinder
/// distance).
struct SeekModel {
  // Defaults calibrated (see bench_table1_disk) so that over the 3832
  // cylinders of Table 1: seek(1) = 2.5 ms, the curve is continuous at the
  // regime boundary, the mean seek over uniform random pairs is 8.50 ms and
  // the full-stroke seek is 18.0 ms.
  double sqrt_coeff_a = 2.35;     ///< a in a + b*sqrt(d)
  double sqrt_coeff_b = 0.15;     ///< b in a + b*sqrt(d)
  uint32_t cutoff = 600;          ///< regime boundary (cylinders)
  double lin_coeff_c = 3.8003;    ///< c in c + e*d
  double lin_coeff_e = 0.003707;  ///< e in c + e*d

  /// Seek time in ms for a move of `distance` cylinders (0 -> 0 ms).
  double SeekMs(uint32_t distance) const;
};

/// Static drive geometry and performance parameters.
struct DiskParams {
  uint32_t cylinders = 3832;
  uint32_t tracks_per_cylinder = 10;
  uint32_t zones = 16;
  uint32_t sector_bytes = 512;
  uint32_t rpm = 7200;
  /// Sustained media rate of the outermost zone, MB/s. Inner zones scale
  /// down linearly to `inner_rate_mbps`.
  double outer_rate_mbps = 7.5;
  double inner_rate_mbps = 4.5;
  uint64_t block_bytes = 64 * 1024;  ///< file system block (Table 1)
  SeekModel seek;

  /// Parameters of the Table-1 drive (the defaults above).
  static DiskParams PanaVissDisk();

  /// Largest `zones` Validate accepts, so DiskModel's per-zone rate table
  /// stays small.
  static constexpr uint32_t kMaxZones = 65536;

  Status Validate() const;
};

/// Computes per-request service-time components from DiskParams.
///
/// All times are in milliseconds; SimTime conversion happens at the
/// simulator boundary. The model is deliberately head-position-only (no
/// track skew / head switch): the scheduling algorithms under study act on
/// cylinder distance, which this captures.
///
/// Create evaluates the per-request constants once: each zone's media rate
/// in bytes/ms, the rotation time and the average rotational latency. The
/// per-dispatch calls then return the same doubles without recomputing
/// them.
class DiskModel {
 public:
  /// `params` must validate; construction with invalid params is rejected.
  static Result<DiskModel> Create(const DiskParams& params);

  const DiskParams& params() const { return params_; }

  /// Seek time between two cylinders.
  double SeekTimeMs(Cylinder from, Cylinder to) const;

  /// One full platter rotation.
  double RotationMs() const;

  /// Expected rotational latency (half a rotation).
  double AvgRotationalLatencyMs() const;

  /// Rotational latency sampled uniformly in [0, rotation).
  double SampleRotationalLatencyMs(Rng& rng) const;

  /// Zone index of a cylinder (0 = outermost = fastest).
  uint32_t ZoneOf(Cylinder cyl) const;

  /// Sustained media rate of a zone in MB/s.
  double ZoneRateMBps(uint32_t zone) const;

  /// Media transfer time for `bytes` read at `cyl`'s zone rate.
  double TransferTimeMs(Cylinder cyl, uint64_t bytes) const;

  /// Full service time: seek + rotational latency + transfer.
  /// If `rng` is null the expected (half-rotation) latency is used,
  /// keeping the simulation deterministic without an RNG stream.
  double ServiceTimeMs(Cylinder from, Cylinder to, uint64_t bytes,
                       Rng* rng = nullptr) const;

  /// Mean seek time over uniformly random (from, to) pairs, computed
  /// analytically from the distance distribution. Used for calibration
  /// tests against the published 8.5 ms average.
  double MeanRandomSeekMs() const;

  /// Seek time at the maximum distance (cylinders-1).
  double MaxSeekMs() const;

 private:
  explicit DiskModel(const DiskParams& params);

  DiskParams params_;
  double rotation_ms_;
  double avg_rotational_latency_ms_;
  /// zone_bytes_per_ms_[z]: ZoneRateMBps(z) in bytes per millisecond.
  std::vector<double> zone_bytes_per_ms_;
};

}  // namespace csfc

#endif  // CSFC_DISK_DISK_MODEL_H_
