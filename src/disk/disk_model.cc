#include "disk/disk_model.h"

#include <cmath>
#include <cstdlib>

namespace csfc {

double SeekModel::SeekMs(uint32_t distance) const {
  if (distance == 0) return 0.0;
  if (distance < cutoff) {
    return sqrt_coeff_a + sqrt_coeff_b * std::sqrt(static_cast<double>(distance));
  }
  return lin_coeff_c + lin_coeff_e * static_cast<double>(distance);
}

DiskParams DiskParams::PanaVissDisk() { return DiskParams{}; }

Status DiskParams::Validate() const {
  if (cylinders < 2) return Status::InvalidArgument("cylinders must be >= 2");
  if (zones == 0 || zones > cylinders) {
    return Status::InvalidArgument("zones must be in [1, cylinders]");
  }
  if (zones > kMaxZones) {
    return Status::InvalidArgument("zones must be <= 65536");
  }
  if (rpm == 0) return Status::InvalidArgument("rpm must be > 0");
  if (outer_rate_mbps <= 0 || inner_rate_mbps <= 0) {
    return Status::InvalidArgument("zone rates must be > 0");
  }
  if (inner_rate_mbps > outer_rate_mbps) {
    return Status::InvalidArgument(
        "inner zone cannot be faster than outer zone");
  }
  if (block_bytes == 0) return Status::InvalidArgument("block_bytes must be > 0");
  return Status::OK();
}

Result<DiskModel> DiskModel::Create(const DiskParams& params) {
  if (Status s = params.Validate(); !s.ok()) return s;
  return DiskModel(params);
}

DiskModel::DiskModel(const DiskParams& params)
    : params_(params),
      rotation_ms_(60.0 * 1000.0 / static_cast<double>(params.rpm)),
      avg_rotational_latency_ms_(rotation_ms_ / 2.0) {
  zone_bytes_per_ms_.reserve(params.zones);
  for (uint32_t z = 0; z < params.zones; ++z) {
    zone_bytes_per_ms_.push_back(ZoneRateMBps(z) * 1e6 / 1000.0);
  }
}

double DiskModel::SeekTimeMs(Cylinder from, Cylinder to) const {
  const uint32_t d = from > to ? from - to : to - from;
  return params_.seek.SeekMs(d);
}

double DiskModel::RotationMs() const { return rotation_ms_; }

double DiskModel::AvgRotationalLatencyMs() const {
  return avg_rotational_latency_ms_;
}

double DiskModel::SampleRotationalLatencyMs(Rng& rng) const {
  return rng.UniformDouble(0.0, rotation_ms_);
}

uint32_t DiskModel::ZoneOf(Cylinder cyl) const {
  const uint64_t z = static_cast<uint64_t>(cyl) * params_.zones / params_.cylinders;
  return static_cast<uint32_t>(z >= params_.zones ? params_.zones - 1 : z);
}

double DiskModel::ZoneRateMBps(uint32_t zone) const {
  if (params_.zones == 1) return params_.outer_rate_mbps;
  const double frac =
      static_cast<double>(zone) / static_cast<double>(params_.zones - 1);
  return params_.outer_rate_mbps +
         frac * (params_.inner_rate_mbps - params_.outer_rate_mbps);
}

double DiskModel::TransferTimeMs(Cylinder cyl, uint64_t bytes) const {
  return static_cast<double>(bytes) / zone_bytes_per_ms_[ZoneOf(cyl)];
}

double DiskModel::ServiceTimeMs(Cylinder from, Cylinder to, uint64_t bytes,
                                Rng* rng) const {
  const double latency =
      rng ? SampleRotationalLatencyMs(*rng) : avg_rotational_latency_ms_;
  return SeekTimeMs(from, to) + latency + TransferTimeMs(to, bytes);
}

double DiskModel::MeanRandomSeekMs() const {
  // For X, Y uniform on {0..C-1}, P(|X-Y| = d) = (2(C-d)) / C^2 for d >= 1
  // and 1/C for d = 0. Sum seek(d) over that distribution.
  const uint64_t c = params_.cylinders;
  double mean = 0.0;
  const double c2 = static_cast<double>(c) * static_cast<double>(c);
  for (uint64_t d = 1; d < c; ++d) {
    const double p = 2.0 * static_cast<double>(c - d) / c2;
    mean += p * params_.seek.SeekMs(static_cast<uint32_t>(d));
  }
  return mean;
}

double DiskModel::MaxSeekMs() const {
  return params_.seek.SeekMs(params_.cylinders - 1);
}

}  // namespace csfc
