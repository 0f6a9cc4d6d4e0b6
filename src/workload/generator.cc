#include "workload/generator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>

namespace csfc {

Status WorkloadConfig::Validate() const {
  if (count == 0) return Status::InvalidArgument("count must be > 0");
  if (!std::isfinite(mean_interarrival_ms) || mean_interarrival_ms <= 0.0) {
    return Status::InvalidArgument(
        "mean_interarrival_ms must be finite and > 0");
  }
  if (burst_size == 0) return Status::InvalidArgument("burst_size must be > 0");
  if (priority_dims > kMaxPriorityDims) {
    return Status::InvalidArgument("priority_dims must be <= 12");
  }
  if (priority_dims > 0 && priority_levels < 2) {
    return Status::InvalidArgument("priority_levels must be >= 2");
  }
  if (!relaxed_deadlines &&
      !(std::isfinite(deadline_hi_ms) && deadline_lo_ms >= 0.0)) {
    // A negative relative deadline is a request born past its deadline.
    char range[64];
    std::snprintf(range, sizeof range, "%g:%g", deadline_lo_ms,
                  deadline_hi_ms);
    return Status::InvalidArgument(
        std::string("deadline range ") + range +
        " ms must be finite and >= 0 (--deadline=LO:HI, relative to "
        "arrival)");
  }
  if (!relaxed_deadlines && deadline_hi_ms < deadline_lo_ms) {
    return Status::InvalidArgument("deadline range is inverted");
  }
  if (bytes_hi < bytes_lo) {
    return Status::InvalidArgument("bytes range is inverted");
  }
  if (cylinders < 1) return Status::InvalidArgument("cylinders must be >= 1");
  if (cylinder_distribution == CylinderDistribution::kZipf &&
      (zipf_theta <= 0.0 || zipf_theta >= 1.0)) {
    return Status::InvalidArgument("zipf_theta must be in (0,1)");
  }
  if (write_fraction < 0.0 || write_fraction > 1.0) {
    return Status::InvalidArgument("write_fraction must be in [0,1]");
  }
  return Status::OK();
}

Result<std::unique_ptr<SyntheticGenerator>> SyntheticGenerator::Create(
    const WorkloadConfig& config) {
  if (Status s = config.Validate(); !s.ok()) return s;
  return std::unique_ptr<SyntheticGenerator>(new SyntheticGenerator(config));
}

SyntheticGenerator::SyntheticGenerator(const WorkloadConfig& config)
    : config_(config), rng_(config.seed) {
  if (config.cylinder_distribution == CylinderDistribution::kZipf) {
    zipf_.emplace(config.cylinders, config.zipf_theta);
  }
}

std::optional<Request> SyntheticGenerator::Next() {
  if (emitted_ >= config_.count) return std::nullopt;

  if (burst_left_ == 0) {
    // Advance the clock to the next burst instant. Burst interarrivals are
    // scaled by burst_size so the offered request rate is independent of
    // burstiness.
    const double mean =
        config_.mean_interarrival_ms * static_cast<double>(config_.burst_size);
    clock_ += MsToSim(rng_.Exponential(mean));
    burst_left_ = config_.burst_size;
  }
  --burst_left_;

  Request r;
  r.id = emitted_++;
  r.arrival = clock_;
  r.cylinder = zipf_ ? static_cast<Cylinder>(zipf_->Sample(rng_))
                     : static_cast<Cylinder>(rng_.Uniform(config_.cylinders));
  r.is_write = rng_.Bernoulli(config_.write_fraction);

  for (uint32_t k = 0; k < config_.priority_dims; ++k) {
    PriorityLevel level;
    if (config_.priority_distribution == PriorityDistribution::kNormal) {
      const double mid = (config_.priority_levels - 1) / 2.0;
      const double v = rng_.Normal(mid, config_.priority_levels / 4.0);
      level = static_cast<PriorityLevel>(std::clamp(
          v, 0.0, static_cast<double>(config_.priority_levels - 1)));
    } else {
      level = static_cast<PriorityLevel>(rng_.Uniform(config_.priority_levels));
    }
    r.priorities.push_back(level);
  }

  if (config_.relaxed_deadlines) {
    r.deadline = kNoDeadline;
  } else {
    r.deadline = r.arrival + MsToSim(rng_.UniformDouble(
                                 config_.deadline_lo_ms, config_.deadline_hi_ms));
  }

  if (config_.couple_size_to_priority && config_.priority_dims > 0 &&
      config_.priority_levels > 1) {
    const double frac = static_cast<double>(r.priorities[0]) /
                        static_cast<double>(config_.priority_levels - 1);
    r.bytes = config_.bytes_lo +
              static_cast<uint64_t>(
                  frac * static_cast<double>(config_.bytes_hi - config_.bytes_lo));
  } else if (config_.bytes_hi > config_.bytes_lo) {
    r.bytes = config_.bytes_lo +
              rng_.Uniform(config_.bytes_hi - config_.bytes_lo + 1);
  } else {
    r.bytes = config_.bytes_lo;
  }

  return r;
}

}  // namespace csfc
