#include "svc/admission.h"

#include <algorithm>
#include <cmath>

namespace csfc {
namespace svc {

Status AdmissionConfig::Validate() const {
  if (max_streams == 0) {
    return Status::InvalidArgument("admission: max_streams must be >= 1");
  }
  if (!std::isfinite(stream_rate_rps) || stream_rate_rps < 0.0) {
    return Status::InvalidArgument(
        "admission: stream_rate_rps must be finite and >= 0");
  }
  if (!std::isfinite(stream_burst) || stream_burst < 0.0) {
    return Status::InvalidArgument(
        "admission: stream_burst must be finite and >= 0");
  }
  if (!std::isfinite(slo_wait_ms) || slo_wait_ms < 0.0) {
    return Status::InvalidArgument(
        "admission: slo_wait_ms must be finite and >= 0");
  }
  if (!std::isfinite(fixed_cost_ms) || fixed_cost_ms < 0.0) {
    return Status::InvalidArgument(
        "admission: fixed_cost_ms must be finite and >= 0");
  }
  if (!std::isfinite(sweep_cost_ms) || sweep_cost_ms < 0.0) {
    return Status::InvalidArgument(
        "admission: sweep_cost_ms must be finite and >= 0");
  }
  return Status::OK();
}

AdmissionController::AdmissionController(const AdmissionConfig& config)
    : config_(config),
      burst_(config.stream_burst > 0.0
                 ? config.stream_burst
                 : std::max(1.0, config.stream_rate_rps)),
      buckets_(config.max_streams) {
  MutexLock lock(mu_);
  for (Bucket& b : buckets_) b.tokens = burst_;  // start full: bursts admit
}

double AdmissionController::PredictedWaitMs(size_t queue_depth) const {
  return static_cast<double>(queue_depth) * config_.fixed_cost_ms +
         config_.sweep_cost_ms;
}

bool AdmissionController::TakeToken(uint32_t stream, SimTime now) {
  MutexLock lock(mu_);
  Bucket& b = buckets_[stream % config_.max_streams];
  if (now > b.last_refill) {
    const double dt_s =
        static_cast<double>(now - b.last_refill) / static_cast<double>(kSecond);
    b.tokens = std::min(burst_, b.tokens + dt_s * config_.stream_rate_rps);
    b.last_refill = now;
  }
  if (b.tokens < 1.0) return false;
  b.tokens -= 1.0;
  return true;
}

namespace {

/// Hands out stripe indices, one per producer thread over the process.
std::atomic<uint32_t> stripe_ticket{0};

}  // namespace

uint32_t AdmissionController::TakeStripe() {
  return stripe_ticket.fetch_add(1, std::memory_order_relaxed) % kStripes;
}

AdmitDecision AdmissionController::Admit(uint32_t stream, SimTime now,
                                         size_t queue_depth) {
  Stripe& mine = Mine();
  mine.offered.fetch_add(1, std::memory_order_relaxed);
  if (config_.stream_rate_rps > 0.0 && !TakeToken(stream, now)) {
    mine.rejected_rate.fetch_add(1, std::memory_order_relaxed);
    return AdmitDecision::kRejectRate;
  }
  if (load_gate() && PredictedWaitMs(queue_depth) > config_.slo_wait_ms) {
    mine.rejected_load.fetch_add(1, std::memory_order_relaxed);
    return AdmitDecision::kRejectLoad;
  }
  return AdmitDecision::kAdmit;
}

AdmissionController::Counters AdmissionController::counters() const {
  Counters c;
  for (const Stripe& s : stripes_) {
    c.offered += s.offered.load(std::memory_order_relaxed);
    c.admitted += s.admitted.load(std::memory_order_relaxed);
    c.rejected_rate += s.rejected_rate.load(std::memory_order_relaxed);
    c.rejected_load += s.rejected_load.load(std::memory_order_relaxed);
    c.rejected_ring_full +=
        s.rejected_ring_full.load(std::memory_order_relaxed);
  }
  return c;
}

}  // namespace svc
}  // namespace csfc
