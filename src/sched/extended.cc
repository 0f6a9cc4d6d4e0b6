#include "sched/extended.h"

#include <algorithm>
#include <utility>

#include "sfc/registry.h"

namespace csfc {

Result<std::unique_ptr<SfcDdsScheduler>> SfcDdsScheduler::Create(
    const DiskModel* disk, std::string_view sfc1, uint32_t dims,
    uint32_t bits) {
  if (disk == nullptr) {
    return Status::InvalidArgument("SfcDdsScheduler needs a disk model");
  }
  Result<CurvePtr> curve = MakeCurve(sfc1, GridSpec{.dims = dims, .bits = bits});
  if (!curve.ok()) return curve.status();
  return std::unique_ptr<SfcDdsScheduler>(
      new SfcDdsScheduler(disk, std::move(*curve)));
}

SfcDdsScheduler::SfcDdsScheduler(const DiskModel* disk, CurvePtr curve)
    : curve_(std::move(curve)), inner_(disk) {}

PriorityLevel SfcDdsScheduler::AbsolutePriority(const Request& r) const {
  uint32_t point[16];
  const uint32_t levels = uint32_t{1} << curve_->bits();
  for (uint32_t k = 0; k < curve_->dims(); ++k) {
    point[k] = std::min<uint32_t>(r.priority(k), levels - 1);
  }
  const uint64_t index =
      curve_->Index(std::span<const uint32_t>(point, curve_->dims()));
  // Quantize the curve position into a 16-bit absolute level so the DDS
  // victim comparison stays a small integer.
  const uint32_t total_bits = curve_->dims() * curve_->bits();
  const uint32_t shift = total_bits > 16 ? total_bits - 16 : 0;
  return static_cast<PriorityLevel>(index >> shift);
}

void SfcDdsScheduler::Enqueue(Request r, const DispatchContext& ctx) {
  const PriorityLevel level = AbsolutePriority(r);
  inner_.EnqueueRanked(std::move(r), level, ctx);
}

std::optional<Request> SfcDdsScheduler::Dispatch(const DispatchContext& ctx) {
  return inner_.Dispatch(ctx);
}

SfcBucketScheduler::SfcBucketScheduler(uint32_t levels, uint32_t buckets,
                                       SimTime urgency_band)
    : levels_(std::max(levels, 1u)),
      buckets_(std::clamp(buckets, 1u, std::max(levels, 1u))),
      urgency_band_(urgency_band), queues_(buckets_) {}

uint32_t SfcBucketScheduler::BucketOf(PriorityLevel value_level) const {
  const uint32_t clamped = std::min(value_level, levels_ - 1);
  return clamped * buckets_ / levels_;
}

SimTime SfcBucketScheduler::Band(SimTime deadline) const {
  if (urgency_band_ <= 0) return deadline;
  return deadline / urgency_band_;
}

void SfcBucketScheduler::Enqueue(Request r, const DispatchContext&) {
  queues_[BucketOf(r.priority(0))][Band(r.deadline)].emplace(r.cylinder,
                                                              std::move(r));
  ++size_;
}

std::optional<Request> SfcBucketScheduler::Dispatch(
    const DispatchContext& ctx) {
  for (auto& bucket : queues_) {
    if (bucket.empty()) continue;
    auto& [band, group] = *bucket.begin();
    // SFC3 behavior inside the urgency band: continue the cylinder sweep.
    auto it = group.lower_bound(ctx.head);
    if (it == group.end()) it = group.begin();
    Request r = std::move(it->second);
    group.erase(it);
    if (group.empty()) bucket.erase(bucket.begin());
    --size_;
    return r;
  }
  return std::nullopt;
}

}  // namespace csfc
