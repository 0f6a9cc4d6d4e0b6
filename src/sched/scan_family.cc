#include "sched/scan_family.h"

#include <utility>

namespace csfc {

ScanScheduler::ScanScheduler(ScanVariant variant, uint32_t cylinders)
    : variant_(variant), cylinders_(cylinders) {}

std::string_view ScanScheduler::name() const {
  switch (variant_) {
    case ScanVariant::kScan:
      return "scan";
    case ScanVariant::kLook:
      return "look";
    case ScanVariant::kCScan:
      return "cscan";
    case ScanVariant::kCLook:
      return "clook";
  }
  return "scan?";
}

void ScanScheduler::Enqueue(Request r, const DispatchContext&) {
  by_cylinder_.emplace(r.cylinder, std::move(r));
  ++size_;
}

std::optional<Request> ScanScheduler::Dispatch(const DispatchContext& ctx) {
  if (by_cylinder_.empty()) return std::nullopt;
  auto take = [&](auto it) {
    Request r = std::move(it->second);
    by_cylinder_.erase(it);
    --size_;
    return r;
  };

  if (variant_ == ScanVariant::kCScan || variant_ == ScanVariant::kCLook) {
    // One-directional sweep upward; wrap to the lowest pending request.
    auto it = by_cylinder_.lower_bound(ctx.head);
    if (it == by_cylinder_.end()) it = by_cylinder_.begin();
    return take(it);
  }

  // SCAN / LOOK: serve the next request in the current direction; reverse
  // when none remain that way.
  if (direction_ > 0) {
    auto it = by_cylinder_.lower_bound(ctx.head);
    if (it != by_cylinder_.end()) return take(it);
    direction_ = -1;
  } else {
    auto it = by_cylinder_.upper_bound(ctx.head);
    if (it != by_cylinder_.begin()) return take(std::prev(it));
    direction_ = +1;
  }
  // Direction reversed; serve in the new direction (queue is nonempty).
  if (direction_ > 0) {
    return take(by_cylinder_.lower_bound(ctx.head));
  }
  auto it = by_cylinder_.upper_bound(ctx.head);
  return take(std::prev(it));
}

}  // namespace csfc
