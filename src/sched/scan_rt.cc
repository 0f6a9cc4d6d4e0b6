#include "sched/scan_rt.h"

#include <algorithm>
#include <utility>

namespace csfc {

uint64_t ScanRtScheduler::ScanKey(Cylinder cyl, Cylinder head) const {
  const uint32_t cylinders = disk_->params().cylinders;
  return cyl >= head ? cyl - head : static_cast<uint64_t>(cyl) + cylinders - head;
}

bool ScanRtScheduler::PlanFeasible(const DispatchContext& ctx) const {
  SimTime clock = ctx.now;
  Cylinder head = ctx.head;
  for (const Request& r : plan_) {
    const double ms = disk_->ServiceTimeMs(head, r.cylinder, r.bytes);
    clock = AddSaturating(clock, MsToSim(ms));
    if (r.has_deadline() && clock > r.deadline) return false;
    head = r.cylinder;
  }
  return true;
}

void ScanRtScheduler::Enqueue(Request r, const DispatchContext& ctx) {
  const uint64_t key = ScanKey(r.cylinder, ctx.head);
  auto pos = std::find_if(plan_.begin(), plan_.end(), [&](const Request& q) {
    return ScanKey(q.cylinder, ctx.head) > key;
  });
  const size_t idx = static_cast<size_t>(pos - plan_.begin());
  plan_.insert(pos, std::move(r));
  if (!PlanFeasible(ctx)) {
    // Back out the SCAN insertion and append instead.
    Request backed = std::move(plan_[idx]);
    plan_.erase(plan_.begin() + static_cast<ptrdiff_t>(idx));
    plan_.push_back(std::move(backed));
  }
}

std::optional<Request> ScanRtScheduler::Dispatch(const DispatchContext&) {
  if (plan_.empty()) return std::nullopt;
  Request r = std::move(plan_.front());
  plan_.erase(plan_.begin());
  return r;
}

}  // namespace csfc
