#include "sched/scan_rt.h"

#include <utility>

#include "sched/scan_plan.h"

namespace csfc {
namespace {

const Request& Self(const Request& r) { return r; }

}  // namespace

void ScanRtScheduler::Enqueue(Request r, const DispatchContext& ctx) {
  auto pos = ScanSlot(plan_, *disk_, r.cylinder, ctx.head, Self);
  const size_t idx = static_cast<size_t>(pos - plan_.begin());
  plan_.insert(pos, std::move(r));
  if (!PlanFeasible(plan_, *disk_, ctx, Self)) {
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
