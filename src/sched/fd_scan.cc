#include "sched/fd_scan.h"

#include <utility>

namespace csfc {

void FdScanScheduler::Enqueue(Request r, const DispatchContext&) {
  const SimTime deadline = r.deadline;
  const bool has_deadline = r.has_deadline();
  auto it = by_cylinder_.emplace(r.cylinder, std::move(r));
  if (has_deadline) by_deadline_.emplace(deadline, it);
}

SimTime FdScanScheduler::EstimateFinish(const Request& r,
                                        const DispatchContext& ctx) const {
  const double ms = disk_->ServiceTimeMs(ctx.head, r.cylinder, r.bytes);
  return AddSaturating(ctx.now, MsToSim(ms));
}

Request FdScanScheduler::Take(ByCylinder::iterator it) {
  if (it->second.has_deadline()) {
    auto dit = by_deadline_.lower_bound(it->second.deadline);
    while (dit->second != it) ++dit;
    by_deadline_.erase(dit);
  }
  Request r = std::move(it->second);
  by_cylinder_.erase(it);
  return r;
}

std::optional<Request> FdScanScheduler::Dispatch(const DispatchContext& ctx) {
  if (by_cylinder_.empty()) return std::nullopt;

  // Find the earliest feasible deadline. Seek and transfer times are never
  // negative, so EstimateFinish is at least now plus the rotational
  // latency, and no deadline before that can be met.
  const Request* target = nullptr;
  const SimTime earliest =
      AddSaturating(ctx.now, MsToSim(disk_->AvgRotationalLatencyMs()));
  for (auto it = by_deadline_.lower_bound(earliest);
       it != by_deadline_.end(); ++it) {
    if (EstimateFinish(it->second->second, ctx) <= it->first) {
      target = &it->second->second;
      break;
    }
  }

  if (target == nullptr) {
    // No feasible deadline: fall back to nearest-first (SSTF move).
    auto above = by_cylinder_.lower_bound(ctx.head);
    auto chosen = above != by_cylinder_.end() ? above : std::prev(above);
    if (above != by_cylinder_.begin() && above != by_cylinder_.end()) {
      auto below = std::prev(above);
      if (ctx.head - below->first < above->first - ctx.head) chosen = below;
    } else if (above == by_cylinder_.end()) {
      chosen = std::prev(by_cylinder_.end());
    }
    return Take(chosen);
  }

  // Serve the first pending request en route toward the target (including
  // the target itself when nothing is closer in that direction).
  if (target->cylinder >= ctx.head) {
    return Take(by_cylinder_.lower_bound(ctx.head));  // first at/after head
  }
  return Take(std::prev(by_cylinder_.upper_bound(ctx.head)));  // going down
}

}  // namespace csfc
