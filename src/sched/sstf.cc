#include "sched/sstf.h"

#include <utility>

namespace csfc {

void SstfScheduler::Enqueue(Request r, const DispatchContext&) {
  by_cylinder_.emplace(r.cylinder, std::move(r));
  ++size_;
}

std::optional<Request> SstfScheduler::Dispatch(const DispatchContext& ctx) {
  if (by_cylinder_.empty()) return std::nullopt;
  // Candidates: first at/above the head, and last below it.
  auto above = by_cylinder_.lower_bound(ctx.head);
  auto chosen = by_cylinder_.end();
  if (above != by_cylinder_.end()) chosen = above;
  if (above != by_cylinder_.begin()) {
    auto below = std::prev(above);
    if (chosen == by_cylinder_.end() ||
        ctx.head - below->first < chosen->first - ctx.head) {
      chosen = below;
    }
  }
  Request r = std::move(chosen->second);
  by_cylinder_.erase(chosen);
  --size_;
  return r;
}

}  // namespace csfc
