#include "sched/dds.h"

#include <utility>

#include "sched/scan_plan.h"

namespace csfc {

void DdsScheduler::Enqueue(Request r, const DispatchContext& ctx) {
  const PriorityLevel victim_level = r.priority(0);
  EnqueueRanked(std::move(r), victim_level, ctx);
}

void DdsScheduler::EnqueueRanked(Request r, PriorityLevel victim_level,
                                 const DispatchContext& ctx) {
  // Insert in C-SCAN order relative to the current head.
  auto pos = ScanSlot(plan_, *disk_, r.cylinder, ctx.head, RequestOf);
  plan_.insert(pos, Planned{std::move(r), victim_level});

  // If the insertion broke a deadline, demote the lowest-priority request
  // to the tail — one victim per arrival, exactly as the paper describes
  // ("the scheduler chooses the lowest priority disk request in the queue
  // and moves it to the tail"). This also bounds the per-arrival cost to
  // O(queue) even under sustained overload.
  if (plan_.size() > 1 && !PlanFeasible(plan_, *disk_, ctx, RequestOf)) {
    // Lowest priority = largest level number; ties demote the later one.
    size_t victim = 0;
    for (size_t i = 1; i + 1 < plan_.size(); ++i) {
      if (plan_[i].victim_level >= plan_[victim].victim_level) victim = i;
    }
    Planned demoted = std::move(plan_[victim]);
    plan_.erase(plan_.begin() + static_cast<ptrdiff_t>(victim));
    plan_.push_back(std::move(demoted));
  }
}

std::optional<Request> DdsScheduler::Dispatch(const DispatchContext&) {
  if (plan_.empty()) return std::nullopt;
  Request r = std::move(plan_.front().req);
  plan_.erase(plan_.begin());
  return r;
}

}  // namespace csfc
