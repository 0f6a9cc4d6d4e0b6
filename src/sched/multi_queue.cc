#include "sched/multi_queue.h"

#include <algorithm>
#include <utility>

namespace csfc {

MultiQueueScheduler::MultiQueueScheduler(uint32_t levels)
    : queues_(std::max(levels, 1u)) {}

void MultiQueueScheduler::Enqueue(Request r, const DispatchContext&) {
  const size_t level =
      std::min<size_t>(r.priority(0), queues_.size() - 1);
  queues_[level].emplace(r.cylinder, std::move(r));
  ++size_;
}

std::optional<Request> MultiQueueScheduler::Dispatch(
    const DispatchContext& ctx) {
  for (auto& queue : queues_) {
    if (queue.empty()) continue;
    // Continue the upward sweep within this level; wrap to the lowest.
    auto it = queue.lower_bound(ctx.head);
    if (it == queue.end()) it = queue.begin();
    Request r = std::move(it->second);
    queue.erase(it);
    --size_;
    return r;
  }
  return std::nullopt;
}

}  // namespace csfc
