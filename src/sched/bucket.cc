#include "sched/bucket.h"

#include <algorithm>
#include <utility>

namespace csfc {

BucketScheduler::BucketScheduler(uint32_t levels, uint32_t buckets)
    : levels_(std::max(levels, 1u)),
      buckets_(std::clamp(buckets, 1u, std::max(levels, 1u))),
      queues_(buckets_) {}

uint32_t BucketScheduler::BucketOf(PriorityLevel value_level) const {
  const uint32_t clamped = std::min(value_level, levels_ - 1);
  return clamped * buckets_ / levels_;
}

void BucketScheduler::Enqueue(Request r, const DispatchContext&) {
  queues_[BucketOf(r.priority(0))].emplace(r.deadline, std::move(r));
  ++size_;
}

std::optional<Request> BucketScheduler::Dispatch(const DispatchContext&) {
  for (auto& queue : queues_) {
    if (queue.empty()) continue;
    auto it = queue.begin();  // earliest deadline within the bucket
    Request r = std::move(it->second);
    queue.erase(it);
    --size_;
    return r;
  }
  return std::nullopt;
}

}  // namespace csfc
