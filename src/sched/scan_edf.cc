#include "sched/scan_edf.h"

#include <utility>

namespace csfc {

void ScanEdfScheduler::Enqueue(Request r, const DispatchContext&) {
  buckets_[Bucket(r.deadline)].emplace(r.cylinder, std::move(r));
  ++size_;
}

std::optional<Request> ScanEdfScheduler::Dispatch(const DispatchContext& ctx) {
  if (buckets_.empty()) return std::nullopt;
  auto& [bucket, group] = *buckets_.begin();
  // Within the earliest-deadline group, continue the upward sweep from the
  // head; wrap to the lowest cylinder of the group (C-SCAN-style order, as
  // in the paper's realization of SCAN-EDF via SFC3).
  auto it = group.lower_bound(ctx.head);
  if (it == group.end()) it = group.begin();
  Request r = std::move(it->second);
  group.erase(it);
  if (group.empty()) buckets_.erase(buckets_.begin());
  --size_;
  return r;
}

}  // namespace csfc
