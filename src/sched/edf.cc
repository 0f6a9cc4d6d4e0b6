#include "sched/edf.h"

#include <utility>

namespace csfc {

void EdfScheduler::Enqueue(Request r, const DispatchContext&) {
  by_deadline_.emplace(std::make_pair(r.deadline, r.arrival), std::move(r));
  ++size_;
}

std::optional<Request> EdfScheduler::Dispatch(const DispatchContext&) {
  if (by_deadline_.empty()) return std::nullopt;
  auto it = by_deadline_.begin();
  Request r = std::move(it->second);
  by_deadline_.erase(it);
  --size_;
  return r;
}

}  // namespace csfc
