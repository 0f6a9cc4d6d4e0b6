#include "sched/fcfs.h"

#include <utility>

namespace csfc {

void FcfsScheduler::Enqueue(Request r, const DispatchContext&) {
  queue_.push_back(std::move(r));
}

std::optional<Request> FcfsScheduler::Dispatch(const DispatchContext&) {
  if (queue_.empty()) return std::nullopt;
  Request r = std::move(queue_.front());
  queue_.pop_front();
  return r;
}

}  // namespace csfc
