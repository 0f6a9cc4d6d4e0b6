// Multi-queue priority scheduling (Carey, Jauhari & Livny, VLDB '89): one
// queue per priority level; the highest-priority non-empty queue is always
// served first; within a queue requests are served in SCAN (cylinder sweep)
// order. Uses dimension 0 of the request's priority vector.

#ifndef CSFC_SCHED_MULTI_QUEUE_H_
#define CSFC_SCHED_MULTI_QUEUE_H_

#include <map>
#include <vector>

#include "common/annotations.h"
#include "sched/scheduler.h"

namespace csfc {

class MultiQueueScheduler final : public Scheduler {
 public:
  explicit MultiQueueScheduler(uint32_t levels);

  std::string_view name() const override { return "multi-queue"; }
  void Enqueue(Request r, const DispatchContext& ctx) override;
  CSFC_HOT CSFC_DETERMINISTIC
  std::optional<Request> Dispatch(const DispatchContext& ctx) override;
  size_t queue_size() const override { return size_; }

 private:
  // queues_[level] is cylinder-ordered; level 0 = highest priority.
  std::vector<std::multimap<Cylinder, Request>> queues_;
  size_t size_ = 0;
};

}  // namespace csfc

#endif  // CSFC_SCHED_MULTI_QUEUE_H_
