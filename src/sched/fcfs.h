// First-Come First-Served: requests are served strictly in arrival order.
// The fairness baseline; also the normalization base for the paper's
// priority-inversion metric (Section 5.1).

#ifndef CSFC_SCHED_FCFS_H_
#define CSFC_SCHED_FCFS_H_

#include <deque>

#include "common/annotations.h"
#include "sched/scheduler.h"

namespace csfc {

class FcfsScheduler final : public Scheduler {
 public:
  std::string_view name() const override { return "fcfs"; }
  void Enqueue(Request r, const DispatchContext& ctx) override;
  CSFC_HOT CSFC_DETERMINISTIC
  std::optional<Request> Dispatch(const DispatchContext& ctx) override;
  size_t queue_size() const override { return queue_.size(); }

 private:
  std::deque<Request> queue_;
};

}  // namespace csfc

#endif  // CSFC_SCHED_FCFS_H_
