// Shortest Seek Time First: always serves the pending request whose
// cylinder is nearest the head. Maximizes disk utilization, ignores
// deadlines and priorities, and can starve edge cylinders.

#ifndef CSFC_SCHED_SSTF_H_
#define CSFC_SCHED_SSTF_H_

#include <map>

#include "common/annotations.h"
#include "sched/scheduler.h"

namespace csfc {

class SstfScheduler final : public Scheduler {
 public:
  std::string_view name() const override { return "sstf"; }
  void Enqueue(Request r, const DispatchContext& ctx) override;
  CSFC_HOT CSFC_DETERMINISTIC
  std::optional<Request> Dispatch(const DispatchContext& ctx) override;
  size_t queue_size() const override { return size_; }

 private:
  // Cylinder-keyed multimap; requests on the same cylinder keep FIFO order.
  std::multimap<Cylinder, Request> by_cylinder_;
  size_t size_ = 0;
};

}  // namespace csfc

#endif  // CSFC_SCHED_SSTF_H_
