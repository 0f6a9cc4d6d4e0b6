// Earliest Deadline First (Liu & Layland): serves the pending request with
// the smallest deadline; relaxed-deadline requests sort last (by arrival).
// Minimizes deadline losses under light load but ignores the arm position,
// destroying disk utilization — the trade-off SFC2/SFC3 of the
// Cascaded-SFC scheduler navigates.

#ifndef CSFC_SCHED_EDF_H_
#define CSFC_SCHED_EDF_H_

#include <map>

#include "common/annotations.h"
#include "sched/scheduler.h"

namespace csfc {

class EdfScheduler final : public Scheduler {
 public:
  std::string_view name() const override { return "edf"; }
  void Enqueue(Request r, const DispatchContext& ctx) override;
  CSFC_HOT CSFC_DETERMINISTIC
  std::optional<Request> Dispatch(const DispatchContext& ctx) override;
  size_t queue_size() const override { return size_; }

 private:
  // (deadline, arrival) keyed; FIFO among exact ties via multimap order.
  std::multimap<std::pair<SimTime, SimTime>, Request> by_deadline_;
  size_t size_ = 0;
};

}  // namespace csfc

#endif  // CSFC_SCHED_EDF_H_
