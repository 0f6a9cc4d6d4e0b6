// FD-SCAN (Abbott & Garcia-Molina, RTSS '89): at each scheduling point the
// arm targets the request with the earliest *feasible* deadline — one the
// disk can still reach in time, estimated with the seek model — and serves
// requests encountered en route toward that target. If no deadline is
// feasible, the nearest request is served (pure seek optimization).

#ifndef CSFC_SCHED_FD_SCAN_H_
#define CSFC_SCHED_FD_SCAN_H_

#include <map>

#include "disk/disk_model.h"
#include "common/annotations.h"
#include "sched/scheduler.h"

namespace csfc {

class FdScanScheduler final : public Scheduler {
 public:
  /// `disk` must outlive the scheduler (used for feasibility estimates).
  explicit FdScanScheduler(const DiskModel* disk) : disk_(disk) {}

  std::string_view name() const override { return "fd-scan"; }
  void Enqueue(Request r, const DispatchContext& ctx) override;
  CSFC_HOT CSFC_DETERMINISTIC
  std::optional<Request> Dispatch(const DispatchContext& ctx) override;
  size_t queue_size() const override { return by_cylinder_.size(); }

 private:
  using ByCylinder = std::multimap<Cylinder, Request>;

  // Estimated completion time if the head went straight to `r` now.
  SimTime EstimateFinish(const Request& r, const DispatchContext& ctx) const;
  // Removes a pending request from both indexes and returns it.
  Request Take(ByCylinder::iterator it);

  const DiskModel* disk_;
  ByCylinder by_cylinder_;
  // Deadline -> the request that owns it. Multimap iterators stay valid
  // until their own entry is erased.
  std::multimap<SimTime, ByCylinder::iterator> by_deadline_;
};

}  // namespace csfc

#endif  // CSFC_SCHED_FD_SCAN_H_
