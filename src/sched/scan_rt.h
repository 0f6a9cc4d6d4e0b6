// SCAN-RT (Kamel & Ito, '95): an arriving request is inserted into the
// service plan in SCAN order only when the insertion would not push any
// already-pending request past its deadline (estimated with the disk
// model); otherwise the newcomer is appended to the tail of the plan.
// The single-priority precursor of DDS.

#ifndef CSFC_SCHED_SCAN_RT_H_
#define CSFC_SCHED_SCAN_RT_H_

#include <vector>

#include "disk/disk_model.h"
#include "common/annotations.h"
#include "sched/scheduler.h"

namespace csfc {

class ScanRtScheduler final : public Scheduler {
 public:
  /// `disk` must outlive the scheduler.
  explicit ScanRtScheduler(const DiskModel* disk) : disk_(disk) {}

  std::string_view name() const override { return "scan-rt"; }
  void Enqueue(Request r, const DispatchContext& ctx) override;
  CSFC_HOT CSFC_DETERMINISTIC
  std::optional<Request> Dispatch(const DispatchContext& ctx) override;
  size_t queue_size() const override { return plan_.size(); }

 private:
  const DiskModel* disk_;
  std::vector<Request> plan_;
};

}  // namespace csfc

#endif  // CSFC_SCHED_SCAN_RT_H_
