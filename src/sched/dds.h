// DDS — the deadline-driven scheduler of Kamel, Niranjan & Ghandeharizadeh
// (ICDE 2000), the algorithm running in the PanaViss server this paper
// builds on. An arriving request is inserted into the service plan in SCAN
// order; if the insertion pushes any pending deadline past feasibility
// (checked with service-time estimates from the disk model), the
// lowest-priority request in the plan is demoted to the tail — one victim
// per arrival, as the paper describes.
//
// Dimension 0 of the priority vector is the request priority (level 0 =
// most important, demoted last).

#ifndef CSFC_SCHED_DDS_H_
#define CSFC_SCHED_DDS_H_

#include <vector>

#include "disk/disk_model.h"
#include "common/annotations.h"
#include "sched/scheduler.h"

namespace csfc {

class DdsScheduler final : public Scheduler {
 public:
  /// `disk` must outlive the scheduler.
  explicit DdsScheduler(const DiskModel* disk) : disk_(disk) {}

  std::string_view name() const override { return "dds"; }
  /// Plans `r` with its dimension-0 level as its victim level.
  void Enqueue(Request r, const DispatchContext& ctx) override;
  /// Plans `r` with an explicit victim level (larger = demoted first), as
  /// SfcDdsScheduler does with its SFC1 level; `r` leaves unchanged.
  void EnqueueRanked(Request r, PriorityLevel victim_level,
                     const DispatchContext& ctx);
  CSFC_HOT CSFC_DETERMINISTIC
  std::optional<Request> Dispatch(const DispatchContext& ctx) override;
  size_t queue_size() const override { return plan_.size(); }

 private:
  struct Planned {
    Request req;
    PriorityLevel victim_level = 0;
  };
  static const Request& RequestOf(const Planned& p) { return p.req; }

  const DiskModel* disk_;
  std::vector<Planned> plan_;  // service order; front is served next
};

}  // namespace csfc

#endif  // CSFC_SCHED_DDS_H_
