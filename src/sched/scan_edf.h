// SCAN-EDF (Reddy & Wyllie, ACM Multimedia '93): requests are served in
// deadline order; requests whose deadlines fall within the same batching
// window are served in SCAN order instead, recovering seek efficiency
// among equal-urgency requests. `deadline_granularity` controls the
// batching window (0 = exact-tie grouping only).

#ifndef CSFC_SCHED_SCAN_EDF_H_
#define CSFC_SCHED_SCAN_EDF_H_

#include <map>

#include "common/annotations.h"
#include "sched/scheduler.h"

namespace csfc {

class ScanEdfScheduler final : public Scheduler {
 public:
  explicit ScanEdfScheduler(SimTime deadline_granularity = 0)
      : granularity_(deadline_granularity) {}

  std::string_view name() const override { return "scan-edf"; }
  void Enqueue(Request r, const DispatchContext& ctx) override;
  CSFC_HOT CSFC_DETERMINISTIC
  std::optional<Request> Dispatch(const DispatchContext& ctx) override;
  size_t queue_size() const override { return size_; }

 private:
  SimTime Bucket(SimTime deadline) const {
    if (granularity_ <= 0) return deadline;
    return deadline / granularity_;
  }

  SimTime granularity_;
  // Outer key: deadline bucket; inner: cylinder-ordered requests.
  std::map<SimTime, std::multimap<Cylinder, Request>> buckets_;
  size_t size_ = 0;
};

}  // namespace csfc

#endif  // CSFC_SCHED_SCAN_EDF_H_
