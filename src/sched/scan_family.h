// The elevator family: SCAN (sweep both directions, to the physical edge),
// LOOK (sweep both directions, reverse at the last pending request), C-SCAN
// and C-LOOK (serve in one direction only; jump back and sweep again).
// Classical seek-optimizing baselines (Denning 1967); C-SCAN is also the
// normalization base for Figure 10.

#ifndef CSFC_SCHED_SCAN_FAMILY_H_
#define CSFC_SCHED_SCAN_FAMILY_H_

#include <map>

#include "common/annotations.h"
#include "sched/scheduler.h"

namespace csfc {

/// Which member of the elevator family.
enum class ScanVariant { kScan, kLook, kCScan, kCLook };

class ScanScheduler final : public Scheduler {
 public:
  /// `cylinders` is the disk size (needed by kScan to know the edges).
  ScanScheduler(ScanVariant variant, uint32_t cylinders);

  std::string_view name() const override;
  void Enqueue(Request r, const DispatchContext& ctx) override;
  CSFC_HOT CSFC_DETERMINISTIC
  std::optional<Request> Dispatch(const DispatchContext& ctx) override;
  size_t queue_size() const override { return size_; }

  /// Current sweep direction (+1 toward higher cylinders). Exposed for
  /// tests.
  int direction() const { return direction_; }

 private:
  ScanVariant variant_;
  uint32_t cylinders_;
  int direction_ = +1;
  std::multimap<Cylinder, Request> by_cylinder_;
  size_t size_ = 0;
};

}  // namespace csfc

#endif  // CSFC_SCHED_SCAN_FAMILY_H_
