// SSEDO / SSEDV (Chen, Stankovic, Kurose, Towsley — Real-Time Systems '91):
// "Shortest Seek and Earliest Deadline by Ordering / by Value". Both blend
// urgency with arm proximity; a request with a later deadline can win if it
// sits very close to the arm.
//
//   SSEDO: urgency = the request's rank in deadline order (ordinal).
//   SSEDV: urgency = the request's time-to-deadline (value).
//
// score = alpha * normalized_urgency + (1 - alpha) * normalized_seek.
// The request with the lowest score is served. alpha = 1 degenerates to
// EDF; alpha = 0 to SSTF.

#ifndef CSFC_SCHED_SSED_H_
#define CSFC_SCHED_SSED_H_

#include <vector>

#include "common/annotations.h"
#include "sched/scheduler.h"

namespace csfc {

/// Urgency flavor: by deadline rank (SSEDO) or by deadline value (SSEDV).
enum class SsedVariant { kOrdering, kValue };

class SsedScheduler final : public Scheduler {
 public:
  /// `cylinders` normalizes seek distances; `alpha` in [0,1] weighs urgency
  /// against proximity (the papers' W parameter).
  SsedScheduler(SsedVariant variant, uint32_t cylinders, double alpha = 0.8);

  std::string_view name() const override {
    return variant_ == SsedVariant::kOrdering ? "ssedo" : "ssedv";
  }
  void Enqueue(Request r, const DispatchContext& ctx) override;
  CSFC_HOT CSFC_DETERMINISTIC
  std::optional<Request> Dispatch(const DispatchContext& ctx) override;
  size_t queue_size() const override { return queue_.size(); }

 private:
  SsedVariant variant_;
  uint32_t cylinders_;
  double alpha_;
  std::vector<Request> queue_;  // unsorted; scored at dispatch
  /// Dispatch-time scoring scratch (deadline ranks and per-request
  /// urgency), reused across dispatches so scoring settles to zero
  /// allocations at steady queue depth.
  std::vector<size_t> order_scratch_;
  std::vector<double> urgency_scratch_;
};

}  // namespace csfc

#endif  // CSFC_SCHED_SSED_H_
