// BUCKET (Haritsa, Carey & Livny, VLDB Journal '93): value-based
// scheduling for requests carrying both a value and a deadline. The value
// domain is split into buckets; buckets are served highest-value first and
// requests inside a bucket are served EDF. Designed for transaction
// scheduling, so it deliberately ignores the arm position — the property
// the paper exploits when showing Cascaded-SFC can *extend* BUCKET with an
// SFC3 stage (Section 4.3).
//
// Dimension 0 of the priority vector is the request value (level 0 = most
// valuable).

#ifndef CSFC_SCHED_BUCKET_H_
#define CSFC_SCHED_BUCKET_H_

#include <map>
#include <vector>

#include "common/annotations.h"
#include "sched/scheduler.h"

namespace csfc {

class BucketScheduler final : public Scheduler {
 public:
  /// `levels` distinct value levels, grouped into `buckets` buckets
  /// (buckets <= levels; levels divisible grouping by range).
  BucketScheduler(uint32_t levels, uint32_t buckets);

  std::string_view name() const override { return "bucket"; }
  void Enqueue(Request r, const DispatchContext& ctx) override;
  CSFC_HOT CSFC_DETERMINISTIC
  std::optional<Request> Dispatch(const DispatchContext& ctx) override;
  size_t queue_size() const override { return size_; }

 private:
  uint32_t BucketOf(PriorityLevel value_level) const;

  uint32_t levels_;
  uint32_t buckets_;
  // bucket index -> deadline-ordered requests; bucket 0 served first.
  std::vector<std::multimap<SimTime, Request>> queues_;
  size_t size_ = 0;
};

}  // namespace csfc

#endif  // CSFC_SCHED_BUCKET_H_
