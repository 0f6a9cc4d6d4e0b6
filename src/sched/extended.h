// Section 4.3 (Extensibility): the Cascaded-SFC stages bolted onto
// existing schedulers.
//
//  * SfcDdsScheduler — DDS (Kamel et al., ICDE 2000) handles one priority
//    type; entering the multi-priority vector into SFC1 and using the
//    curve position as the request's absolute priority extends it to any
//    number of QoS dimensions, exactly as the paper proposes.
//
//  * SfcBucketScheduler — BUCKET (Haritsa et al.) ignores the arm
//    position; taking BUCKET's (value-bucket, deadline) order as the
//    priority-deadline axis of an SFC3 stage adds disk-utilization
//    awareness: each bucket is served in cylinder sweeps instead of pure
//    EDF order.

#ifndef CSFC_SCHED_EXTENDED_H_
#define CSFC_SCHED_EXTENDED_H_

#include <map>
#include <memory>
#include <vector>

#include "common/status.h"
#include "disk/disk_model.h"
#include "sched/dds.h"
#include "common/annotations.h"
#include "sched/scheduler.h"
#include "sfc/curve.h"

namespace csfc {

/// DDS extended with an SFC1 stage: the request's multi-dimensional
/// priority vector is mapped to a single absolute priority level through a
/// space-filling curve, and the underlying DDS demotes victims by that
/// level.
class SfcDdsScheduler final : public Scheduler {
 public:
  /// `sfc1` is a registry curve name over (dims x bits); `disk` must
  /// outlive the scheduler.
  static Result<std::unique_ptr<SfcDdsScheduler>> Create(
      const DiskModel* disk, std::string_view sfc1, uint32_t dims,
      uint32_t bits);

  std::string_view name() const override { return "sfc-dds"; }
  void Enqueue(Request r, const DispatchContext& ctx) override;
  CSFC_HOT CSFC_DETERMINISTIC
  std::optional<Request> Dispatch(const DispatchContext& ctx) override;
  size_t queue_size() const override { return inner_.queue_size(); }

  /// The absolute priority level SFC1 assigns to `r` (exposed for tests).
  PriorityLevel AbsolutePriority(const Request& r) const;

 private:
  SfcDdsScheduler(const DiskModel* disk, CurvePtr curve);

  CurvePtr curve_;
  DdsScheduler inner_;
};

/// BUCKET extended with an SFC3 stage: buckets are served highest-value
/// first as before, but within a bucket the requests whose deadlines fall
/// in the same urgency band are served in a cylinder sweep instead of pure
/// deadline order.
class SfcBucketScheduler final : public Scheduler {
 public:
  /// `levels` value levels grouped into `buckets`; deadlines inside a
  /// bucket are banded at `urgency_band` granularity (a SCAN-EDF-style
  /// trade; 0 = exact deadlines, degenerating to plain BUCKET).
  SfcBucketScheduler(uint32_t levels, uint32_t buckets,
                     SimTime urgency_band);

  std::string_view name() const override { return "sfc-bucket"; }
  void Enqueue(Request r, const DispatchContext& ctx) override;
  CSFC_HOT CSFC_DETERMINISTIC
  std::optional<Request> Dispatch(const DispatchContext& ctx) override;
  size_t queue_size() const override { return size_; }

 private:
  uint32_t BucketOf(PriorityLevel value_level) const;
  SimTime Band(SimTime deadline) const;

  uint32_t levels_;
  uint32_t buckets_;
  SimTime urgency_band_;
  // bucket -> urgency band -> cylinder-ordered requests.
  std::vector<std::map<SimTime, std::multimap<Cylinder, Request>>> queues_;
  size_t size_ = 0;
};

}  // namespace csfc

#endif  // CSFC_SCHED_EXTENDED_H_
