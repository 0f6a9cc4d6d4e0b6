// The SCAN service plan that DDS (sched/dds.h), its SFC extension and
// SCAN-RT (sched/scan_rt.h) share: a vector served front to back, into
// which an arrival is inserted in C-SCAN order and whose deadlines are
// checked with the disk model's service-time estimates. `req_of` says how
// a plan element gives its Request.

#ifndef CSFC_SCHED_SCAN_PLAN_H_
#define CSFC_SCHED_SCAN_PLAN_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "disk/disk_model.h"
#include "sched/scheduler.h"

namespace csfc {

/// Where a request for `cyl` goes in C-SCAN order from the head: before
/// the first element further along the upward sweep (with wraparound),
/// so equal positions stay in arrival order.
template <typename Element, typename ReqOf>
typename std::vector<Element>::iterator ScanSlot(std::vector<Element>& plan,
                                                 const DiskModel& disk,
                                                 Cylinder cyl, Cylinder head,
                                                 ReqOf req_of) {
  const uint32_t cylinders = disk.params().cylinders;
  const auto key = [&](Cylinder c) -> uint64_t {
    return c >= head ? c - head : static_cast<uint64_t>(c) + cylinders - head;
  };
  const uint64_t k = key(cyl);
  return std::find_if(plan.begin(), plan.end(), [&](const Element& e) {
    return key(req_of(e).cylinder) > k;
  });
}

/// True iff serving `plan` in order from `ctx` meets every deadline
/// (estimated seek + expected latency + transfer per step).
template <typename Element, typename ReqOf>
bool PlanFeasible(const std::vector<Element>& plan, const DiskModel& disk,
                  const DispatchContext& ctx, ReqOf req_of) {
  SimTime clock = ctx.now;
  Cylinder head = ctx.head;
  for (const Element& e : plan) {
    const Request& r = req_of(e);
    const double ms = disk.ServiceTimeMs(head, r.cylinder, r.bytes);
    clock = AddSaturating(clock, MsToSim(ms));
    if (r.has_deadline() && clock > r.deadline) return false;
    head = r.cylinder;
  }
  return true;
}

}  // namespace csfc

#endif  // CSFC_SCHED_SCAN_PLAN_H_
