// Reference FD-SCAN: the original dispatch, which tests every deadline
// from the earliest and finds each deadline's request by scanning the
// cylinder index for its id. Kept verbatim as the oracle for
// FdScanScheduler's indexed dispatch; it is not used on any production
// path (its dispatch cost grows with the square of the queue depth).

#ifndef CSFC_TESTS_SCHED_REFERENCE_FD_SCAN_H_
#define CSFC_TESTS_SCHED_REFERENCE_FD_SCAN_H_

#include <iterator>
#include <map>
#include <optional>
#include <utility>

#include "disk/disk_model.h"
#include "sched/scheduler.h"

namespace csfc {

class ReferenceFdScanScheduler {
 public:
  explicit ReferenceFdScanScheduler(const DiskModel* disk) : disk_(disk) {}

  void Enqueue(Request r, const DispatchContext&) {
    if (r.has_deadline()) by_deadline_.emplace(r.deadline, r.id);
    by_cylinder_.emplace(r.cylinder, std::move(r));
    ++size_;
  }

  std::optional<Request> Dispatch(const DispatchContext& ctx) {
    if (by_cylinder_.empty()) return std::nullopt;

    // Find the earliest feasible deadline and its cylinder.
    const Request* target = nullptr;
    for (const auto& [deadline, id] : by_deadline_) {
      // Locate the request by scanning its deadline peers (ids are unique).
      for (auto it = by_cylinder_.begin(); it != by_cylinder_.end(); ++it) {
        if (it->second.id == id) {
          if (EstimateFinish(it->second, ctx) <= deadline) {
            target = &it->second;
          }
          break;
        }
      }
      if (target != nullptr) break;
    }

    auto take = [&](std::multimap<Cylinder, Request>::iterator it) {
      Request r = std::move(it->second);
      by_cylinder_.erase(it);
      for (auto dit = by_deadline_.lower_bound(r.deadline);
           dit != by_deadline_.end() && dit->first == r.deadline; ++dit) {
        if (dit->second == r.id) {
          by_deadline_.erase(dit);
          break;
        }
      }
      --size_;
      return r;
    };

    if (target == nullptr) {
      // No feasible deadline: fall back to nearest-first (SSTF move).
      auto above = by_cylinder_.lower_bound(ctx.head);
      auto chosen = above != by_cylinder_.end() ? above : std::prev(above);
      if (above != by_cylinder_.begin() && above != by_cylinder_.end()) {
        auto below = std::prev(above);
        if (ctx.head - below->first < above->first - ctx.head) chosen = below;
      } else if (above == by_cylinder_.end()) {
        chosen = std::prev(by_cylinder_.end());
      }
      return take(chosen);
    }

    // Serve the first pending request en route toward the target
    // (including the target itself when nothing is closer in that
    // direction).
    if (target->cylinder >= ctx.head) {
      auto it = by_cylinder_.lower_bound(ctx.head);  // first at/after head
      return take(it);
    }
    auto it = by_cylinder_.upper_bound(ctx.head);
    return take(std::prev(it));  // first at/below head going down
  }

  size_t queue_size() const { return size_; }

 private:
  // Estimated completion time if the head went straight to `r` now.
  SimTime EstimateFinish(const Request& r, const DispatchContext& ctx) const {
    const double ms = disk_->SeekTimeMs(ctx.head, r.cylinder) +
                      disk_->AvgRotationalLatencyMs() +
                      disk_->TransferTimeMs(r.cylinder, r.bytes);
    return ctx.now + MsToSim(ms);
  }

  const DiskModel* disk_;
  std::multimap<Cylinder, Request> by_cylinder_;
  std::multimap<SimTime, RequestId> by_deadline_;  // deadline -> id index
  size_t size_ = 0;
};

}  // namespace csfc

#endif  // CSFC_TESTS_SCHED_REFERENCE_FD_SCAN_H_
