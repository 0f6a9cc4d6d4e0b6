#include "sched/ssed.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace csfc {

SsedScheduler::SsedScheduler(SsedVariant variant, uint32_t cylinders,
                             double alpha)
    : variant_(variant), cylinders_(cylinders),
      alpha_(std::clamp(alpha, 0.0, 1.0)) {}

void SsedScheduler::Enqueue(Request r, const DispatchContext&) {
  queue_.push_back(std::move(r));
}

std::optional<Request> SsedScheduler::Dispatch(const DispatchContext& ctx) {
  if (queue_.empty()) return std::nullopt;

  // Urgency normalization inputs. Both scratch vectors are fully
  // overwritten below before any element is read, so reusing them across
  // dispatches is safe.
  std::vector<size_t>& order = order_scratch_;
  order.resize(queue_.size());  // csfc:alloc-ok(scoring scratch reused across dispatches)
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  SimTime min_dl = kNoDeadline;
  SimTime max_dl = 0;
  if (variant_ == SsedVariant::kOrdering) {
    // queue_ is in arrival order, so a stable sort ranks equal deadlines
    // (every relaxed request shares kNoDeadline) by arrival; std::sort
    // would leave their order to the standard library.
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return queue_[a].deadline < queue_[b].deadline;
    });
  } else {
    for (const Request& r : queue_) {
      min_dl = std::min(min_dl, r.deadline);
      if (r.has_deadline()) max_dl = std::max(max_dl, r.deadline);
    }
  }
  std::vector<double>& urgency = urgency_scratch_;
  urgency.resize(queue_.size());  // csfc:alloc-ok(scoring scratch reused across dispatches)
  if (variant_ == SsedVariant::kOrdering) {
    for (size_t rank = 0; rank < order.size(); ++rank) {
      urgency[order[rank]] =
          order.size() > 1
              ? static_cast<double>(rank) / static_cast<double>(order.size() - 1)
              : 0.0;
    }
  } else {
    const double span =
        max_dl > min_dl ? static_cast<double>(max_dl - min_dl) : 1.0;
    for (size_t i = 0; i < queue_.size(); ++i) {
      urgency[i] = queue_[i].has_deadline()
                       ? static_cast<double>(queue_[i].deadline - min_dl) / span
                       : 1.0;
    }
  }

  size_t best = 0;
  double best_score = 0.0;
  for (size_t i = 0; i < queue_.size(); ++i) {
    const double dist = std::abs(static_cast<double>(queue_[i].cylinder) -
                                 static_cast<double>(ctx.head));
    const double seek = dist / static_cast<double>(cylinders_ - 1);
    const double score = alpha_ * urgency[i] + (1.0 - alpha_) * seek;
    if (i == 0 || score < best_score) {
      best = i;
      best_score = score;
    }
  }
  Request r = std::move(queue_[best]);
  queue_.erase(queue_.begin() + static_cast<ptrdiff_t>(best));
  return r;
}

}  // namespace csfc
