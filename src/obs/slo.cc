#include "obs/slo.h"

#include <algorithm>

namespace csfc {
namespace obs {

SloMetrics::SloMetrics(double window_ms)
    : window_ms_(window_ms > 0.0 ? window_ms : 100.0),
      window_span_(std::max<SimTime>(MsToSim(window_ms_), 1)) {}

SloWindowRow SloMetrics::OpenRow() const {
  SloWindowRow row = current_;
  row.p50_ms = SimToMs(static_cast<SimTime>(window_hist_.Quantile(0.5)));
  row.p99_ms = SimToMs(static_cast<SimTime>(window_hist_.Quantile(0.99)));
  row.p999_ms = SimToMs(static_cast<SimTime>(window_hist_.Quantile(0.999)));
  row.max_ms = SimToMs(window_hist_.max());
  return row;
}

void SloMetrics::AdvanceTo(SimTime t) {
  const int64_t index = t / window_span_;
  if (started_ && index <= current_index_) return;
  if (started_) {
    closed_.push_back(Window{current_index_, OpenRow()});
    current_ = SloWindowRow{};
    window_hist_.Reset();
  }
  started_ = true;
  current_index_ = index;
  current_.start_ms = SimToMs(current_index_ * window_span_);
}

void SloMetrics::OnEvent(const TraceEvent& e) {
  AdvanceTo(e.t);
  switch (e.kind) {
    case TraceEventKind::kIngest:
      ++current_.offered;
      break;
    case TraceEventKind::kAdmit:
      ++current_.admitted;
      break;
    case TraceEventKind::kReject:
      ++current_.rejected;
      switch (e.reject) {
        case RejectReason::kRate:
          ++current_.rejected_rate;
          break;
        case RejectReason::kLoad:
          ++current_.rejected_load;
          break;
        case RejectReason::kRingFull:
          ++current_.rejected_ring_full;
          break;
        case RejectReason::kNone:
          break;
      }
      break;
    case TraceEventKind::kDrain: {
      ++current_.drains;
      const SimTime wait_us = MsToSim(e.wait_ms);
      window_hist_.Add(wait_us);
      overall_.Add(wait_us);
      break;
    }
    default:
      break;
  }
}

Status SloMetrics::ForEachRow(
    FunctionRef<Status(const SloWindowRow&)> visit) const {
  if (!started_) return Status::OK();
  int64_t next = closed_.empty() ? current_index_ : closed_.front().index;
  // Visits the gap windows before `index`, then `row`.
  auto visit_through = [&](int64_t index, const SloWindowRow& row) {
    for (; next < index; ++next) {
      SloWindowRow gap;
      gap.start_ms = SimToMs(next * window_span_);
      if (Status s = visit(gap); !s.ok()) return s;
    }
    ++next;
    return visit(row);
  };
  for (const Window& w : closed_) {
    if (Status s = visit_through(w.index, w.row); !s.ok()) return s;
  }
  return visit_through(current_index_, OpenRow());
}

}  // namespace obs
}  // namespace csfc
