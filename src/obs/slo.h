// SloMetrics: windowed service-level objective tracking over the
// service-front-end event stream (ingest / admit / reject / drain). Per
// fixed-width window it accumulates the offered/admitted/shed counts and
// a log-bucketed histogram of the drain events' enqueue-to-dispatch
// latency, reporting p50/p99/p999/max per window — the "is the tail
// holding" view a whole-run aggregate cannot give (e.g. the p999 spike in
// exactly the window where a burst landed).
//
// Thread-compatible like the other in-memory sinks: one SloMetrics per
// event stream, or wrap in obs::LockedSink when producers emit directly
// (the service front-end instead funnels all events through its
// dispatcher thread, so the usual setup needs no lock).

#ifndef CSFC_OBS_SLO_H_
#define CSFC_OBS_SLO_H_

#include <cstdint>
#include <vector>

#include "common/function_ref.h"
#include "common/histogram.h"
#include "common/status.h"
#include "obs/trace_event.h"

namespace csfc {
namespace obs {

/// SLO counters for one time window [start_ms, start_ms + width).
struct SloWindowRow {
  double start_ms = 0.0;
  uint64_t offered = 0;    ///< ingest events
  uint64_t admitted = 0;   ///< admit events
  uint64_t rejected = 0;   ///< reject events, all reasons
  uint64_t rejected_rate = 0;
  uint64_t rejected_load = 0;
  uint64_t rejected_ring_full = 0;
  uint64_t drains = 0;     ///< drain events (requests handed to service)
  double p50_ms = 0.0;     ///< wait-latency percentiles over this window
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;

  /// Fraction of offered requests shed this window.
  double shed_rate() const {
    return offered == 0
               ? 0.0
               : static_cast<double>(rejected) / static_cast<double>(offered);
  }
};

class SloMetrics : public EventSink {
 public:
  explicit SloMetrics(double window_ms = 100.0);

  void OnEvent(const TraceEvent& event) override;

  /// Visits every window from the first event's to the latest one's, in
  /// time order. A window that saw no event is visited as a zero-count
  /// row, so the series is plottable as-is, but only windows that saw an
  /// event are stored: memory grows with events, not with run time over
  /// window width. Stops at, and returns, the first error `visit` returns.
  Status ForEachRow(FunctionRef<Status(const SloWindowRow&)> visit) const;

  /// Whole-run latency distribution across every window.
  const LogHistogram& overall() const { return overall_; }

  double window_ms() const { return window_ms_; }

 private:
  /// A closed window that saw an event; `index` is its start / span.
  struct Window {
    int64_t index;
    SloWindowRow row;
  };

  void AdvanceTo(SimTime t);
  /// The open window's row, its percentiles read from window_hist_.
  SloWindowRow OpenRow() const;

  double window_ms_;
  SimTime window_span_;
  int64_t current_index_ = 0;
  bool started_ = false;
  SloWindowRow current_;
  LogHistogram window_hist_;  ///< wait samples (us) of the open window
  LogHistogram overall_;
  std::vector<Window> closed_;
};

}  // namespace obs
}  // namespace csfc

#endif  // CSFC_OBS_SLO_H_
