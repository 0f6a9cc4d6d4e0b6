// LockedSink: a thread-safe EventSink adapter for parallel sweeps.
//
// An unlocked sink (SloMetrics, or a test's event vector) is
// single-threaded by contract — one sink per simulator run. When a
// parallel sweep (exp::RunParallel) wants one merged event stream instead
// of one sink per point, LockedSink serializes OnEvent calls from all
// worker threads into the wrapped sink under an annotated Mutex, so the
// sharing is proven safe by -Wthread-safety and exercised under TSan by
// tests/common/parallel_stress_test.cc.
//
// Events from different points interleave in wall-clock order, not
// simulation order: the merged stream is a fan-in, not a trace of one run,
// so per-request lifecycle ordering only holds per point. Use one sink
// per point when the downstream consumer (trace_inspect) needs ordering.

#ifndef CSFC_OBS_LOCKED_SINK_H_
#define CSFC_OBS_LOCKED_SINK_H_

#include <cstdint>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/trace_event.h"

namespace csfc {
namespace obs {

class LockedSink : public EventSink {
 public:
  /// Wraps `sink` (not owned; must outlive this adapter). The wrapped
  /// sink's OnEvent only ever runs with mu_ held.
  explicit LockedSink(EventSink& sink) : sink_(&sink) {}

  void OnEvent(const TraceEvent& event) EXCLUDES(mu_) override {
    MutexLock lock(mu_);
    ++forwarded_;
    sink_->OnEvent(event);
  }

  /// Events forwarded so far (settled once no emitter is running).
  uint64_t forwarded() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return forwarded_;
  }

 private:
  mutable Mutex mu_;
  EventSink* const sink_ PT_GUARDED_BY(mu_);
  uint64_t forwarded_ GUARDED_BY(mu_) = 0;
};

}  // namespace obs
}  // namespace csfc

#endif  // CSFC_OBS_LOCKED_SINK_H_
