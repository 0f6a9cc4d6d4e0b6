// The time seam: every source of "now" outside the event-driven simulator
// goes through a Clock, the way every source of randomness goes through
// common/random. csfc_analyze's determinism-taint rule bans wall-clock
// reads in src/ outside this file, so real time can only enter the system
// here — code that takes a Clock& can be driven by the deterministic
// VirtualClock in tests and benches and by MonotonicClock only in the
// real-time service front-end (src/svc) and the CLIs.
//
// Timestamps are SimTime microseconds (common/types.h) in both cases, so
// the service layer's latency accounting is unit-identical whether a run
// is virtual (bit-reproducible) or wall-clock.

#ifndef CSFC_COMMON_CLOCK_H_
#define CSFC_COMMON_CLOCK_H_

#include <atomic>
#include <chrono>

#include "common/types.h"

namespace csfc {

/// Monotonic microsecond clock interface.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Current time in microseconds. Monotonic non-decreasing.
  virtual SimTime NowUs() = 0;
};

/// Deterministic clock: time moves only when something advances it.
/// Thread-safe — producers may read while a driver advances; Advance and
/// AdvanceTo are monotonic (time never goes backwards even when callers
/// race).
class VirtualClock final : public Clock {
 public:
  explicit VirtualClock(SimTime start = 0) : now_(start) {}

  SimTime NowUs() override { return now_.load(std::memory_order_acquire); }

  /// Moves time forward by `delta` (>= 0) and returns the new now.
  SimTime Advance(SimTime delta) {
    return now_.fetch_add(delta, std::memory_order_acq_rel) + delta;
  }

  /// Moves time forward to `t` if `t` is ahead; never rewinds.
  void AdvanceTo(SimTime t) {
    SimTime cur = now_.load(std::memory_order_relaxed);
    while (t > cur &&
           !now_.compare_exchange_weak(cur, t, std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
    }
  }

 private:
  /// Allowed memory orders per op are manifested in
  /// tools/csfc_analyze/concurrency.toml (row `now_`).
  std::atomic<SimTime> now_;
};

/// Real time: std::chrono::steady_clock, rebased so NowUs() starts near 0
/// at construction (keeps wall-clock timestamps in the same small-integer
/// range virtual runs produce, which the trace exporters format as-is).
class MonotonicClock final : public Clock {
 public:
  MonotonicClock() : epoch_(std::chrono::steady_clock::now()) {}

  SimTime NowUs() override {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

 private:
  const std::chrono::steady_clock::time_point epoch_;
};

}  // namespace csfc

#endif  // CSFC_COMMON_CLOCK_H_
