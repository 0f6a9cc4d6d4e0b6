// Experiment harness: capture a workload once, replay it through any
// number of schedulers under identical conditions, and normalize metrics
// against a baseline run — the methodology behind every figure in
// Section 5/6 (priority inversion as % of FIFO, losses normalized to EDF
// or C-SCAN, etc.).
//
// Every (scheduler, workload) point is an independent simulation with its
// own simulator, scheduler instance and deterministic trace, so sweeps
// parallelize trivially: RunParallel fans a point list out across a thread
// pool and returns results ordered by point index — identical to running
// the same list serially, just faster.

#ifndef CSFC_EXP_RUNNER_H_
#define CSFC_EXP_RUNNER_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "sched/scheduler.h"
#include "sim/simulator.h"
#include "workload/trace.h"

namespace csfc {

/// Shared, immutable trace handle so parallel points can replay the same
/// workload without copying it per point.
using TracePtr = std::shared_ptr<const std::vector<Request>>;

/// Wraps a trace for sharing across points.
inline TracePtr ShareTrace(std::vector<Request> trace) {
  return std::make_shared<const std::vector<Request>>(std::move(trace));
}

/// Runs `factory`'s scheduler on a fresh simulator built from
/// `sim_config`, pulling arrivals from `gen` as the run reaches them (the
/// workload is never materialized). Consumes `gen`.
Result<RunMetrics> RunScheduler(const SimulatorConfig& sim_config,
                                RequestGenerator& gen,
                                const SchedulerFactory& factory);

/// RunScheduler over a replay of `trace`, which is borrowed, not copied.
Result<RunMetrics> RunSchedulerOnTrace(const SimulatorConfig& sim_config,
                                       const std::vector<Request>& trace,
                                       const SchedulerFactory& factory);

/// Percentage helper: 100 * value / base (0 when base is 0).
double Percent(double value, double base);

/// One independent simulation point in a sweep.
struct RunPoint {
  SimulatorConfig sim_config;
  TracePtr trace;
  SchedulerFactory factory;
};

/// Shared progress/early-abort state for RunParallel. Every field is an
/// atomic — never a plain aggregate — so the cross-thread publication is
/// explicit to both ThreadSanitizer and `-Wthread-safety` (atomics need
/// no capability; a plain counter here would be the exact "shared mutable
/// aggregate" gap ROADMAP warned about). Writers are the worker threads;
/// any thread (a UI poller, a deadline watchdog) may read `started` /
/// `completed` or flip `abort` while the sweep runs.
struct RunProgress {
  // All three are relaxed by contract (rows `started` / `completed` /
  // `abort` in tools/csfc_analyze/concurrency.toml): they publish no
  // data — results travel through ThreadPool::Wait's mutex.
  /// Points whose simulation has begun (monotonic, <= points.size()).
  std::atomic<size_t> started{0};
  /// Points whose simulation has finished, success or failure (monotonic,
  /// <= started).
  std::atomic<size_t> completed{0};
  /// Set to stop the sweep early: points not yet started are skipped and
  /// RunParallel returns Status::Cancelled. Points already in flight run
  /// to completion (a simulation point is not interruptible mid-run).
  std::atomic<bool> abort{false};

  void RequestAbort() { abort.store(true, std::memory_order_relaxed); }
  bool aborted() const { return abort.load(std::memory_order_relaxed); }
};

/// Runs every point, fanning them out across `num_threads` workers (0 =
/// one per hardware thread, 1 = serial on the calling thread). Results are
/// ordered by point index and identical to a serial run — the threading
/// only reassigns which core executes which point. On failure the error of
/// the lowest-index failing point is returned.
///
/// Concurrency contract: each point's simulator/scheduler/RNG are built
/// and destroyed on the worker that runs it; the only cross-thread state
/// is the annotated ThreadPool queue, the per-point result slots (disjoint
/// indices, published by ThreadPool::Wait's release/acquire on the pool
/// mutex), the optional `progress` atomics, and whatever
/// `sim_config.trace_sink` points at — which must therefore be null,
/// per-point, or a lockable sink (obs::LockedSink / JsonlSink).
///
/// `progress` (optional, borrowed, must outlive the call) publishes
/// started/completed counts while the sweep runs and accepts an abort
/// request from any thread. On abort, points not yet started are skipped
/// and the call returns Status::Cancelled (point errors that occurred
/// before the abort still win, lowest index first, so an abort can never
/// mask a failure).
CSFC_DETERMINISTIC
Result<std::vector<RunMetrics>> RunParallel(const std::vector<RunPoint>& points,
                                            unsigned num_threads = 0,
                                            RunProgress* progress = nullptr);

/// A labelled scheduler entry for comparison sweeps.
struct SchedulerEntry {
  std::string label;
  SchedulerFactory factory;
};

/// Result of ComparePolicies for one entry.
struct ComparisonRow {
  std::string label;
  RunMetrics metrics;
};

/// Runs every entry over the same trace, `num_threads` entries at a time
/// (0 = one per hardware thread, 1 = serial). Row order always matches
/// `entries`.
Result<std::vector<ComparisonRow>> ComparePolicies(
    const SimulatorConfig& sim_config, const std::vector<Request>& trace,
    const std::vector<SchedulerEntry>& entries, unsigned num_threads = 1);

}  // namespace csfc

#endif  // CSFC_EXP_RUNNER_H_
