// The scheduler interface every disk-scheduling policy implements —
// baselines (FCFS, SSTF, SCAN family, EDF, SCAN-EDF, FD-SCAN, SCAN-RT,
// SSEDO/SSEDV, multi-queue, BUCKET, DDS) and the Cascaded-SFC scheduler.
//
// The simulator pushes arrivals with Enqueue() and pulls the next request
// to serve with Dispatch() whenever the disk goes idle. Schedulers own all
// ordering state (e.g. the SCAN direction); the context carries the
// observable disk state.

#ifndef CSFC_SCHED_SCHEDULER_H_
#define CSFC_SCHED_SCHEDULER_H_

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <utility>

#include "common/types.h"
#include "workload/request.h"

namespace csfc {

namespace obs {
class Tracer;
}  // namespace obs

/// Disk state visible to a scheduler at enqueue/dispatch time.
struct DispatchContext {
  /// Current simulation time.
  SimTime now = 0;
  /// Cylinder under the head (position after the most recent transfer).
  Cylinder head = 0;
};

/// Abstract disk scheduling policy.
class Scheduler {
 public:
  virtual ~Scheduler() = default;

  /// Policy name for reports ("edf", "cascaded-sfc[hilbert,...]", ...).
  virtual std::string_view name() const = 0;

  /// Accepts an arriving request. Taken by value: the simulator moves each
  /// arrival in, and implementations move it on into their queue state, so
  /// the ~100-byte payload is never copied on the generator->queue path.
  /// Callers that still need the request afterwards pass an lvalue and pay
  /// exactly one copy at the call site.
  virtual void Enqueue(Request r, const DispatchContext& ctx) = 0;

  /// Accepts a batch of arrivals sharing one dispatch context. The default
  /// simply loops Enqueue; policies with batch characterization kernels
  /// (the cascaded scheduler's Encapsulator::CharacterizeBatch) override it
  /// so per-batch invariants are hoisted once instead of per request. The
  /// service front-end's drain path feeds ring batches through this.
  /// Requests are consumed (moved from); the span's payloads are dead
  /// after the call.
  virtual void EnqueueBatch(std::span<Request> batch,
                            const DispatchContext& ctx) {
    for (Request& r : batch) Enqueue(std::move(r), ctx);
  }

  /// Removes and returns the next request to serve, or nullopt if no
  /// request is pending. Implementations move the payload out of their
  /// queue state (the queue->service path is copy-free too).
  virtual std::optional<Request> Dispatch(const DispatchContext& ctx) = 0;

  /// Number of pending requests.
  virtual size_t queue_size() const = 0;

  /// Observability hook. The simulator calls this at the start of every
  /// Run with the run's tracer; policies with internal state worth
  /// tracing (the cascaded scheduler's per-stage characterization, SP
  /// promotions, ER resets) override it and emit obs::TraceEvents during
  /// subsequent Enqueue/Dispatch calls. Contract:
  ///
  ///  * The default is a no-op — baselines (FCFS, the SCAN family, EDF,
  ///    ...) need no changes and pay nothing.
  ///  * `tracer` is borrowed, not owned. It stays valid until the next
  ///    Observe call; implementations must drop any stored reference when
  ///    Observe is called again (the new tracer replaces the old).
  ///  * The tracer may be disabled (enabled() == false). Implementations
  ///    must guard event construction behind enabled() so a disabled
  ///    tracer costs at most one branch per emission site.
  ///  * Observe may be called multiple times over a scheduler's life (one
  ///    per simulator Run); each call starts a new trace scope.
  virtual void Observe(obs::Tracer& tracer) { (void)tracer; }
};

using SchedulerPtr = std::unique_ptr<Scheduler>;

/// Factory signature used by the experiment harness so a fresh scheduler
/// can be built per simulation run.
using SchedulerFactory = std::function<SchedulerPtr()>;

}  // namespace csfc

#endif  // CSFC_SCHED_SCHEDULER_H_
