// ServiceServer: the real-time service front-end over any Scheduler.
//
// Producer threads Offer() requests; each offer runs the admission gates
// (svc/admission.h), then enters the bounded MPSC ingest ring
// (svc/ingest_ring.h). A single dispatcher ("pump") thread batch-drains
// the ring into the scheduler through Scheduler::EnqueueBatch — for the
// cascaded scheduler that is the Encapsulator::CharacterizeBatch kernel —
// dispatches whenever the modeled disk is idle, and charges each dispatch
// a service time from the caller-supplied ServiceTimeFn (the disk model
// stays out of this layer; tools and tests wrap a DiskModel into the
// callback).
//
// Two ways to run, one pump:
//
//  * RunVirtual(arrivals): deterministic virtual time on the calling
//    thread. It runs the simulator's own event loop (sim/event_loop.h)
//    with the arrival path replaced by admit -> ring -> drain, and the
//    ring is a pass-through (each arrival is drained at its own arrival
//    instant), so the dispatch order over the admitted set is
//    bit-identical to the offline simulator fed that same set. Arrivals
//    stream from a RequestGenerator. Runs twice -> identical traces.
//
//  * Start()/Offer()/Stop(): wall-clock mode. The pump thread drives the
//    same DiskState against a MonotonicClock (the common/clock seam);
//    `time_scale` maps modeled service milliseconds to wall-clock pacing
//    (0 = no pacing, the closed-loop soak configuration that measures
//    pure front-end overhead). One pump pass drains at most one ring's
//    worth, then serves while the modeled disk finishes by the latest
//    clock reading: an unpaced pass serves everything it drained (what
//    DiskServerSimulator::Run does when service takes no time), a paced
//    pass dispatches once per completion. Each dispatch reads the clock,
//    so its wait ends at its own dispatch, not at the pass's start. The
//    backlog waits in the bounded ring, where ring-full sheds push back
//    on producers.
//    Stop() drains everything already admitted; Cancel() abandons pending
//    work immediately (the mid-drain cancellation path the TSan stress
//    exercises).
//
// Event stream (obs/trace_event.h lifecycle): Offer emits ingest then
// admit or reject from the producer thread; the pump emits enqueue on
// ring drain, dispatch + drain (wait_ms = offer-to-dispatch latency) at
// hand-off, completion when the modeled service ends. All emissions are
// serialized through an internal LockedSink, so a single-threaded sink
// such as SloMetrics can sit behind the server unchanged.
//
// Threading contract (DESIGN.md section 12): Offer is safe from any
// thread, including concurrently with Stop/Cancel; everything the pump
// owns (scheduler, histogram via stats_mu_, in-service state) is touched
// only by the pump thread or after join; cross-thread state is the ring,
// the admission controller, the clock, the atomics below, and the locked
// sink.

#ifndef CSFC_SVC_SERVER_H_
#define CSFC_SVC_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/clock.h"
#include "common/histogram.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/types.h"
#include "obs/locked_sink.h"
#include "obs/tracer.h"
#include "sched/scheduler.h"
#include "sim/event_loop.h"
#include "svc/admission.h"
#include "svc/ingest_ring.h"

namespace csfc {
namespace svc {

/// Modeled service time in milliseconds for serving `r` with the head at
/// `head`. Wraps the disk model outside this layer.
using ServiceTimeFn = std::function<double(Cylinder head, const Request& r)>;

struct IngestConfig {
  /// Ring capacity in requests (rounded up to a power of two).
  size_t ring_capacity = 1024;
  /// Requests per EnqueueBatch span; a pass drains at most one ring.
  size_t drain_batch = 64;

  Status Validate() const;
};

/// Whole-run service statistics (settled once the server is stopped).
struct ServiceStats {
  AdmissionController::Counters admission;
  uint64_t enqueued = 0;    ///< drained from the ring into the scheduler
  uint64_t dispatched = 0;  ///< handed to service
  uint64_t completions = 0;
  /// Offer-to-dispatch wait latency distribution.
  double p50_wait_ms = 0.0;
  double p99_wait_ms = 0.0;
  double p999_wait_ms = 0.0;
  double max_wait_ms = 0.0;
  double mean_wait_ms = 0.0;
};

class ServiceServer {
 public:
  struct Options {
    IngestConfig ingest;
    AdmissionConfig admission;
    /// Receives the full event stream; may be a single-threaded sink (the
    /// server serializes emissions internally). Not owned; may be null.
    obs::EventSink* trace_sink = nullptr;
    /// Wall-clock mode only: fraction of the modeled service time the
    /// pump holds the disk busy. 1.0 = real-time pacing, 0 = serve as
    /// fast as the front-end allows (soak/bench configuration).
    double time_scale = 0.0;
  };

  /// Validates the options and takes ownership of the scheduler.
  static Result<std::unique_ptr<ServiceServer>> Create(
      SchedulerPtr scheduler, ServiceTimeFn service_time,
      const Options& options);

  ~ServiceServer();
  ServiceServer(const ServiceServer&) = delete;
  ServiceServer& operator=(const ServiceServer&) = delete;

  // --- deterministic virtual-time mode ---------------------------------

  /// Offers every request of `arrivals` (in Request::arrival order) at
  /// its arrival time and serves the run to completion in virtual time on
  /// the calling thread; returns the run's stats. Must not be mixed with
  /// Start(). Bit-identical to the offline simulator over the admitted
  /// set (and to itself, run twice); csfc_analyze's determinism-taint
  /// family audits the path.
  CSFC_DETERMINISTIC ServiceStats RunVirtual(RequestGenerator& arrivals);

  // --- wall-clock mode --------------------------------------------------

  /// Spawns the pump thread. Fails if already running.
  Status Start();

  /// Offers one request from any producer thread; stamps the request's
  /// arrival from the server clock. Returns true iff admitted into the
  /// ring. False = shed (rate / load / ring_full — see the trace or the
  /// admission counters for which).
  bool Offer(Request r);

  /// Graceful shutdown: serves everything already admitted, then joins.
  void Stop();

  /// Immediate shutdown: the pump abandons the ring and queue contents
  /// mid-drain and joins. Admitted-but-unserved requests stay counted as
  /// admitted (the accounting identity is over admission, not service).
  void Cancel();

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Snapshot of the run's statistics; stable once stopped.
  ServiceStats Stats() const EXCLUDES(stats_mu_);

  const AdmissionController& admission() const { return admission_; }

 private:
  ServiceServer(SchedulerPtr scheduler, ServiceTimeFn service_time,
                const Options& options);

  /// Producer-side ingest: admission + ring push + ingest/admit/reject
  /// events. Returns true iff the request entered the ring.
  bool Ingest(Request&& r, SimTime now);

  /// Counts of one pump pass that Stats() readers have not seen yet. One
  /// wait sample per dispatch; `waits` is reserved to one ring's worth in
  /// the ctor and published early when full, so it never grows.
  struct PassTally {
    uint64_t enqueued = 0;
    uint64_t completions = 0;
    std::vector<SimTime> waits;
  };

  /// Drains at most one ring's worth into the scheduler in spans of
  /// drain_batch, stopping at the first short span (the ring was seen
  /// empty), and emits enqueue events. Pump thread only.
  size_t DrainRing(const DispatchContext& ctx);

  /// Pops the next request if one is pending at `disk.now`: emits
  /// dispatch + drain, tallies the wait sample (`disk.now` minus its
  /// arrival), and starts it on the disk for service_ms (held busy for
  /// service_ms * `scale`). Pump thread only. Returns whether a request
  /// was dispatched.
  bool TryDispatch(DiskState& disk, double scale);

  /// Wall-clock idle wait: raises pump_waiting_, re-checks for work under
  /// wake_mu_, then sleeps until an Offer/Stop/Cancel notify or
  /// `timeout_us`. Pump thread only.
  void WaitForWork(bool disk_busy, SimTime timeout_us) EXCLUDES(wake_mu_);

  /// Tallies the request the disk just finished and emits its completion
  /// event. Pump thread only.
  void Complete(DiskState& disk);

  /// Publishes the pass tally and the scheduler's queue depth to Stats()
  /// readers and producers under one stats_mu_ acquisition, then clears
  /// the tally. Pump thread only.
  void Publish() EXCLUDES(stats_mu_);

  void PumpLoop();

  /// Approximate pending depth (ring + scheduler queue) for the admission
  /// oracle; exact in virtual mode.
  size_t ApproxDepth() const {
    return ring_.size() + queue_depth_.load(std::memory_order_relaxed);
  }

  /// Whether every member Offer reads ends on a line before the first
  /// member the pump writes on an untraced pass; server.cc asserts it.
  static constexpr bool OfferLinesStayOffPumpLines();

  // Members are grouped by the thread that writes them, and each written
  // group starts on its own cache line (DESIGN.md section 12 has the
  // table). Memory-order contracts of the atomics (allowed orders per op,
  // with rationale) live in tools/csfc_analyze/concurrency.toml;
  // csfc_analyze enforces call sites against them.

  // Read-mostly: set up by the constructor (pump_ by Start/Stop) and only
  // read afterwards. Offer reads clock_, tracer_'s sink and the admission
  // config; the controller keeps each producer's counters on a line of
  // their own. The pump writes tracer_'s now only when tracing.
  SchedulerPtr sched_;
  ServiceTimeFn service_time_;
  Options options_;
  MonotonicClock clock_;
  /// All trace emissions funnel through this lock so single-threaded
  /// sinks work behind the server; tracer_ wraps it (or is disabled).
  std::optional<obs::LockedSink> locked_sink_;
  obs::Tracer tracer_;
  std::thread pump_;
  AdmissionController admission_;

  /// The ring keeps its producers' tail ticket and the pump's head cursor
  /// on lines of their own.
  MpscIngestRing<Request> ring_;

  /// Lifecycle flags: written by Start/Stop/Cancel, read by every Offer.
  alignas(kCacheLine) std::atomic<bool> running_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> cancel_{false};

  /// The wake handshake. pump_waiting_ is set (under wake_mu_) while the
  /// pump is about to sleep or sleeping; an admitted Offer reads it and
  /// takes wake_mu_ to notify only when it reads true. A busy pump leaves
  /// this line alone.
  alignas(kCacheLine) std::atomic<bool> pump_waiting_{false};
  Mutex wake_mu_;
  CondVar wake_cv_;

  // Everything below is written by the pump on every pass and read by no
  // Offer without the load gate.

  /// Pump-thread scratch for ring drains; reserved once in the ctor.
  /// drain_ids_ is filled only when tracing.
  alignas(kCacheLine) std::vector<Request> drain_buf_;
  std::vector<RequestId> drain_ids_;
  /// Pump-thread counts since the last Publish().
  PassTally pass_;

  /// What Publish() writes. queue_depth_ mirrors the scheduler's queue
  /// size for the producers' load gate (the scheduler itself is
  /// pump-owned); only a gated Offer reads it.
  alignas(kCacheLine) std::atomic<size_t> queue_depth_{0};
  mutable Mutex stats_mu_;
  LogHistogram wait_hist_ GUARDED_BY(stats_mu_);
  uint64_t enqueued_ GUARDED_BY(stats_mu_) = 0;
  uint64_t dispatched_ GUARDED_BY(stats_mu_) = 0;
  uint64_t completions_ GUARDED_BY(stats_mu_) = 0;
};

}  // namespace svc
}  // namespace csfc

#endif  // CSFC_SVC_SERVER_H_
