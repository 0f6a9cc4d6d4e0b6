// The observability event model: one flat record type for every
// per-request lifecycle event the instrumented pipeline can emit
// (DESIGN.md section 10).
//
// A request's life is traced as
//
//   arrival -> characterize -> enqueue -> [promote]* -> dispatch
//           -> completion [-> deadline_miss]
//
// with dispatcher-global events (preempt, queue_swap, window_reset)
// interleaved. Every event carries the simulation timestamp it happened
// at; kind-specific payload lives in optional fields of the single
// TraceEvent struct so sinks stay allocation-free and the ring buffer can
// hold events by value.
//
// Consumers implement EventSink. A null sink (no sink attached) is the
// disabled state: instrumented code guards every emission with
// Tracer::enabled(), so tracing compiled in but switched off costs one
// pointer test per would-be event.

#ifndef CSFC_OBS_TRACE_EVENT_H_
#define CSFC_OBS_TRACE_EVENT_H_

#include <cstdint>
#include <string_view>

#include "common/types.h"
#include "workload/request.h"  // kNoDeadline sentinel

namespace csfc {
namespace obs {

/// Every event kind the instrumented scheduler pipeline emits.
enum class TraceEventKind : uint8_t {
  kArrival,       ///< request entered the simulator
  kCharacterize,  ///< encapsulator mapped the request to v_c (v1/v2/vc)
  kEnqueue,       ///< request inserted into the scheduler queue
  kPreempt,       ///< arrival preempted the active batch (conditional)
  kPromote,       ///< SP moved a waiting request into the active batch
  kQueueSwap,     ///< active batch exhausted; q and q' swapped
  kWindowReset,   ///< ER reset the blocking window at a swap
  kDispatch,      ///< request handed to the disk
  kCompletion,    ///< service finished
  kDeadlineMiss,  ///< the completion was after the request's deadline
  // Service front-end events (src/svc, DESIGN.md section 12). A request
  // served through the real-time front-end is traced as
  //   ingest -> admit -> enqueue -> ... -> dispatch -> drain
  // or sheds at the door as ingest -> reject.
  kIngest,        ///< request offered to the service front-end
  kAdmit,         ///< admission control accepted the request
  kReject,        ///< admission shed the request (see RejectReason)
  kDrain,         ///< front-end handed the request to service; wait_ms is
                  ///< the enqueue-to-dispatch latency the SLOs track
};

/// Why the admission controller shed a request (kReject payload).
enum class RejectReason : uint8_t {
  kNone = 0,
  kRate,      ///< per-stream token bucket empty
  kLoad,      ///< SCAN-tour oracle predicts the wait would bust the SLO
  kRingFull,  ///< ingest ring full (backpressure)
};

/// Stable wire name of a reject reason ("rate", "load", "ring_full").
std::string_view RejectReasonName(RejectReason reason);

/// Inverse of RejectReasonName; false when `name` is unknown.
bool ParseRejectReason(std::string_view name, RejectReason* out);

/// Sentinel for events that are not tied to one request (queue_swap,
/// window_reset).
inline constexpr RequestId kNoRequestId = ~RequestId{0};

/// Stable wire name of an event kind ("arrival", "queue_swap", ...).
std::string_view TraceEventKindName(TraceEventKind kind);

/// Inverse of TraceEventKindName; false when `name` is unknown.
bool ParseTraceEventKind(std::string_view name, TraceEventKind* out);

/// One lifecycle event. Fields beyond `kind`/`t` are populated per kind;
/// unused fields keep their zero defaults and exporters omit them.
struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kArrival;
  /// Simulation time of the event.
  SimTime t = 0;
  /// Request the event belongs to; kNoRequestId for dispatcher-global
  /// events.
  RequestId id = kNoRequestId;

  // arrival / dispatch
  Cylinder cylinder = 0;
  /// Dimension-0 priority level at arrival (the level the per-level
  /// response stats key on).
  PriorityLevel level = 0;
  SimTime deadline = kNoDeadline;

  // characterize (vc is also set on preempt/promote)
  double v1 = 0.0;  ///< SFC1 output
  double v2 = 0.0;  ///< SFC2 output
  double vc = 0.0;  ///< SFC3 output = the final characterization value
  /// True when the characterization is a batch-formation re-key rather
  /// than the arrival-time one.
  bool rekey = false;

  // enqueue / dispatch / queue_swap
  /// Scheduler queue depth after the event.
  uint64_t queue_depth = 0;

  // preempt / promote / window_reset
  /// Blocking window after the event (ER growth / reset visible here).
  double window = 0.0;

  // completion
  double seek_ms = 0.0;
  double service_ms = 0.0;
  double response_ms = 0.0;
  bool missed = false;

  // ingest (owning stream of the offered request)
  uint32_t stream = 0;
  // drain: enqueue-to-dispatch latency through the service front-end
  double wait_ms = 0.0;
  // reject
  RejectReason reject = RejectReason::kNone;

  bool has_request() const { return id != kNoRequestId; }
};

/// Receives every emitted event. Implementations must tolerate events
/// arriving in simulation order from a single thread (one sink per
/// simulator run; parallel sweeps use one sink per point). The in-memory
/// sink SloMetrics is thread-compatible, not thread-safe: to share one
/// sink across RunParallel points, wrap it in
/// obs::LockedSink (obs/locked_sink.h) or use the internally locked
/// JsonlSink. The thread-safety annotations on those adapters make any
/// unlocked sharing a -Wthread-safety compile error.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void OnEvent(const TraceEvent& event) = 0;
};

}  // namespace obs
}  // namespace csfc

#endif  // CSFC_OBS_TRACE_EVENT_H_
