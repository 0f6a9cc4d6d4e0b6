#include "svc/server.h"

#include <algorithm>
#include <cmath>
#include <span>
#include <utility>

namespace csfc {
namespace svc {

namespace {

obs::RejectReason ToReason(AdmitDecision d) {
  switch (d) {
    case AdmitDecision::kRejectRate:
      return obs::RejectReason::kRate;
    case AdmitDecision::kRejectLoad:
      return obs::RejectReason::kLoad;
    case AdmitDecision::kAdmit:
      break;
  }
  return obs::RejectReason::kNone;
}

}  // namespace

Status IngestConfig::Validate() const {
  if (ring_capacity < 2) {
    return Status::InvalidArgument("ingest: ring_capacity must be >= 2");
  }
  if (drain_batch == 0) {
    return Status::InvalidArgument("ingest: drain_batch must be >= 1");
  }
  return Status::OK();
}

Result<std::unique_ptr<ServiceServer>> ServiceServer::Create(
    SchedulerPtr scheduler, ServiceTimeFn service_time,
    const Options& options) {
  if (scheduler == nullptr) {
    return Status::InvalidArgument("service: scheduler is required");
  }
  if (!service_time) {
    return Status::InvalidArgument("service: service_time is required");
  }
  if (Status s = options.ingest.Validate(); !s.ok()) return s;
  if (Status s = options.admission.Validate(); !s.ok()) return s;
  if (!std::isfinite(options.time_scale) || options.time_scale < 0.0) {
    return Status::InvalidArgument(
        "service: time_scale must be finite and >= 0");
  }
  return std::unique_ptr<ServiceServer>(new ServiceServer(
      std::move(scheduler), std::move(service_time), options));
}

ServiceServer::ServiceServer(SchedulerPtr scheduler,
                             ServiceTimeFn service_time,
                             const Options& options)
    : sched_(std::move(scheduler)),
      service_time_(std::move(service_time)),
      options_(options),
      admission_(options.admission),
      ring_(options.ingest.ring_capacity) {
  if (options_.trace_sink != nullptr) {
    locked_sink_.emplace(*options_.trace_sink);
    tracer_ = obs::Tracer(&*locked_sink_);
  }
  drain_buf_.reserve(options_.ingest.drain_batch);
  drain_ids_.reserve(options_.ingest.drain_batch);
  pass_.waits.reserve(ring_.capacity());
}

ServiceServer::~ServiceServer() { Cancel(); }

bool ServiceServer::Ingest(Request&& r, SimTime now) {
  const RequestId id = r.id;
  const uint32_t stream = r.stream;
  if (tracer_.enabled()) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kIngest;
    e.t = now;
    e.id = id;
    e.stream = stream;
    tracer_.Emit(e);
  }
  // The depth reads both ring cursors (one shared with every producer), so
  // it is computed only when the load gate will look at it.
  const size_t depth = admission_.load_gate() ? ApproxDepth() : 0;
  const AdmitDecision d = admission_.Admit(stream, now, depth);
  if (d != AdmitDecision::kAdmit) {
    if (tracer_.enabled()) {
      obs::TraceEvent e;
      e.kind = obs::TraceEventKind::kReject;
      e.t = now;
      e.id = id;
      e.reject = ToReason(d);
      tracer_.Emit(e);
    }
    return false;
  }
  if (!ring_.TryPush(std::move(r))) {
    admission_.RecordRingReject();
    if (tracer_.enabled()) {
      obs::TraceEvent e;
      e.kind = obs::TraceEventKind::kReject;
      e.t = now;
      e.id = id;
      e.reject = obs::RejectReason::kRingFull;
      tracer_.Emit(e);
    }
    return false;
  }
  admission_.RecordAdmit();
  if (tracer_.enabled()) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kAdmit;
    e.t = now;
    e.id = id;
    e.queue_depth = ApproxDepth();
    tracer_.Emit(e);
  }
  return true;
}

size_t ServiceServer::DrainRing(const DispatchContext& ctx) {
  size_t total = 0;
  tracer_.set_now(ctx.now);
  const bool tracing = tracer_.enabled();
  const size_t limit = ring_.capacity();
  while (total < limit) {
    const size_t span = std::min(options_.ingest.drain_batch, limit - total);
    drain_buf_.clear();
    const size_t n = ring_.DrainInto(drain_buf_, span);
    if (n == 0) break;
    if (tracing) {
      // EnqueueBatch may move from the buffer; keep the ids for the events.
      drain_ids_.clear();
      for (const Request& r : drain_buf_) drain_ids_.push_back(r.id);
    }
    sched_->EnqueueBatch(std::span<Request>(drain_buf_), ctx);
    if (tracing) {
      for (RequestId id : drain_ids_) {
        obs::TraceEvent e;
        e.kind = obs::TraceEventKind::kEnqueue;
        e.t = ctx.now;
        e.id = id;
        e.queue_depth = sched_->queue_size();
        tracer_.Emit(e);
      }
    }
    total += n;
    // A short span saw the ring empty: probing again would only touch the
    // cells producers are writing.
    if (n < span) break;
  }
  pass_.enqueued += total;
  return total;
}

bool ServiceServer::TryDispatch(DiskState& disk, double scale) {
  const DispatchContext ctx{.now = disk.now, .head = disk.head};
  tracer_.set_now(disk.now);
  std::optional<Request> r = sched_->Dispatch(ctx);
  if (!r) return false;
  const SimTime wait = std::max<SimTime>(disk.now - r->arrival, 0);
  if (pass_.waits.size() == pass_.waits.capacity()) Publish();
  pass_.waits.push_back(wait);
  if (tracer_.enabled()) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kDispatch;
    e.t = disk.now;
    e.id = r->id;
    e.cylinder = r->cylinder;
    e.queue_depth = sched_->queue_size();
    tracer_.Emit(e);
    obs::TraceEvent d;
    d.kind = obs::TraceEventKind::kDrain;
    d.t = disk.now;
    d.id = r->id;
    d.wait_ms = SimToMs(wait);
    d.queue_depth = sched_->queue_size();
    tracer_.Emit(d);
  }
  const double service_ms = service_time_(disk.head, *r);
  disk.Start(std::move(*r), service_ms, scale);
  return true;
}

void ServiceServer::Complete(DiskState& disk) {
  ++pass_.completions;
  if (tracer_.enabled()) {
    obs::TraceEvent e;
    e.kind = obs::TraceEventKind::kCompletion;
    e.t = disk.now;
    e.id = disk.in_service.id;
    e.service_ms = disk.service_ms;
    e.response_ms = SimToMs(disk.now - disk.in_service.arrival);
    e.missed = disk.in_service.has_deadline() &&
               disk.now > disk.in_service.deadline;
    tracer_.Emit(e);
  }
}

void ServiceServer::Publish() {
  const size_t depth = sched_->queue_size();
  {
    MutexLock lock(stats_mu_);
    enqueued_ += pass_.enqueued;
    dispatched_ += pass_.waits.size();
    completions_ += pass_.completions;
    for (SimTime wait : pass_.waits) wait_hist_.Add(wait);
    queue_depth_.store(depth, std::memory_order_relaxed);
  }
  pass_.enqueued = 0;
  pass_.completions = 0;
  pass_.waits.clear();
}

ServiceStats ServiceServer::RunVirtual(RequestGenerator& arrivals) {
  if (running_.load(std::memory_order_acquire)) return Stats();
  sched_->Observe(tracer_);
  DiskState disk;
  // Publishing after every dispatch and every drain keeps the load gate's
  // depth exact.
  RunEventLoop(
      arrivals, disk,
      [&] {
        if (TryDispatch(disk, /*scale=*/1.0)) Publish();
      },
      [&] { Complete(disk); },
      [&](Request&& r) {
        // The ring is a pass-through: drained at the arrival instant.
        if (Ingest(std::move(r), disk.now)) {
          DrainRing(DispatchContext{.now = disk.now, .head = disk.head});
          Publish();
        }
      });
  Publish();  // the completions since the last dispatch
  return Stats();
}

Status ServiceServer::Start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) {
    return Status::FailedPrecondition("service: already running");
  }
  stop_.store(false, std::memory_order_release);
  cancel_.store(false, std::memory_order_release);
  pump_ = std::thread(&ServiceServer::PumpLoop, this);
  return Status::OK();
}

bool ServiceServer::Offer(Request r) {
  if (!running_.load(std::memory_order_acquire) ||
      stop_.load(std::memory_order_acquire)) {
    return false;
  }
  const SimTime now = clock_.NowUs();
  r.arrival = now;
  const bool admitted = Ingest(std::move(r), now);
  // Store-buffering handshake with WaitForWork: the push's seq_cst claim,
  // then this seq_cst flag load. Either the load sees the pump's flag, or
  // the pump's seq_cst ring re-check sees the claim; the lock is taken
  // only when the pump may be asleep.
  if (admitted && pump_waiting_.load(std::memory_order_seq_cst)) {
    MutexLock lock(wake_mu_);
    wake_cv_.NotifyOne();
  }
  return admitted;
}

void ServiceServer::WaitForWork(bool disk_busy, SimTime timeout_us) {
  MutexLock lock(wake_mu_);
  pump_waiting_.store(true, std::memory_order_seq_cst);
  // Re-checked after the flag is up: ring_.size() loads the tail seq_cst,
  // so a push that missed the flag is seen here. Stop/Cancel notify under
  // wake_mu_, so their flags are either seen here or their notify reaches
  // the wait. A busy disk still sleeps until its completion whatever
  // stop_ says.
  const bool work = ring_.size() != 0 ||
                    cancel_.load(std::memory_order_acquire) ||
                    (!disk_busy && stop_.load(std::memory_order_acquire));
  if (!work) wake_cv_.WaitFor(wake_mu_, timeout_us);
  pump_waiting_.store(false, std::memory_order_seq_cst);
}

void ServiceServer::PumpLoop() {
  sched_->Observe(tracer_);
  DiskState disk;
  for (;;) {
    if (cancel_.load(std::memory_order_acquire)) break;
    disk.now = clock_.NowUs();
    bool progress = DrainRing(DispatchContext{disk.now, disk.head}) > 0;
    // Serve while the modeled disk finishes by `now`: unpaced, that is
    // everything just drained; paced, one dispatch per completion.
    for (;;) {
      if (disk.busy) {
        if (disk.completion_time > disk.now) break;
        disk.Finish();
        Complete(disk);
        progress = true;
      }
      if (!TryDispatch(disk, options_.time_scale)) break;
      progress = true;
    }
    if (progress) {
      Publish();  // one stats_mu_ acquisition per pass
      continue;
    }
    if (stop_.load(std::memory_order_acquire) && ring_.size() == 0 &&
        sched_->queue_size() == 0 && !disk.busy) {
      break;  // graceful: everything admitted before Stop has been served
    }
    // Idle: sleep until the in-service request completes, an Offer
    // notifies, or the 1ms tick re-checks stop/cancel.
    SimTime timeout_us = kMillisecond;
    if (disk.busy) {
      timeout_us = std::clamp<SimTime>(disk.completion_time - disk.now, 1,
                                       kMillisecond);
    }
    WaitForWork(disk.busy, timeout_us);
  }
}

void ServiceServer::Stop() {
  stop_.store(true, std::memory_order_release);
  {
    MutexLock lock(wake_mu_);
    wake_cv_.NotifyAll();
  }
  // The exchange elects exactly one joiner when Stop and Cancel race.
  if (running_.exchange(false, std::memory_order_acq_rel) &&
      pump_.joinable()) {
    pump_.join();
  }
}

void ServiceServer::Cancel() {
  cancel_.store(true, std::memory_order_release);
  stop_.store(true, std::memory_order_release);
  {
    MutexLock lock(wake_mu_);
    wake_cv_.NotifyAll();
  }
  if (running_.exchange(false, std::memory_order_acq_rel) &&
      pump_.joinable()) {
    pump_.join();
  }
}

ServiceStats ServiceServer::Stats() const {
  ServiceStats s;
  s.admission = admission_.counters();
  MutexLock lock(stats_mu_);
  s.enqueued = enqueued_;
  s.dispatched = dispatched_;
  s.completions = completions_;
  s.p50_wait_ms = SimToMs(static_cast<SimTime>(wait_hist_.Quantile(0.5)));
  s.p99_wait_ms = SimToMs(static_cast<SimTime>(wait_hist_.Quantile(0.99)));
  s.p999_wait_ms = SimToMs(static_cast<SimTime>(wait_hist_.Quantile(0.999)));
  s.max_wait_ms = SimToMs(wait_hist_.max());
  s.mean_wait_ms = wait_hist_.mean() / static_cast<double>(kMillisecond);
  return s;
}

}  // namespace svc
}  // namespace csfc
