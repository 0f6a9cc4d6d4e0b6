#include "sim/simulator.h"

#include <utility>

namespace csfc {

Status SimulatorConfig::Validate() const {
  if (Status s = disk.Validate(); !s.ok()) return s;
  if (Status s = metrics.Validate(); !s.ok()) return s;
  return Status::OK();
}

Result<DiskServerSimulator> DiskServerSimulator::Create(
    const SimulatorConfig& config) {
  if (Status s = config.Validate(); !s.ok()) return s;
  Result<DiskModel> disk = DiskModel::Create(config.disk);
  if (!disk.ok()) return disk.status();
  return DiskServerSimulator(config, std::move(*disk));
}

DiskServerSimulator::DiskServerSimulator(const SimulatorConfig& config,
                                         DiskModel disk)
    : config_(config), disk_(std::move(disk)), tracer_(config.trace_sink) {}

RunMetrics DiskServerSimulator::Run(RequestGenerator& gen, Scheduler& sched) {
  MetricsCollector metrics(config_.metrics);
  metrics.set_tracer(&tracer_);
  // Hand the tracer to the scheduler so observing policies (the cascaded
  // scheduler) can emit characterize / SP / ER events; baselines inherit
  // the no-op default.
  sched.Observe(tracer_);
  std::optional<Rng> latency_rng;
  if (config_.latency_seed) latency_rng.emplace(*config_.latency_seed);

  std::optional<Request> next_arrival = gen.Next();
  SimTime now = 0;
  Cylinder head = 0;
  bool busy = false;
  SimTime completion_time = 0;
  Request in_service;
  double in_service_seek_ms = 0.0;
  double in_service_total_ms = 0.0;
  uint64_t completions = 0;

  while (true) {
    if (!busy) {
      const DispatchContext ctx{.now = now, .head = head};
      tracer_.set_now(now);
      std::optional<Request> r = sched.Dispatch(ctx);
      if (r) {
        // The queue depth only feeds the trace event: skip the virtual
        // call on untraced runs.
        metrics.OnDispatch(*r, tracer_.enabled() ? sched.queue_size() : 0);
        double seek_ms = 0.0;
        double service_ms = 0.0;
        switch (config_.service_model) {
          case ServiceModel::kFullDisk: {
            seek_ms = disk_.SeekTimeMs(head, r->cylinder);
            const double latency =
                latency_rng ? disk_.SampleRotationalLatencyMs(*latency_rng)
                            : disk_.AvgRotationalLatencyMs();
            service_ms =
                seek_ms + latency + disk_.TransferTimeMs(r->cylinder, r->bytes);
            break;
          }
          case ServiceModel::kTransferOnly:
            service_ms = disk_.TransferTimeMs(r->cylinder, r->bytes);
            break;
        }
        in_service = std::move(*r);
        in_service_seek_ms = seek_ms;
        in_service_total_ms = service_ms;
        completion_time = AddSaturating(now, MsToSim(service_ms));
        busy = true;
      }
    }

    const bool take_completion =
        busy && (!next_arrival || completion_time <= next_arrival->arrival);
    if (take_completion) {
      now = completion_time;
      head = in_service.cylinder;
      busy = false;
      metrics.OnCompletion(in_service, now, in_service_seek_ms,
                           in_service_total_ms);
      if (config_.max_completions != 0 &&
          ++completions >= config_.max_completions) {
        break;
      }
    } else if (next_arrival) {
      now = next_arrival->arrival;
      const DispatchContext ctx{.now = now, .head = head};
      tracer_.set_now(now);
      metrics.OnArrival(*next_arrival);
      const RequestId arrival_id = next_arrival->id;
      // Zero-copy handoff: the payload moves generator -> scheduler queue
      // -> (slot pool) -> in_service without an intermediate copy.
      sched.Enqueue(std::move(*next_arrival), ctx);
      if (tracer_.enabled()) {
        obs::TraceEvent e;
        e.kind = obs::TraceEventKind::kEnqueue;
        e.t = now;
        e.id = arrival_id;
        e.queue_depth = sched.queue_size();
        tracer_.Emit(e);
      }
      next_arrival = gen.Next();
    } else if (!busy) {
      // No arrivals left and the scheduler has nothing to dispatch.
      break;
    }
  }
  return metrics.TakeMetrics();
}

}  // namespace csfc
