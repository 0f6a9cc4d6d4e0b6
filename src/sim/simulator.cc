#include "sim/simulator.h"

#include <utility>

#include "sim/event_loop.h"

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
  ServiceCharger charge(disk_, config_.service_model, config_.latency_seed);
  DiskState disk;
  double seek_ms = 0.0;  // of the request in service
  RunEventLoop(
      gen, disk,
      [&] {
        tracer_.set_now(disk.now);
        std::optional<Request> r =
            sched.Dispatch(DispatchContext{.now = disk.now, .head = disk.head});
        if (!r) return;
        // The queue depth only feeds the trace event: skip the virtual
        // call on untraced runs.
        metrics.OnDispatch(*r, tracer_.enabled() ? sched.queue_size() : 0);
        const ServiceCharger::Charge c = charge(disk.head, *r);
        seek_ms = c.seek_ms;
        disk.Start(std::move(*r), c.service_ms);
      },
      [&] {
        metrics.OnCompletion(disk.in_service, disk.now, seek_ms,
                             disk.service_ms);
      },
      [&](Request&& r) {
        tracer_.set_now(disk.now);
        metrics.OnArrival(r);
        const RequestId id = r.id;
        // Zero-copy handoff: the payload moves generator -> scheduler
        // queue -> (slot pool) -> in_service without an intermediate copy.
        sched.Enqueue(std::move(r),
                      DispatchContext{.now = disk.now, .head = disk.head});
        if (tracer_.enabled()) {
          obs::TraceEvent e;
          e.kind = obs::TraceEventKind::kEnqueue;
          e.t = disk.now;
          e.id = id;
          e.queue_depth = sched.queue_size();
          tracer_.Emit(e);
        }
      });
  return metrics.TakeMetrics();
}

}  // namespace csfc
