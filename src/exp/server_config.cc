#include "exp/server_config.h"

#include <cmath>

namespace csfc {

Status ServerConfig::Validate() const {
  bool known = false;
  for (std::string_view n : AllSchedulerNames()) {
    if (n == scheduler) {
      known = true;
      break;
    }
  }
  if (!known) {
    return Status::InvalidArgument("server: unknown scheduler '" + scheduler +
                                   "' (csfc_sim --list prints the registry)");
  }
  if (Status s = sim.Validate(); !s.ok()) return s;
  if (Status s = ingest.Validate(); !s.ok()) return s;
  if (Status s = admission.Validate(); !s.ok()) return s;
  if (!std::isfinite(time_scale) || time_scale < 0.0) {
    return Status::InvalidArgument("server: time_scale must be finite, >= 0");
  }
  return Status::OK();
}

Result<SchedulerFactory> ServerConfig::MakeFactory(
    const DiskModel& disk) const {
  SchedulerRegistryContext ctx = registry;
  ctx.disk = &disk;
  return MakeSchedulerFactory(scheduler, ctx);
}

svc::ServiceTimeFn MakeServiceTimeFn(const DiskModel& disk,
                                     ServiceModel model,
                                     std::optional<uint64_t> latency_seed) {
  // Mutable capture: a seeded charger's latency stream advances per
  // dispatch in dispatch order, the same stream the simulator draws.
  return [charge = ServiceCharger(disk, model, latency_seed)](
             Cylinder head, const Request& r) mutable {
    return charge(head, r).service_ms;
  };
}

Result<ServiceHandle> MakeServer(const ServerConfig& config) {
  if (Status s = config.Validate(); !s.ok()) return s;
  Result<DiskModel> disk = DiskModel::Create(config.sim.disk);
  if (!disk.ok()) return disk.status();
  ServiceHandle handle;
  handle.disk = std::make_unique<DiskModel>(std::move(*disk));

  svc::ServiceServer::Options options;
  options.ingest = config.ingest;
  options.admission = config.admission;
  options.trace_sink = config.sim.trace_sink;
  options.time_scale = config.time_scale;
  // Calibrate the SCAN-tour oracle with the run's own service model: the
  // seek-free cost of the average request (a default-size block served
  // in place at mid-stroke, expected rotational latency) and the seek of
  // the full-stroke sweep one tour amortizes.
  ServiceCharger charge(*handle.disk, config.sim.service_model,
                        std::nullopt);
  Request probe;  // default bytes
  probe.cylinder = config.sim.disk.cylinders / 2;
  options.admission.fixed_cost_ms = charge(probe.cylinder, probe).service_ms;
  probe.cylinder = config.sim.disk.cylinders - 1;
  options.admission.sweep_cost_ms = charge(0, probe).seek_ms;

  Result<SchedulerFactory> factory = config.MakeFactory(*handle.disk);
  if (!factory.ok()) return factory.status();
  SchedulerPtr sched = (*factory)();
  Result<std::unique_ptr<svc::ServiceServer>> server =
      svc::ServiceServer::Create(
          std::move(sched),
          MakeServiceTimeFn(*handle.disk, config.sim.service_model,
                            config.sim.latency_seed),
          options);
  if (!server.ok()) return server.status();
  handle.server = std::move(*server);
  return handle;
}

}  // namespace csfc
