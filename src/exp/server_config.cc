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
  if (model == ServiceModel::kTransferOnly) {
    return [&disk](Cylinder, const Request& r) {
      return disk.TransferTimeMs(r.cylinder, r.bytes);
    };
  }
  if (latency_seed) {
    // Mutable capture: the sampling sequence advances per dispatch in
    // dispatch order — the same stream the simulator would draw.
    return [&disk, rng = Rng(*latency_seed)](Cylinder head,
                                             const Request& r) mutable {
      return disk.SeekTimeMs(head, r.cylinder) +
             disk.SampleRotationalLatencyMs(rng) +
             disk.TransferTimeMs(r.cylinder, r.bytes);
    };
  }
  return [&disk](Cylinder head, const Request& r) {
    return disk.SeekTimeMs(head, r.cylinder) +
           disk.AvgRotationalLatencyMs() +
           disk.TransferTimeMs(r.cylinder, r.bytes);
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
  // Calibrate the SCAN-tour oracle from the disk model: the seek-free
  // per-request cost at the average request (expected rotational latency
  // + the transfer of a mid-stroke default-size block) and the full-stroke
  // sweep one tour amortizes.
  const DiskParams& dp = config.sim.disk;
  const Cylinder mid = dp.cylinders / 2;
  const Request probe;  // default bytes
  double fixed = handle.disk->TransferTimeMs(mid, probe.bytes);
  if (config.sim.service_model == ServiceModel::kFullDisk) {
    fixed += handle.disk->AvgRotationalLatencyMs();
  }
  options.admission.fixed_cost_ms = fixed;
  options.admission.sweep_cost_ms =
      config.sim.service_model == ServiceModel::kFullDisk
          ? handle.disk->SeekTimeMs(0, dp.cylinders - 1)
          : 0.0;

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
