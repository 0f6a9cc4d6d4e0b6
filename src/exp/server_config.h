// ServerConfig: the one configuration surface for standing up a disk
// server — offline simulation (csfc_sim, the experiment harness) and the
// real-time service front-end (csfc_serve) build from the same struct, so
// a service run and the offline replay that validates it cannot drift
// apart in configuration.
//
// It composes the per-layer configs that used to be assembled by hand at
// every call site:
//
//   scheduler + registry   which policy, and the knobs the name-based
//                          factory (sched/registry.h) draws from — one
//                          construction path for every policy, cascaded
//                          included (no more hand-built CascadedSfcScheduler
//                          at call sites).
//   sim                    SimulatorConfig: disk geometry, service model,
//                          metrics shape, trace sink.
//   ingest / admission     the service front-end's ring and load-shedding
//                          gates (src/svc).
//
// Build products:
//   MakeFactory(disk)   -> SchedulerFactory for offline runs/sweeps.
//   MakeServer(config)  -> ServiceHandle owning DiskModel + ServiceServer
//                          for service mode.
//
// Migration notes (one-PR deprecation window) in DESIGN.md section 12.

#ifndef CSFC_EXP_SERVER_CONFIG_H_
#define CSFC_EXP_SERVER_CONFIG_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "disk/disk_model.h"
#include "sched/registry.h"
#include "sim/simulator.h"
#include "svc/server.h"

namespace csfc {

struct ServerConfig {
  /// Registry name of the policy ("csfc", "edf", "scan-rt", ...).
  std::string scheduler = "csfc";
  /// Knobs the registry draws from; `registry.disk` is ignored here (the
  /// build step injects the disk model it creates or is given).
  SchedulerRegistryContext registry;
  SimulatorConfig sim;
  svc::IngestConfig ingest;
  svc::AdmissionConfig admission;
  /// Service-mode pacing (svc::ServiceServer::Options::time_scale).
  double time_scale = 0.0;

  Status Validate() const;

  // Builder-style setters (each returns *this so call sites read as one
  // chained expression; plain field assignment works identically).
  ServerConfig& WithScheduler(std::string_view name) {
    scheduler = std::string(name);
    return *this;
  }
  ServerConfig& WithCascaded(CascadedConfig config) {
    registry.cascaded = std::move(config);
    return *this;
  }
  ServerConfig& WithServiceModel(ServiceModel model) {
    sim.service_model = model;
    return *this;
  }
  ServerConfig& WithMetricsShape(uint32_t dims, uint32_t levels) {
    sim.metrics.dims = dims;
    sim.metrics.levels = levels;
    registry.priority_levels = levels;
    return *this;
  }
  ServerConfig& WithTraceSink(obs::EventSink* sink) {
    sim.trace_sink = sink;
    return *this;
  }
  ServerConfig& WithSlo(double wait_ms) {
    admission.slo_wait_ms = wait_ms;
    return *this;
  }
  ServerConfig& WithStreamRate(double rps, double burst = 0.0) {
    admission.stream_rate_rps = rps;
    admission.stream_burst = burst;
    return *this;
  }
  ServerConfig& WithIngest(size_t ring_capacity, size_t drain_batch) {
    ingest.ring_capacity = ring_capacity;
    ingest.drain_batch = drain_batch;
    return *this;
  }
  ServerConfig& WithTimeScale(double scale) {
    time_scale = scale;
    return *this;
  }

  /// Scheduler factory for offline runs. `disk` must outlive every
  /// scheduler the factory produces (disk-aware baselines keep the
  /// pointer).
  Result<SchedulerFactory> MakeFactory(const DiskModel& disk) const;
};

/// Wraps a DiskModel into the service layer's modeled-service-time
/// callback, which charges through the simulator's ServiceCharger: the
/// same service model and the same seeded-vs-expected rotational latency.
/// `disk` is borrowed and must outlive the returned callable.
svc::ServiceTimeFn MakeServiceTimeFn(const DiskModel& disk,
                                     ServiceModel model,
                                     std::optional<uint64_t> latency_seed);

/// Everything a service run owns. Field order is the destruction
/// contract: the server (and the scheduler inside it) dies before the
/// disk model it references.
struct ServiceHandle {
  std::unique_ptr<DiskModel> disk;
  std::unique_ptr<svc::ServiceServer> server;
};

/// Builds the full service stack from one config: disk model, scheduler
/// via the registry, admission costs derived from the disk (replacing
/// `admission.fixed_cost_ms` and `sweep_cost_ms`), ServiceServer wired to
/// `config.sim.trace_sink`.
Result<ServiceHandle> MakeServer(const ServerConfig& config);

}  // namespace csfc

#endif  // CSFC_EXP_SERVER_CONFIG_H_
