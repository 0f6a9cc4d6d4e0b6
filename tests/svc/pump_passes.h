// Helpers for the wall-clock pump's pass-structure tests.
//
// PumpPasses reads the pump's passes back out of a recorded event stream.
// Only the pump emits enqueue and dispatch events, so their order is the
// pump's own, whatever the producers interleave. An unpaced pass is a run
// of enqueues (one ring drain) followed by the run of dispatches that
// serves it.
//
// MakeSlowPumpServer builds a server whose pump is slower than its
// producers, as in the pump-bound soak, whatever this machine's speed:
// every service-time call spins before it answers.

#ifndef CSFC_TESTS_SVC_PUMP_PASSES_H_
#define CSFC_TESTS_SVC_PUMP_PASSES_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "exp/server_config.h"
#include "obs/trace_event.h"

namespace csfc {
namespace svc {

struct PumpPass {
  uint64_t enqueued = 0;
  uint64_t dispatched = 0;
  /// Scheduler queue depth after the pass's last dispatch.
  uint64_t last_dispatch_depth = 0;
};

/// Splits the enqueue/dispatch events into passes: a new pass starts at
/// the first enqueue after a dispatch.
inline std::vector<PumpPass> PumpPasses(
    const std::vector<obs::TraceEvent>& events) {
  std::vector<PumpPass> passes;
  for (const obs::TraceEvent& e : events) {
    if (e.kind == obs::TraceEventKind::kEnqueue) {
      if (passes.empty() || passes.back().dispatched != 0) {
        passes.emplace_back();
      }
      ++passes.back().enqueued;
    } else if (e.kind == obs::TraceEventKind::kDispatch) {
      if (passes.empty()) passes.emplace_back();
      ++passes.back().dispatched;
      passes.back().last_dispatch_depth = e.queue_depth;
    }
  }
  return passes;
}

/// MakeServer's stack for `config` (admission gates, ingest, time scale,
/// trace sink), except that each service-time call spins for `spin` and
/// answers 1 ms.
inline Result<ServiceHandle> MakeSlowPumpServer(
    const ServerConfig& config, std::chrono::nanoseconds spin) {
  Result<DiskModel> disk = DiskModel::Create(config.sim.disk);
  if (!disk.ok()) return disk.status();
  ServiceHandle handle;
  handle.disk = std::make_unique<DiskModel>(std::move(*disk));
  Result<SchedulerFactory> factory = config.MakeFactory(*handle.disk);
  if (!factory.ok()) return factory.status();
  ServiceServer::Options options;
  options.ingest = config.ingest;
  options.admission = config.admission;
  options.trace_sink = config.sim.trace_sink;
  options.time_scale = config.time_scale;
  auto service_time = [spin](Cylinder, const Request&) {
    const auto until = std::chrono::steady_clock::now() + spin;
    while (std::chrono::steady_clock::now() < until) {
    }
    return 1.0;
  };
  Result<std::unique_ptr<ServiceServer>> server =
      ServiceServer::Create((*factory)(), service_time, options);
  if (!server.ok()) return server.status();
  handle.server = std::move(*server);
  return handle;
}

}  // namespace svc
}  // namespace csfc

#endif  // CSFC_TESTS_SVC_PUMP_PASSES_H_
