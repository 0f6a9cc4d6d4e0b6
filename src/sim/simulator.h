// The event-driven disk-server simulator — the reproduction's stand-in for
// the PanaViss video-server simulator the paper evaluates on.
//
// It runs the event loop of sim/event_loop.h: whenever the disk is idle
// the scheduler's Dispatch() picks the next request, and a
// ServiceCharger prices it from the DiskModel (or, in transfer-dominated
// mode, from the transfer term alone, matching the Section 5.1/5.2
// assumption that block transfers dwarf seeks).
//
// The simulation is fully deterministic for a given workload and
// configuration: rotational latency uses its expectation unless a latency
// seed is supplied.

#ifndef CSFC_SIM_SIMULATOR_H_
#define CSFC_SIM_SIMULATOR_H_

#include <memory>
#include <optional>

#include "common/annotations.h"
#include "common/random.h"
#include "common/status.h"
#include "disk/disk_model.h"
#include "obs/tracer.h"
#include "sched/scheduler.h"
#include "stats/metrics.h"
#include "workload/generator.h"

namespace csfc {

/// How per-request service time is computed.
enum class ServiceModel {
  /// seek + rotational latency + zoned transfer (the full disk model).
  kFullDisk,
  /// transfer only — Sections 5.1/5.2 assume block sizes large enough
  /// that transfer dominates, making service time independent of the
  /// schedule and isolating the queueing behavior of SFC1/SFC2.
  kTransferOnly,
};

/// Simulator configuration.
struct SimulatorConfig {
  DiskParams disk = DiskParams::PanaVissDisk();
  ServiceModel service_model = ServiceModel::kFullDisk;
  /// When set, rotational latency is sampled uniformly per request from
  /// an RNG seeded with this value; otherwise the expected latency is
  /// charged (deterministic).
  std::optional<uint64_t> latency_seed;
  /// Shape of the QoS metric space (dimensions / levels) tracked by the
  /// metrics layer. Replaces the former metric_dims / metric_levels pair.
  MetricsConfig metrics;
  /// When non-null, every Run() emits request-lifecycle trace events into
  /// this sink (not owned; must outlive the simulator). Null — the
  /// default — disables tracing at the cost of one branch per would-be
  /// event (the null-sink fast path, measured by bench_micro_hotpath).
  obs::EventSink* trace_sink = nullptr;

  Status Validate() const;
};

/// Prices each dispatch under one ServiceModel: the one place the model
/// switch and the seeded rotational-latency stream live. The simulator
/// and MakeServiceTimeFn (exp/server_config.h) both charge through it.
class ServiceCharger {
 public:
  struct Charge {
    double seek_ms = 0.0;     ///< the seek share (0 in transfer-only mode)
    double service_ms = 0.0;  ///< the whole service time
  };

  /// `disk` is borrowed and must outlive the charger. With a
  /// `latency_seed`, each full-disk charge samples its rotational latency
  /// from a stream seeded with it; without one, the expectation is
  /// charged.
  ServiceCharger(const DiskModel& disk, ServiceModel model,
                 std::optional<uint64_t> latency_seed)
      : disk_(&disk), model_(model) {
    if (latency_seed) latency_rng_.emplace(*latency_seed);
  }

  /// The service of `r` with the head at `head`.
  Charge operator()(Cylinder head, const Request& r) {
    if (model_ == ServiceModel::kTransferOnly) {
      return {.seek_ms = 0.0,
              .service_ms = disk_->TransferTimeMs(r.cylinder, r.bytes)};
    }
    return {.seek_ms = disk_->SeekTimeMs(head, r.cylinder),
            .service_ms = disk_->ServiceTimeMs(
                head, r.cylinder, r.bytes,
                latency_rng_ ? &*latency_rng_ : nullptr)};
  }

 private:
  const DiskModel* disk_;
  ServiceModel model_;
  std::optional<Rng> latency_rng_;
};

/// Single-disk event-driven simulation.
class DiskServerSimulator {
 public:
  static Result<DiskServerSimulator> Create(const SimulatorConfig& config);

  /// Runs `gen` through `sched` to completion and returns the metrics.
  /// Deterministic contract: the metrics (and any emitted trace) are a
  /// pure function of the config, the generator stream, and the
  /// scheduler — enforced by csfc_analyze's determinism-taint family.
  CSFC_DETERMINISTIC RunMetrics Run(RequestGenerator& gen, Scheduler& sched);

  const DiskModel& disk() const { return disk_; }

 private:
  DiskServerSimulator(const SimulatorConfig& config, DiskModel disk);

  SimulatorConfig config_;
  DiskModel disk_;
  /// Lifecycle-event tracer built from config_.trace_sink; handed to the
  /// scheduler via Scheduler::Observe at the start of each Run.
  obs::Tracer tracer_;
};

}  // namespace csfc

#endif  // CSFC_SIM_SIMULATOR_H_
