// Name-based scheduler factory covering every baseline policy plus the
// Cascaded-SFC scheduler in its common configurations. Used by the CLI
// tools and the experiment harness so a scheduler can be selected with a
// string like "edf", "scan-rt" or "csfc".

#ifndef CSFC_SCHED_REGISTRY_H_
#define CSFC_SCHED_REGISTRY_H_

#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/cascaded_scheduler.h"
#include "disk/disk_model.h"
#include "sched/scheduler.h"

namespace csfc {

/// Shared context the baseline schedulers draw parameters from.
struct SchedulerRegistryContext {
  /// Disk model for policies needing service-time estimates (fd-scan,
  /// scan-rt, dds). Must outlive the produced factories/schedulers.
  const DiskModel* disk = nullptr;
  /// Priority levels for multi-queue / bucket.
  uint32_t priority_levels = 8;
  /// BUCKET bucket count.
  uint32_t buckets = 4;
  /// SSEDO/SSEDV urgency weight.
  double ssed_alpha = 0.8;
  /// Configuration used when "csfc" is requested.
  CascadedConfig cascaded;
};

/// Builds a factory for `name`. Recognized names: fcfs, sstf, scan, look,
/// cscan, clook, edf, scan-edf, fd-scan, scan-rt, ssedo, ssedv,
/// multi-queue, bucket, dds, sfc-dds, sfc-bucket, csfc. Names needing the
/// disk model fail with FailedPrecondition when ctx.disk is null.
///
/// Configuration errors surface here, not per run. The csfc factory
/// validates ctx.cascaded and builds its encapsulator (the SFC lookup
/// tables) once; every scheduler it returns shares that encapsulator and
/// owns its own queues. A produced factory may be called from many
/// threads at once (RunParallel workers do).
Result<SchedulerFactory> MakeSchedulerFactory(
    std::string_view name, const SchedulerRegistryContext& ctx);

/// Every recognized scheduler name.
const std::vector<std::string_view>& AllSchedulerNames();

}  // namespace csfc

#endif  // CSFC_SCHED_REGISTRY_H_
