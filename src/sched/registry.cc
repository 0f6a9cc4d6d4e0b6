#include "sched/registry.h"

#include <algorithm>
#include <memory>
#include <string>

#include "sched/bucket.h"
#include "sched/dds.h"
#include "sched/edf.h"
#include "sched/extended.h"
#include "sched/fcfs.h"
#include "sched/fd_scan.h"
#include "sched/multi_queue.h"
#include "sched/scan_edf.h"
#include "sched/scan_family.h"
#include "sched/scan_rt.h"
#include "sched/ssed.h"
#include "sched/sstf.h"

namespace csfc {

namespace {

Status RequireDisk(std::string_view name, const SchedulerRegistryContext& ctx) {
  if (ctx.disk == nullptr) {
    return Status::FailedPrecondition(
        std::string(name) + " needs a DiskModel in the registry context");
  }
  return Status::OK();
}

}  // namespace

Result<SchedulerFactory> MakeSchedulerFactory(
    std::string_view name, const SchedulerRegistryContext& ctx) {
  const uint32_t cylinders =
      ctx.disk != nullptr ? ctx.disk->params().cylinders : 3832;
  if (name == "fcfs") {
    return SchedulerFactory([] { return std::make_unique<FcfsScheduler>(); });
  }
  if (name == "sstf") {
    return SchedulerFactory([] { return std::make_unique<SstfScheduler>(); });
  }
  if (name == "scan" || name == "look" || name == "cscan" ||
      name == "clook") {
    ScanVariant variant = ScanVariant::kScan;
    if (name == "look") variant = ScanVariant::kLook;
    if (name == "cscan") variant = ScanVariant::kCScan;
    if (name == "clook") variant = ScanVariant::kCLook;
    return SchedulerFactory([variant, cylinders] {
      return std::make_unique<ScanScheduler>(variant, cylinders);
    });
  }
  if (name == "edf") {
    return SchedulerFactory([] { return std::make_unique<EdfScheduler>(); });
  }
  if (name == "scan-edf") {
    return SchedulerFactory(
        [] { return std::make_unique<ScanEdfScheduler>(); });
  }
  if (name == "fd-scan") {
    if (Status s = RequireDisk(name, ctx); !s.ok()) return s;
    const DiskModel* disk = ctx.disk;
    return SchedulerFactory(
        [disk] { return std::make_unique<FdScanScheduler>(disk); });
  }
  if (name == "scan-rt") {
    if (Status s = RequireDisk(name, ctx); !s.ok()) return s;
    const DiskModel* disk = ctx.disk;
    return SchedulerFactory(
        [disk] { return std::make_unique<ScanRtScheduler>(disk); });
  }
  if (name == "ssedo" || name == "ssedv") {
    const SsedVariant variant =
        name == "ssedo" ? SsedVariant::kOrdering : SsedVariant::kValue;
    const double alpha = ctx.ssed_alpha;
    return SchedulerFactory([variant, cylinders, alpha] {
      return std::make_unique<SsedScheduler>(variant, cylinders, alpha);
    });
  }
  if (name == "multi-queue") {
    const uint32_t levels = ctx.priority_levels;
    return SchedulerFactory(
        [levels] { return std::make_unique<MultiQueueScheduler>(levels); });
  }
  if (name == "bucket") {
    const uint32_t levels = ctx.priority_levels;
    const uint32_t buckets = ctx.buckets;
    return SchedulerFactory([levels, buckets] {
      return std::make_unique<BucketScheduler>(levels, buckets);
    });
  }
  if (name == "dds") {
    if (Status s = RequireDisk(name, ctx); !s.ok()) return s;
    const DiskModel* disk = ctx.disk;
    return SchedulerFactory(
        [disk] { return std::make_unique<DdsScheduler>(disk); });
  }
  if (name == "sfc-dds") {
    if (Status s = RequireDisk(name, ctx); !s.ok()) return s;
    const DiskModel* disk = ctx.disk;
    // 16 levels per dimension over the cascaded config's dimensionality.
    const uint32_t dims =
        std::max(ctx.cascaded.encapsulator.priority_dims, 1u);
    const uint32_t bits = ctx.cascaded.encapsulator.priority_bits;
    auto probe = SfcDdsScheduler::Create(disk, ctx.cascaded.encapsulator.sfc1,
                                         dims, bits);
    if (!probe.ok()) return probe.status();
    const std::string curve = ctx.cascaded.encapsulator.sfc1;
    return SchedulerFactory([disk, curve, dims, bits]() -> SchedulerPtr {
      auto s = SfcDdsScheduler::Create(disk, curve, dims, bits);
      if (!s.ok()) return nullptr;
      return std::move(*s);
    });
  }
  if (name == "sfc-bucket") {
    const uint32_t levels = ctx.priority_levels;
    const uint32_t buckets = ctx.buckets;
    return SchedulerFactory([levels, buckets] {
      return std::make_unique<SfcBucketScheduler>(levels, buckets,
                                                  MsToSim(100.0));
    });
  }
  if (name == "csfc") {
    // Validate eagerly so a bad configuration fails here, not per run.
    // Building the encapsulator validates its half; it is immutable, so
    // every scheduler the factory returns shares this one instance.
    if (Status s = ctx.cascaded.dispatcher.Validate(); !s.ok()) return s;
    auto built = Encapsulator::Create(ctx.cascaded.encapsulator);
    if (!built.ok()) return built.status();
    std::shared_ptr<const Encapsulator> encapsulator = std::move(*built);
    const CascadedConfig config = ctx.cascaded;
    return SchedulerFactory([config, encapsulator]() -> SchedulerPtr {
      auto s = CascadedSfcScheduler::Create(config, encapsulator);
      if (!s.ok()) return nullptr;
      return std::move(*s);
    });
  }
  return Status::NotFound("unknown scheduler: " + std::string(name));
}

const std::vector<std::string_view>& AllSchedulerNames() {
  static const std::vector<std::string_view> kNames = {
      "fcfs",    "sstf",   "scan",    "look",        "cscan",  "clook",
      "edf",     "scan-edf", "fd-scan", "scan-rt",   "ssedo",  "ssedv",
      "multi-queue", "bucket", "dds",   "sfc-dds", "sfc-bucket", "csfc"};
  return kNames;
}

}  // namespace csfc
