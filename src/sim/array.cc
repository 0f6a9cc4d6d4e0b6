#include "sim/array.h"

#include <algorithm>
#include <map>
#include <utility>

#include "workload/trace.h"

namespace csfc {

RunMetrics ArrayRunResult::Aggregate() const {
  RunMetrics total;
  for (const RunMetrics& m : per_disk) {
    total.arrivals += m.arrivals;
    total.completions += m.completions;
    if (total.inversions_per_dim.size() < m.inversions_per_dim.size()) {
      total.inversions_per_dim.resize(m.inversions_per_dim.size(), 0);
    }
    for (size_t k = 0; k < m.inversions_per_dim.size(); ++k) {
      total.inversions_per_dim[k] += m.inversions_per_dim[k];
    }
    total.deadline_misses += m.deadline_misses;
    total.deadline_total += m.deadline_total;
    if (total.misses_per_dim_level.size() < m.misses_per_dim_level.size()) {
      total.misses_per_dim_level.resize(m.misses_per_dim_level.size());
      total.totals_per_dim_level.resize(m.totals_per_dim_level.size());
    }
    for (size_t k = 0; k < m.misses_per_dim_level.size(); ++k) {
      auto& misses = total.misses_per_dim_level[k];
      auto& totals = total.totals_per_dim_level[k];
      if (misses.size() < m.misses_per_dim_level[k].size()) {
        misses.resize(m.misses_per_dim_level[k].size(), 0);
        totals.resize(m.totals_per_dim_level[k].size(), 0);
      }
      for (size_t l = 0; l < m.misses_per_dim_level[k].size(); ++l) {
        misses[l] += m.misses_per_dim_level[k][l];
        totals[l] += m.totals_per_dim_level[k][l];
      }
    }
    total.total_seek_ms += m.total_seek_ms;
    total.total_service_ms += m.total_service_ms;
    total.response_ms.Merge(m.response_ms);
    total.makespan = std::max(total.makespan, m.makespan);
  }
  return total;
}

Result<ArraySimulator> ArraySimulator::Create(const ArrayConfig& config) {
  Result<Raid5Layout> layout = Raid5Layout::Create(
      config.num_disks, config.blocks_per_disk, config.disk_sim.disk);
  if (!layout.ok()) return layout.status();
  if (Status s = config.disk_sim.Validate(); !s.ok()) return s;
  return ArraySimulator(config, std::move(*layout));
}

ArraySimulator::ArraySimulator(const ArrayConfig& config, Raid5Layout layout)
    : config_(config), layout_(std::move(layout)) {}

Result<ArrayRunResult> ArraySimulator::Run(RequestGenerator& gen,
                                           const SchedulerFactory& factory) {
  // Split the logical stream workload across members. Streams are placed
  // at fixed strides so different streams do not collide on one region.
  std::vector<std::vector<Request>> per_disk(layout_.num_disks());
  std::map<uint32_t, uint64_t> stream_block;
  std::map<uint32_t, uint64_t> stream_base;
  uint64_t next_base = 0;
  const uint64_t data_blocks = layout_.data_blocks();
  while (std::optional<Request> r = gen.Next()) {
    auto [it, inserted] = stream_base.try_emplace(r->stream, next_base);
    if (inserted) next_base += 1024;  // coarse stream spacing
    const uint64_t lbn =
        (it->second + stream_block[r->stream]++) % data_blocks;
    const RaidLocation loc = layout_.Map(lbn);
    Request placed = std::move(*r);
    placed.cylinder = loc.cylinder;
    // A write needs a parity sibling; take the copy before the data
    // request moves into its member queue (data first, parity second, so
    // replay order within a member is stable).
    if (placed.is_write) {
      const RaidLocation par = layout_.ParityOf(lbn);
      Request parity = placed;
      parity.cylinder = par.cylinder;
      per_disk[loc.disk].push_back(std::move(placed));
      per_disk[par.disk].push_back(std::move(parity));
    } else {
      per_disk[loc.disk].push_back(std::move(placed));
    }
  }

  ArrayRunResult result;
  result.per_disk.reserve(layout_.num_disks());
  for (uint32_t d = 0; d < layout_.num_disks(); ++d) {
    Result<DiskServerSimulator> sim =
        DiskServerSimulator::Create(config_.disk_sim);
    if (!sim.ok()) return sim.status();
    SchedulerPtr sched = factory();
    if (sched == nullptr) {
      return Status::Internal("scheduler factory returned null");
    }
    TraceReplayGenerator replay(per_disk[d]);
    result.per_disk.push_back(sim->Run(replay, *sched));
  }
  return result;
}

}  // namespace csfc
