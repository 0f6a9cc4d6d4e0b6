#include "exp/runner.h"

#include <optional>
#include <utility>

#include "common/thread_pool.h"

namespace csfc {

Result<RunMetrics> RunScheduler(const SimulatorConfig& sim_config,
                                RequestGenerator& gen,
                                const SchedulerFactory& factory) {
  Result<DiskServerSimulator> sim = DiskServerSimulator::Create(sim_config);
  if (!sim.ok()) return sim.status();
  SchedulerPtr sched = factory();
  if (sched == nullptr) {
    return Status::Internal("scheduler factory returned null");
  }
  return sim->Run(gen, *sched);
}

Result<RunMetrics> RunSchedulerOnTrace(const SimulatorConfig& sim_config,
                                       const std::vector<Request>& trace,
                                       const SchedulerFactory& factory) {
  TraceReplayGenerator gen(trace);
  return RunScheduler(sim_config, gen, factory);
}

double Percent(double value, double base) {
  return base == 0.0 ? 0.0 : 100.0 * value / base;
}

Result<std::vector<RunMetrics>> RunParallel(const std::vector<RunPoint>& points,
                                            unsigned num_threads,
                                            RunProgress* progress) {
  std::vector<std::optional<RunMetrics>> slots(points.size());
  std::vector<Status> errors(points.size());
  ParallelFor(points.size(), num_threads, [&](size_t i) {
    // The abort gate sits before any per-point work: a point either runs
    // in full or is skipped entirely, so `completed` counts whole
    // simulations and a skipped point never touches its result slot.
    if (progress != nullptr) {
      if (progress->aborted()) return;
      progress->started.fetch_add(1, std::memory_order_relaxed);
    }
    const RunPoint& p = points[i];
    if (p.trace == nullptr) {
      errors[i] = Status::InvalidArgument("RunPoint.trace is null");
    } else {
      Result<RunMetrics> m =
          RunSchedulerOnTrace(p.sim_config, *p.trace, p.factory);
      if (m.ok()) {
        slots[i] = std::move(*m);
      } else {
        errors[i] = m.status();
      }
    }
    if (progress != nullptr) {
      progress->completed.fetch_add(1, std::memory_order_relaxed);
    }
  });
  // Deterministic error reporting: the lowest-index failure wins, and a
  // point failure outranks the abort (aborting must not mask an error).
  for (const Status& s : errors) {
    if (!s.ok()) return s;
  }
  if (progress != nullptr && progress->aborted()) {
    return Status::Cancelled(
        "sweep aborted: " +
        std::to_string(progress->completed.load(std::memory_order_relaxed)) +
        " of " + std::to_string(points.size()) + " points completed");
  }
  std::vector<RunMetrics> results;
  results.reserve(slots.size());
  for (std::optional<RunMetrics>& slot : slots) {
    results.push_back(std::move(*slot));
  }
  return results;
}

Result<std::vector<ComparisonRow>> ComparePolicies(
    const SimulatorConfig& sim_config, const std::vector<Request>& trace,
    const std::vector<SchedulerEntry>& entries, unsigned num_threads) {
  std::vector<RunPoint> points;
  points.reserve(entries.size());
  const TracePtr shared = ShareTrace(trace);
  for (const SchedulerEntry& entry : entries) {
    points.push_back(RunPoint{sim_config, shared, entry.factory});
  }
  Result<std::vector<RunMetrics>> metrics = RunParallel(points, num_threads);
  if (!metrics.ok()) return metrics.status();
  std::vector<ComparisonRow> rows;
  rows.reserve(entries.size());
  for (size_t i = 0; i < entries.size(); ++i) {
    rows.push_back(ComparisonRow{entries[i].label, std::move((*metrics)[i])});
  }
  return rows;
}

}  // namespace csfc
