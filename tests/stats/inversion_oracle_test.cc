// Priority-inversion accounting against a brute-force oracle, for every
// registered scheduler. MetricsCollector counts inversions from per-level
// tallies of the requests that arrived and were not yet dispatched; the
// oracle instead mirrors each scheduler's queue and, at every dispatch,
// compares the dispatched request against every request still waiting.
// The two must agree on overloaded queues, on traces whose requests carry
// fewer or more dimensions than the collector tracks, levels past the
// configured grid up to 2^32-1, and repeated request ids.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/random.h"
#include "sched/registry.h"
#include "sim/simulator.h"
#include "workload/trace.h"

namespace csfc {
namespace {

/// Forwards to `inner`, mirroring its queue: every Enqueue is copied into
/// a vector, and every Dispatch erases an equal copy, then recounts the
/// dispatch's inversions over the mirror, request by request.
class InversionOracle final : public Scheduler {
 public:
  InversionOracle(SchedulerPtr inner, uint32_t dims)
      : inner_(std::move(inner)), inversions_(dims, 0) {}

  std::string_view name() const override { return inner_->name(); }

  void Enqueue(Request r, const DispatchContext& ctx) override {
    waiting_.push_back(r);
    inner_->Enqueue(std::move(r), ctx);
  }

  std::optional<Request> Dispatch(const DispatchContext& ctx) override {
    std::optional<Request> r = inner_->Dispatch(ctx);
    if (!r) return r;
    const auto it = std::find_if(
        waiting_.begin(), waiting_.end(),
        [&](const Request& w) { return SameRequest(w, *r); });
    if (it == waiting_.end()) {
      ADD_FAILURE() << name() << " dispatched a request it was not given: "
                    << r->DebugString();
      return r;
    }
    waiting_.erase(it);
    for (const Request& w : waiting_) {
      const size_t dims = std::min(inversions_.size(), w.priorities.size());
      for (size_t k = 0; k < dims; ++k) {
        if (w.priorities[k] < r->priority(k)) ++inversions_[k];
      }
    }
    return r;
  }

  size_t queue_size() const override { return inner_->queue_size(); }
  void Observe(obs::Tracer& tracer) override { inner_->Observe(tracer); }

  const std::vector<uint64_t>& inversions() const { return inversions_; }
  size_t mirrored() const { return waiting_.size(); }

 private:
  static bool SameRequest(const Request& a, const Request& b) {
    return a.id == b.id && a.arrival == b.arrival &&
           a.deadline == b.deadline && a.cylinder == b.cylinder &&
           a.bytes == b.bytes && a.is_write == b.is_write &&
           a.stream == b.stream && a.priorities == b.priorities;
  }

  SchedulerPtr inner_;
  std::vector<Request> waiting_;
  std::vector<uint64_t> inversions_;
};

constexpr uint32_t kDims = 3;
constexpr uint32_t kLevels = 16;

/// A few hundred requests at 2 ms interarrival (the queue builds up), ids
/// repeating in pairs, 0-5 priority dimensions against the 3 tracked, and
/// levels mostly on the 16-level grid, some past it, some at the top of
/// the uint32 range.
std::vector<Request> OracleTrace() {
  Rng rng(4242);
  std::vector<Request> trace;
  for (uint32_t i = 0; i < 400; ++i) {
    Request r;
    r.id = i / 2;
    r.arrival = MsToSim(2.0 * i);
    if (rng() % 5 != 0) {
      r.deadline = r.arrival + MsToSim(50.0 + static_cast<double>(rng() % 600));
    }
    r.cylinder = static_cast<Cylinder>(rng() % 3832);
    r.bytes = 16 * 1024 + (rng() % 4) * 16 * 1024;
    const uint64_t dims = rng() % 6;
    for (uint64_t k = 0; k < dims; ++k) {
      const uint64_t pick = rng() % 10;
      PriorityLevel level = static_cast<PriorityLevel>(rng() % kLevels);
      if (pick == 8) level = kLevels + static_cast<PriorityLevel>(rng() % 5000);
      if (pick == 9) {
        level = std::numeric_limits<PriorityLevel>::max() -
                static_cast<PriorityLevel>(rng() % 3);
      }
      r.priorities.push_back(level);
    }
    trace.push_back(std::move(r));
  }
  return trace;
}

class InversionOracleTest : public ::testing::TestWithParam<std::string> {};

TEST_P(InversionOracleTest, IncrementalCountsMatchBruteForce) {
  SimulatorConfig sc;
  sc.metrics.dims = kDims;
  sc.metrics.levels = kLevels;
  auto sim = DiskServerSimulator::Create(sc);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();

  SchedulerRegistryContext ctx;
  ctx.disk = &sim->disk();
  ctx.priority_levels = kLevels;
  auto factory = MakeSchedulerFactory(GetParam(), ctx);
  ASSERT_TRUE(factory.ok()) << factory.status().ToString();

  const std::vector<Request> trace = OracleTrace();
  InversionOracle oracle((*factory)(), kDims);
  TraceReplayGenerator gen(trace);
  const RunMetrics m = sim->Run(gen, oracle);

  ASSERT_EQ(m.completions, trace.size());
  EXPECT_EQ(oracle.mirrored(), 0u);
  EXPECT_EQ(m.inversions_per_dim, oracle.inversions());
  // The trace is adversarial enough that every dimension sees some.
  for (uint64_t v : m.inversions_per_dim) EXPECT_GT(v, 0u);
}

std::vector<std::string> AllNames() {
  std::vector<std::string> names;
  for (std::string_view n : AllSchedulerNames()) names.emplace_back(n);
  return names;
}

std::string ParamName(const ::testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  std::replace(name.begin(), name.end(), '-', '_');
  return name;
}

INSTANTIATE_TEST_SUITE_P(AllSchedulers, InversionOracleTest,
                         ::testing::ValuesIn(AllNames()), ParamName);

}  // namespace
}  // namespace csfc
