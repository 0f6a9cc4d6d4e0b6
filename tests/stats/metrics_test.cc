#include "stats/metrics.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <set>
#include <vector>

#include "common/random.h"

namespace csfc {
namespace {

Request Req(std::initializer_list<PriorityLevel> pris,
            SimTime deadline = kNoDeadline) {
  Request r;
  for (PriorityLevel p : pris) r.priorities.push_back(p);
  r.deadline = deadline;
  return r;
}

TEST(RunMetricsTest, TotalInversionsSumsDims) {
  RunMetrics m;
  m.inversions_per_dim = {3, 5, 2};
  EXPECT_EQ(m.total_inversions(), 10u);
}

TEST(RunMetricsTest, InversionStddev) {
  RunMetrics m;
  m.inversions_per_dim = {2, 4, 6};  // mean 4, var 8/3
  EXPECT_NEAR(m.inversion_stddev(), std::sqrt(8.0 / 3.0), 1e-9);
  m.inversions_per_dim = {5, 5, 5};
  EXPECT_DOUBLE_EQ(m.inversion_stddev(), 0.0);
  m.inversions_per_dim.clear();
  EXPECT_DOUBLE_EQ(m.inversion_stddev(), 0.0);
}

TEST(RunMetricsTest, MinDimInversions) {
  RunMetrics m;
  m.inversions_per_dim = {9, 3, 7};
  EXPECT_EQ(m.min_dim_inversions(), 3u);
}

TEST(RunMetricsTest, WeightedLossCostLinearWeights) {
  RunMetrics m;
  // 4 levels; weights 11, 11+(10/3)*-1... linear from 11 to 1:
  // w = {11, 11-10/3, 11-20/3, 1}.
  m.misses_per_dim_level = {{1, 0, 2, 4}};
  m.totals_per_dim_level = {{2, 5, 4, 4}};
  const double expected = 11.0 * 0.5 + (11.0 - 10.0 / 3.0) * 0.0 +
                          (11.0 - 20.0 / 3.0) * 0.5 + 1.0 * 1.0;
  EXPECT_NEAR(m.WeightedLossCost(0, 11.0, 1.0), expected, 1e-9);
}

TEST(RunMetricsTest, WeightedLossCostSkipsEmptyLevels) {
  RunMetrics m;
  m.misses_per_dim_level = {{0, 0}};
  m.totals_per_dim_level = {{0, 0}};
  EXPECT_DOUBLE_EQ(m.WeightedLossCost(), 0.0);
}

TEST(RunMetricsTest, WeightedLossCostOutOfRangeDim) {
  RunMetrics m;
  EXPECT_DOUBLE_EQ(m.WeightedLossCost(3), 0.0);
}

TEST(MetricsCollectorTest, ArrivalAndCompletionCounts) {
  MetricsCollector c(MetricsConfig{.dims = 1, .levels = 8});
  const Request r = Req({2}, MsToSim(100));
  c.OnArrival(r);
  c.OnCompletion(r, MsToSim(50), 1.5, 10.0);
  const RunMetrics& m = c.metrics();
  EXPECT_EQ(m.arrivals, 1u);
  EXPECT_EQ(m.completions, 1u);
  EXPECT_DOUBLE_EQ(m.total_seek_ms, 1.5);
  EXPECT_DOUBLE_EQ(m.total_service_ms, 10.0);
  EXPECT_EQ(m.deadline_total, 1u);
  EXPECT_EQ(m.deadline_misses, 0u);
}

TEST(MetricsCollectorTest, LateCompletionIsMiss) {
  MetricsCollector c(MetricsConfig{.dims = 1, .levels = 8});
  const Request r = Req({6}, MsToSim(100));
  c.OnCompletion(r, MsToSim(150), 0, 0);
  EXPECT_EQ(c.metrics().deadline_misses, 1u);
  EXPECT_EQ(c.metrics().misses_per_dim_level[0][6], 1u);
}

TEST(MetricsCollectorTest, ExactlyOnTimeIsNotAMiss) {
  MetricsCollector c(MetricsConfig{.dims = 0, .levels = 1});
  Request r;
  r.deadline = MsToSim(100);
  c.OnCompletion(r, MsToSim(100), 0, 0);
  EXPECT_EQ(c.metrics().deadline_misses, 0u);
}

TEST(MetricsCollectorTest, RelaxedDeadlinesNotTracked) {
  MetricsCollector c(MetricsConfig{.dims = 0, .levels = 1});
  Request r;  // kNoDeadline
  c.OnCompletion(r, MsToSim(5000), 0, 0);
  EXPECT_EQ(c.metrics().deadline_total, 0u);
}

TEST(MetricsCollectorTest, InversionsAgainstWaitingQueue) {
  MetricsCollector c(MetricsConfig{.dims = 2, .levels = 8});
  const Request dispatched = Req({3, 3});
  c.OnArrival(Req({0, 5}));  // higher on dim 0
  c.OnArrival(Req({7, 1}));  // higher on dim 1
  c.OnArrival(dispatched);
  c.OnDispatch(dispatched, /*queue_depth=*/2);
  EXPECT_EQ(c.metrics().inversions_per_dim[0], 1u);
  EXPECT_EQ(c.metrics().inversions_per_dim[1], 1u);
}

TEST(MetricsCollectorTest, EqualLevelsAreNotInversions) {
  MetricsCollector c(MetricsConfig{.dims = 1, .levels = 8});
  c.OnArrival(Req({3}));
  c.OnArrival(Req({3}));
  c.OnDispatch(Req({3}), /*queue_depth=*/1);
  EXPECT_EQ(c.metrics().total_inversions(), 0u);
}

TEST(MetricsCollectorTest, InversionsCountOnlyStillWaitingRequests) {
  MetricsCollector c(MetricsConfig{.dims = 1, .levels = 8});
  c.OnArrival(Req({1}));
  c.OnArrival(Req({5}));
  c.OnArrival(Req({6}));
  c.OnDispatch(Req({1}), /*queue_depth=*/2);  // nothing more important
  c.OnDispatch(Req({6}), /*queue_depth=*/1);  // level 5 waits: one
  c.OnDispatch(Req({5}), /*queue_depth=*/0);  // 1 and 6 already left
  EXPECT_EQ(c.metrics().total_inversions(), 1u);
}

TEST(MetricsCollectorTest, LevelsBeyondTheGridCountExactly) {
  // Trace replays may carry any uint32 level, and fewer (or more)
  // dimensions than the collector tracks.
  MetricsCollector c(MetricsConfig{.dims = 2, .levels = 4});
  const Request none = Req({});
  c.OnArrival(none);
  c.OnArrival(Req({3, 9}));
  c.OnArrival(Req({9}));
  c.OnArrival(Req({4000000000u, 2, 1}));
  const Request top = Req({4294967295u, 4294967295u});
  c.OnArrival(top);
  c.OnDispatch(top, /*queue_depth=*/4);
  EXPECT_EQ(c.metrics().inversions_per_dim[0], 3u);
  EXPECT_EQ(c.metrics().inversions_per_dim[1], 2u);
  c.OnDispatch(Req({9}), /*queue_depth=*/3);  // only level 3 is below 9
  EXPECT_EQ(c.metrics().inversions_per_dim[0], 4u);
  c.OnDispatch(none, /*queue_depth=*/2);  // no levels: no inversions
  EXPECT_EQ(c.metrics().total_inversions(), 6u);
}

/// One random level for a request on a `levels` grid: half the draws come
/// from a small pool (block edges, the grid's last level and the levels
/// just past it, the top of the uint32 range) so that equal levels and
/// boundary cases recur; the rest are uniform over the grid and a little
/// beyond, or over all of uint32.
PriorityLevel RandomLevel(Rng& rng, uint32_t levels) {
  constexpr uint32_t kMax = std::numeric_limits<uint32_t>::max();
  const uint32_t pool[] = {0,          1,          15,       16,
                           17,         31,         32,       levels - 1,
                           levels,     levels + 1, kMax - 1, kMax,
                           levels / 2, levels / 3};
  switch (rng.Uniform(4)) {
    case 0:
    case 1:
      return pool[rng.Uniform(std::size(pool))];
    case 2:
      return static_cast<PriorityLevel>(rng.Uniform(uint64_t{levels} + 3));
    default:
      return static_cast<PriorityLevel>(rng.Uniform(uint64_t{kMax} + 1));
  }
}

TEST(MetricsCollectorTest, InversionsMatchAMultisetOracle) {
  // Random arrivals and dispatches against an oracle that keeps each
  // dimension's waiting levels in a std::multiset and counts the levels
  // below the dispatched one directly. Every grid size around the 16-level
  // block edges, a 256-block and a 6,250-block grid; requests carry 0 to
  // 12 levels against 0 to 12 tracked dimensions; the queue drains to
  // empty at the end, so every level's last request leaves.
  Rng rng(20041);
  for (const uint32_t levels : {1u, 2u, 15u, 16u, 17u, 64u, 4096u, 100000u}) {
    for (uint32_t dims = 0; dims <= kMaxPriorityDims; ++dims) {
      SCOPED_TRACE(testing::Message() << levels << " levels, " << dims
                                      << " dims");
      MetricsCollector c(MetricsConfig{.dims = dims, .levels = levels});
      std::vector<std::multiset<PriorityLevel>> oracle(dims);
      std::vector<uint64_t> expected(dims, 0);
      std::vector<Request> waiting;
      const auto dispatch = [&] {
        const size_t i = rng.Uniform(waiting.size());
        const Request r = waiting[i];
        waiting[i] = waiting.back();
        waiting.pop_back();
        for (size_t k = 0; k < std::min<size_t>(dims, r.priorities.size());
             ++k) {
          std::multiset<PriorityLevel>& w = oracle[k];
          w.erase(w.find(r.priorities[k]));
          expected[k] += static_cast<uint64_t>(
              std::distance(w.begin(), w.lower_bound(r.priorities[k])));
        }
        c.OnDispatch(r, waiting.size());
        ASSERT_EQ(c.metrics().inversions_per_dim, expected);
      };
      for (int step = 0; step < 600; ++step) {
        // Arrivals outnumber dispatches while the queue is short, so it
        // grows to a few dozen requests and then hovers.
        if (waiting.empty() || rng.Uniform(64) >= waiting.size()) {
          Request r;
          const uint64_t n = rng.Uniform(kMaxPriorityDims + 1);
          for (uint64_t k = 0; k < n; ++k) {
            r.priorities.push_back(RandomLevel(rng, levels));
          }
          for (size_t k = 0; k < std::min<size_t>(dims, n); ++k) {
            oracle[k].insert(r.priorities[k]);
          }
          c.OnArrival(r);
          waiting.push_back(r);
        } else {
          ASSERT_NO_FATAL_FAILURE(dispatch());
        }
      }
      while (!waiting.empty()) ASSERT_NO_FATAL_FAILURE(dispatch());
      // Drained: nothing waits below even the highest level.
      const Request top = Req({std::numeric_limits<uint32_t>::max()});
      c.OnArrival(top);
      c.OnDispatch(top, /*queue_depth=*/0);
      EXPECT_EQ(c.metrics().inversions_per_dim, expected);
    }
  }
}

TEST(MetricsCollectorTest, ResponseTimeTracked) {
  MetricsCollector c(MetricsConfig{.dims = 0, .levels = 1});
  Request r;
  r.arrival = MsToSim(10);
  c.OnCompletion(r, MsToSim(35), 0, 0);
  EXPECT_DOUBLE_EQ(c.metrics().response_ms.mean(), 25.0);
  EXPECT_EQ(c.metrics().makespan, MsToSim(35));
}

TEST(MetricsCollectorTest, LevelsAboveRangeClamp) {
  MetricsCollector c(MetricsConfig{.dims = 1, .levels = 4});
  const Request r = Req({9}, MsToSim(10));
  c.OnCompletion(r, MsToSim(50), 0, 0);
  EXPECT_EQ(c.metrics().misses_per_dim_level[0][3], 1u);
}

TEST(MetricsCollectorTest, PerLevelResponseTracked) {
  MetricsCollector c(MetricsConfig{.dims = 1, .levels = 4});
  Request hi = Req({0});
  hi.arrival = 0;
  Request lo = Req({3});
  lo.arrival = 0;
  c.OnCompletion(hi, MsToSim(10), 0, 0);
  c.OnCompletion(lo, MsToSim(400), 0, 0);
  c.OnCompletion(lo, MsToSim(100), 0, 0);
  ASSERT_EQ(c.metrics().response_per_level.size(), 4u);
  EXPECT_EQ(c.metrics().response_per_level[0].count(), 1u);
  EXPECT_DOUBLE_EQ(c.metrics().response_per_level[0].mean(), 10.0);
  EXPECT_EQ(c.metrics().response_per_level[3].count(), 2u);
  EXPECT_DOUBLE_EQ(c.metrics().response_per_level[3].max(), 400.0);
  EXPECT_EQ(c.metrics().response_per_level[1].count(), 0u);
}

TEST(MetricsCollectorTest, NoLevelsNoPerLevelStats) {
  MetricsCollector c(MetricsConfig{.dims = 0, .levels = 8});
  Request r;
  c.OnCompletion(r, MsToSim(5), 0, 0);
  EXPECT_TRUE(c.metrics().response_per_level.empty());
}

TEST(MetricsCollectorTest, MeanSeek) {
  MetricsCollector c(MetricsConfig{.dims = 0, .levels = 1});
  Request r;
  c.OnCompletion(r, 1, 4.0, 5.0);
  c.OnCompletion(r, 2, 6.0, 7.0);
  EXPECT_DOUBLE_EQ(c.metrics().mean_seek_ms(), 5.0);
}

}  // namespace
}  // namespace csfc
