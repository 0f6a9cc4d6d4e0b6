#include "sim/array.h"

#include <gtest/gtest.h>

#include "sched/fcfs.h"
#include "workload/mpeg.h"
#include "workload/trace.h"

namespace csfc {
namespace {

ArrayConfig BaseConfig() {
  ArrayConfig c;
  c.disk_sim.metrics.dims = 1;
  c.disk_sim.metrics.levels = 8;
  return c;
}

std::vector<Request> StreamTrace(uint32_t users, double duration_ms,
                                 double read_fraction = 1.0) {
  MpegWorkloadConfig mc;
  mc.seed = 3;
  mc.num_users = users;
  mc.duration_ms = duration_ms;
  mc.read_fraction = read_fraction;
  mc.user_phase_spread_ms = mc.PeriodMs() / 2;
  auto gen = MpegStreamGenerator::Create(mc);
  EXPECT_TRUE(gen.ok());
  return DrainGenerator(**gen);
}

TEST(ArraySimulatorTest, CreateValidation) {
  ArrayConfig c = BaseConfig();
  c.num_disks = 2;
  EXPECT_FALSE(ArraySimulator::Create(c).ok());
  c = BaseConfig();
  c.disk_sim.disk.rpm = 0;
  EXPECT_FALSE(ArraySimulator::Create(c).ok());
  EXPECT_TRUE(ArraySimulator::Create(BaseConfig()).ok());
}

TEST(ArraySimulatorTest, ReadsServeEveryRequestExactlyOnce) {
  auto sim = ArraySimulator::Create(BaseConfig());
  ASSERT_TRUE(sim.ok());
  const auto trace = StreamTrace(10, 3000, /*read_fraction=*/1.0);
  TraceReplayGenerator gen(trace);
  auto result =
      sim->Run(gen, [] { return std::make_unique<FcfsScheduler>(); });
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->per_disk.size(), 5u);
  const RunMetrics agg = result->Aggregate();
  EXPECT_EQ(agg.completions, trace.size());
}

TEST(ArraySimulatorTest, WritesAddParityRequests) {
  auto sim = ArraySimulator::Create(BaseConfig());
  ASSERT_TRUE(sim.ok());
  const auto trace = StreamTrace(10, 3000, /*read_fraction=*/0.0);
  TraceReplayGenerator gen(trace);
  auto result =
      sim->Run(gen, [] { return std::make_unique<FcfsScheduler>(); });
  ASSERT_TRUE(result.ok());
  // Every write touches the data disk plus the parity disk.
  EXPECT_EQ(result->Aggregate().completions, 2 * trace.size());
}

TEST(ArraySimulatorTest, LoadSpreadsAcrossMembers) {
  auto sim = ArraySimulator::Create(BaseConfig());
  ASSERT_TRUE(sim.ok());
  const auto trace = StreamTrace(20, 10000);
  TraceReplayGenerator gen(trace);
  auto result =
      sim->Run(gen, [] { return std::make_unique<FcfsScheduler>(); });
  ASSERT_TRUE(result.ok());
  const double expected =
      static_cast<double>(trace.size()) / 5.0;
  for (const RunMetrics& m : result->per_disk) {
    EXPECT_GT(static_cast<double>(m.completions), expected * 0.5);
    EXPECT_LT(static_cast<double>(m.completions), expected * 1.5);
  }
}

TEST(ArraySimulatorTest, NullFactoryFails) {
  auto sim = ArraySimulator::Create(BaseConfig());
  ASSERT_TRUE(sim.ok());
  const auto trace = StreamTrace(5, 1000);
  TraceReplayGenerator gen(trace);
  auto result = sim->Run(gen, []() -> SchedulerPtr { return nullptr; });
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInternal);
}

TEST(ArrayRunResultTest, AggregateSumsAndMerges) {
  ArrayRunResult r;
  RunMetrics a;
  a.completions = 10;
  a.deadline_misses = 2;
  a.deadline_total = 10;
  a.inversions_per_dim = {5, 7};
  a.total_seek_ms = 100;
  a.response_ms.Add(10.0);
  a.makespan = 500;
  RunMetrics b;
  b.completions = 20;
  b.deadline_misses = 1;
  b.deadline_total = 20;
  b.inversions_per_dim = {1, 2};
  b.total_seek_ms = 50;
  b.response_ms.Add(30.0);
  b.makespan = 700;
  r.per_disk = {a, b};
  const RunMetrics agg = r.Aggregate();
  EXPECT_EQ(agg.completions, 30u);
  EXPECT_EQ(agg.deadline_misses, 3u);
  EXPECT_EQ(agg.inversions_per_dim, (std::vector<uint64_t>{6, 9}));
  EXPECT_DOUBLE_EQ(agg.total_seek_ms, 150.0);
  EXPECT_EQ(agg.response_ms.count(), 2u);
  EXPECT_DOUBLE_EQ(agg.response_ms.mean(), 20.0);
  EXPECT_EQ(agg.makespan, 700);
}

}  // namespace
}  // namespace csfc
