// Streamed vs materialized workloads. csfc_sim runs the simulator
// straight off tools::MakeWorkloadGenerator (RunScheduler), and so do
// csfc_serve --virtual and the golden ledger's serve entries, whose
// RunVirtual runs the simulator's own event loop (sim/event_loop.h).
// Callers that need the whole stream up front (csfc_serve's wall-clock
// producers, perfbench) drain the same generator, as BuildWorkload does,
// and replay the vector (RunSchedulerOnTrace).
// Both paths must feed the event loop the same stream, and so export the
// same bytes: the RunMetrics document and the JSONL lifecycle trace, for
// every registered scheduler and workload family.

#include <algorithm>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cli_flags.h"
#include "core/cascaded_scheduler.h"
#include "exp/runner.h"
#include "gtest/gtest.h"
#include "obs/export.h"
#include "sched/registry.h"
#include "sim/simulator.h"

namespace csfc {
namespace tools {
namespace {

WorkloadFlags Flags(const std::string& kind, double interarrival_ms = 25.0) {
  WorkloadFlags wf;
  wf.kind = kind;
  wf.cfg.seed = 7;
  wf.cfg.count = 3000;
  wf.cfg.mean_interarrival_ms = interarrival_ms;
  wf.users = 6;             // mpeg streams / edl editors
  wf.duration_ms = 3000.0;  // mpeg horizon
  return wf;
}

/// Overload (2 ms: the backlog grows with the run), the paper's load
/// (25 ms), and the two stream families.
std::vector<WorkloadFlags> AllWorkloads() {
  return {Flags("synthetic", 2.0), Flags("synthetic", 25.0), Flags("mpeg"),
          Flags("edl")};
}

TEST(MakeWorkloadGeneratorTest, StreamsWhatBuildWorkloadDrains) {
  for (const WorkloadFlags& wf : AllWorkloads()) {
    SCOPED_TRACE(wf.kind);
    auto drained = BuildWorkload(wf);
    ASSERT_TRUE(drained.ok()) << drained.status().ToString();
    ASSERT_FALSE(drained->empty());
    auto gen = MakeWorkloadGenerator(wf);
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    size_t i = 0;
    while (std::optional<Request> r = (*gen)->Next()) {
      ASSERT_LT(i, drained->size());
      EXPECT_EQ(FormatTraceLine(*r), FormatTraceLine((*drained)[i]));
      ++i;
    }
    EXPECT_EQ(i, drained->size());
  }
}

TEST(MakeWorkloadGeneratorTest, UnknownKindIsInvalidArgument) {
  WorkloadFlags wf;
  wf.kind = "zipf";
  EXPECT_EQ(MakeWorkloadGenerator(wf).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(BuildWorkload(wf).status().code(), StatusCode::kInvalidArgument);
}

/// Everything one run exports: the metrics document and, when traced,
/// the lifecycle event stream.
struct Exported {
  std::string metrics;
  std::string events;
};

/// Runs `sched` over the workload `wf` describes, configured as csfc_sim
/// configures it. `streamed` pulls arrivals from a fresh generator;
/// otherwise the workload is drained first and the vector replayed.
Result<Exported> RunOnce(const std::string& sched, const WorkloadFlags& wf,
                         bool streamed, bool traced) {
  SchedulerFlags sf;
  sf.sched = sched;
  ServerConfig config;
  if (Status s = ApplySchedulerFlags(sf, wf, &config); !s.ok()) return s;
  obs::StringWriter events;
  obs::JsonlSink sink(events);
  if (traced) config.WithTraceSink(&sink);
  if (Status s = config.Validate(); !s.ok()) return s;
  auto disk = DiskModel::Create(config.sim.disk);
  if (!disk.ok()) return disk.status();
  auto factory = config.MakeFactory(*disk);
  if (!factory.ok()) return factory.status();

  auto run = [&]() -> Result<RunMetrics> {
    if (streamed) {
      auto gen = MakeWorkloadGenerator(wf);
      if (!gen.ok()) return gen.status();
      return RunScheduler(config.sim, **gen, *factory);
    }
    auto trace = BuildWorkload(wf);
    if (!trace.ok()) return trace.status();
    return RunSchedulerOnTrace(config.sim, *trace, *factory);
  };
  Result<RunMetrics> metrics = run();
  if (!metrics.ok()) return metrics.status();
  if (!sink.status().ok()) return sink.status();
  return Exported{metrics->ToJson(), events.Take()};
}

class StreamedRunTest : public ::testing::TestWithParam<std::string> {};

TEST_P(StreamedRunTest, ExportsMatchTheReplayedTrace) {
  for (const WorkloadFlags& wf : AllWorkloads()) {
    for (const bool traced : {false, true}) {
      SCOPED_TRACE(wf.kind + " @ " +
                   std::to_string(wf.cfg.mean_interarrival_ms) + " ms" +
                   (traced ? ", traced" : ""));
      auto streamed = RunOnce(GetParam(), wf, /*streamed=*/true, traced);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      auto replayed = RunOnce(GetParam(), wf, /*streamed=*/false, traced);
      ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
      EXPECT_EQ(streamed->metrics, replayed->metrics);
      EXPECT_EQ(streamed->events, replayed->events);
      EXPECT_EQ(streamed->events.empty(), !traced);
    }
  }
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

INSTANTIATE_TEST_SUITE_P(AllSchedulers, StreamedRunTest,
                         ::testing::ValuesIn(AllNames()), ParamName);

// csfc as csfc_sim configures it refines its calendar only once the
// backlog outgrows kScanInsertMax entries per starting bucket (~32.7k
// requests): overload at 10^4 requests peaks near 9.2k deep and ends on
// the starting geometry, 10^5 requests end on the finest one.
TEST(CalendarGeometryTest, OnlyADeepBacklogRefinesTheCalendar) {
  for (const uint64_t count : {uint64_t{10000}, uint64_t{100000}}) {
    SCOPED_TRACE(count);
    WorkloadFlags wf;
    wf.cfg.count = count;
    wf.cfg.mean_interarrival_ms = 2.0;
    ServerConfig config;
    ASSERT_TRUE(ApplySchedulerFlags(SchedulerFlags{}, wf, &config).ok());
    auto disk = DiskModel::Create(config.sim.disk);
    ASSERT_TRUE(disk.ok());
    auto factory = config.MakeFactory(*disk);
    ASSERT_TRUE(factory.ok());
    SchedulerPtr sched = (*factory)();
    const auto* csfc = dynamic_cast<const CascadedSfcScheduler*>(sched.get());
    ASSERT_NE(csfc, nullptr);
    const uint32_t start = csfc->dispatcher().calendar_buckets();
    EXPECT_LT(start, BucketedSlotHeap::kMaxBuckets);

    auto sim = DiskServerSimulator::Create(config.sim);
    ASSERT_TRUE(sim.ok());
    auto gen = MakeWorkloadGenerator(wf);
    ASSERT_TRUE(gen.ok());
    EXPECT_EQ(sim->Run(**gen, *sched).completions, count);
    EXPECT_EQ(csfc->dispatcher().calendar_buckets(),
              count == 10000 ? start : BucketedSlotHeap::kMaxBuckets);
  }
}

}  // namespace
}  // namespace tools
}  // namespace csfc
