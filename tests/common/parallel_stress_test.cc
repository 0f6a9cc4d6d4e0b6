// Concurrency stress for the parallel experiment runner, written to give
// ThreadSanitizer real interleavings to chew on (CI's tsan job runs the
// whole suite; this file is its main course). Everything here must also
// hold under the thread-safety annotations of common/mutex.h:
//
//   * RunParallel with one tracing sink per point — the supported
//     no-sharing setup — stays race-free and bit-identical to serial.
//   * A single obs::LockedSink / JsonlSink shared by every point — the
//     locked fan-in — loses no events.
//   * ThreadPool construction/drain/teardown churn under load.
//   * The parallel-determinism pin: ComparePolicies(num_threads>1) twice
//     produces bit-identical RunMetrics.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/presets.h"
#include "exp/runner.h"
#include "obs/export.h"
#include "obs/locked_sink.h"
#include "obs/vector_sink.h"
#include "sched/edf.h"
#include "sched/fcfs.h"
#include "sched/registry.h"
#include "workload/generator.h"

namespace csfc {
namespace {

/// Cascaded construction through the registry — the one sanctioned
/// construction path (tests of the class itself stay direct).
SchedulerFactory CascadedViaRegistry(const CascadedConfig& config) {
  SchedulerRegistryContext ctx;
  ctx.cascaded = config;
  auto factory = MakeSchedulerFactory("csfc", ctx);
  EXPECT_TRUE(factory.ok()) << factory.status().ToString();
  return std::move(*factory);
}

std::vector<Request> StressTrace(uint64_t seed, uint32_t count = 600) {
  WorkloadConfig wc;
  wc.count = count;
  wc.seed = seed;
  wc.priority_dims = 2;
  wc.priority_levels = 8;
  auto gen = SyntheticGenerator::Create(wc);
  EXPECT_TRUE(gen.ok());
  return DrainGenerator(**gen);
}

SimulatorConfig StressSimConfig() {
  SimulatorConfig sc;
  sc.metrics.dims = 2;
  sc.metrics.levels = 8;
  return sc;
}

// A trio of policies with different code paths: trivial queue (fcfs),
// deadline heap (edf), and the full cascaded pipeline (characterize +
// dispatcher, the code the equivalence suites guard).
std::vector<RunPoint> StressPoints(const TracePtr& trace, size_t copies) {
  const SimulatorConfig sc = StressSimConfig();
  const CascadedConfig cfg =
      PresetFull("hilbert", 2, 3, 1.0, 3, 3832, 0.05, 700.0);
  std::vector<RunPoint> points;
  for (size_t c = 0; c < copies; ++c) {
    points.push_back(
        {sc, trace, [] { return std::make_unique<FcfsScheduler>(); }});
    points.push_back(
        {sc, trace, [] { return std::make_unique<EdfScheduler>(); }});
    points.push_back({sc, trace, CascadedViaRegistry(cfg)});
  }
  return points;
}

void ExpectBitIdentical(const RunMetrics& a, const RunMetrics& b) {
  EXPECT_EQ(a.arrivals, b.arrivals);
  EXPECT_EQ(a.completions, b.completions);
  EXPECT_EQ(a.inversions_per_dim, b.inversions_per_dim);
  EXPECT_EQ(a.deadline_misses, b.deadline_misses);
  EXPECT_EQ(a.deadline_total, b.deadline_total);
  // Exact float equality on purpose: parallelism must only reassign which
  // core runs a point, never perturb its arithmetic.
  EXPECT_EQ(a.total_seek_ms, b.total_seek_ms);
  EXPECT_EQ(a.total_service_ms, b.total_service_ms);
  EXPECT_EQ(a.response_ms.mean(), b.response_ms.mean());
  EXPECT_EQ(a.makespan, b.makespan);
}

// --- per-point sinks under maximum thread pressure --------------------------

TEST(ParallelStressTest, PerPointTracingSinksSeeEveryEventRaceFree) {
  const TracePtr trace = ShareTrace(StressTrace(101));
  std::vector<RunPoint> points = StressPoints(trace, 8);  // 24 points

  // Serial reference with its own sinks.
  std::vector<RunPoint> serial_points = points;
  std::vector<obs::VectorSink> serial_recs(serial_points.size());
  for (size_t i = 0; i < serial_points.size(); ++i) {
    serial_points[i].sim_config.trace_sink = &serial_recs[i];
  }
  auto serial = RunParallel(serial_points, 1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  // Oversubscribed parallel run: more workers than cores is the point.
  std::vector<obs::VectorSink> recs(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    points[i].sim_config.trace_sink = &recs[i];
  }
  auto parallel = RunParallel(points, 8);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  ASSERT_EQ(parallel->size(), serial->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    ExpectBitIdentical((*serial)[i], (*parallel)[i]);
    EXPECT_EQ(recs[i].events.size(), serial_recs[i].events.size())
        << "point " << i;
    EXPECT_FALSE(recs[i].events.empty()) << "point " << i;
  }
}

// --- one sink shared by every point (the locked fan-in) ---------------------

TEST(ParallelStressTest, SharedLockedSinkLosesNoEvents) {
  const TracePtr trace = ShareTrace(StressTrace(102));
  std::vector<RunPoint> points = StressPoints(trace, 6);  // 18 points

  // Per-point totals from a serial reference run.
  std::vector<RunPoint> serial_points = points;
  std::vector<obs::VectorSink> serial_recs(serial_points.size());
  for (size_t i = 0; i < serial_points.size(); ++i) {
    serial_points[i].sim_config.trace_sink = &serial_recs[i];
  }
  ASSERT_TRUE(RunParallel(serial_points, 1).ok());
  uint64_t expected = 0;
  for (const auto& r : serial_recs) expected += r.events.size();

  // One event vector, every point writing through the locked adapter.
  obs::VectorSink merged;
  obs::LockedSink shared(merged);
  for (RunPoint& p : points) p.sim_config.trace_sink = &shared;
  auto parallel = RunParallel(points, 8);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  EXPECT_EQ(shared.forwarded(), expected);
  EXPECT_EQ(merged.events.size(), expected);
}

TEST(ParallelStressTest, SharedJsonlSinkKeepsLinesWhole) {
  const TracePtr trace = ShareTrace(StressTrace(103, 300));
  std::vector<RunPoint> points = StressPoints(trace, 4);  // 12 points

  obs::StringWriter out;
  obs::JsonlSink sink(out);  // internally locked; shared across points
  for (RunPoint& p : points) p.sim_config.trace_sink = &sink;
  auto parallel = RunParallel(points, 8);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  ASSERT_TRUE(sink.status().ok()) << sink.status().ToString();

  // Interleaving across points is arbitrary, but every line must be one
  // complete JSON object: count lines and brace pairs, not ordering.
  const std::string& text = out.str();
  uint64_t lines = 0;
  size_t pos = 0;
  while ((pos = text.find('\n', pos)) != std::string::npos) {
    ++lines;
    ++pos;
  }
  EXPECT_EQ(lines, sink.events_written());
  EXPECT_GT(lines, 0u);
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    ASSERT_NE(end, std::string::npos);
    ASSERT_GT(end, start);
    EXPECT_EQ(text[start], '{');
    EXPECT_EQ(text[end - 1], '}');
    start = end + 1;
  }
}

// --- ThreadPool churn -------------------------------------------------------

TEST(ParallelStressTest, ThreadPoolSurvivesConstructionChurnUnderLoad) {
  std::atomic<uint64_t> sum{0};
  for (int round = 0; round < 20; ++round) {
    ThreadPool pool(4);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&sum] { sum.fetch_add(1, std::memory_order_relaxed); });
    }
    if (round % 2 == 0) pool.Wait();  // odd rounds drain in the destructor
  }
  EXPECT_EQ(sum.load(), 20u * 64u);
}

TEST(ParallelStressTest, NestedParallelForFromPoolTasks) {
  // RunParallel points never nest pools, but nothing forbids a caller
  // doing it; the queue discipline must hold when a task spins up its own
  // pool (sibling pools, not re-entrancy into the same pool).
  std::atomic<uint64_t> leaves{0};
  ParallelFor(8, 4, [&leaves](size_t) {
    ParallelFor(16, 2,
                [&leaves](size_t) { leaves.fetch_add(1); });
  });
  EXPECT_EQ(leaves.load(), 8u * 16u);
}

// --- progress / early-abort (RunProgress atomics) ---------------------------

TEST(ParallelStressTest, ProgressCountersReachTotalAndStayMonotonic) {
  const TracePtr trace = ShareTrace(StressTrace(105, 200));
  std::vector<RunPoint> points = StressPoints(trace, 8);  // 24 points

  RunProgress progress;
  // Concurrent readers poll the counters the whole time the sweep runs —
  // the shared-mutable-aggregate path ROADMAP wanted hammered. Each
  // asserts monotonicity and the started >= completed invariant.
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  std::atomic<bool> violated{false};
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&] {
      size_t last_started = 0;
      size_t last_completed = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t c = progress.completed.load(std::memory_order_relaxed);
        const size_t s = progress.started.load(std::memory_order_relaxed);
        // `completed` read first: started is incremented before completed,
        // so a consistent snapshot can never show completed > started.
        if (s < last_started || c < last_completed || c > s) {
          violated.store(true, std::memory_order_relaxed);
        }
        last_started = s;
        last_completed = c;
      }
    });
  }

  auto result = RunParallel(points, 8, &progress);
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(violated.load());
  EXPECT_EQ(progress.started.load(), points.size());
  EXPECT_EQ(progress.completed.load(), points.size());

  // The progress plumbing must not perturb results: identical to a run
  // without it.
  auto plain = RunParallel(points, 1);
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(result->size(), plain->size());
  for (size_t i = 0; i < plain->size(); ++i) {
    ExpectBitIdentical((*result)[i], (*plain)[i]);
  }
}

TEST(ParallelStressTest, AbortBeforeStartSkipsEveryPoint) {
  const TracePtr trace = ShareTrace(StressTrace(106, 100));
  std::vector<RunPoint> points = StressPoints(trace, 4);

  RunProgress progress;
  progress.RequestAbort();
  auto result = RunParallel(points, 4, &progress);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  EXPECT_EQ(progress.started.load(), 0u);
  EXPECT_EQ(progress.completed.load(), 0u);
}

TEST(ParallelStressTest, MidSweepAbortStopsCleanlyOrFinishes) {
  const TracePtr trace = ShareTrace(StressTrace(107, 200));
  std::vector<RunPoint> points = StressPoints(trace, 16);  // 48 points

  RunProgress progress;
  // A watcher aborts once a few points have completed. The race between
  // the abort and the last point is inherent; the contract is only that
  // the outcome is one of two clean states, with coherent counters.
  std::thread watcher([&] {
    while (progress.completed.load(std::memory_order_relaxed) < 3) {
      std::this_thread::yield();
    }
    progress.RequestAbort();
  });
  auto result = RunParallel(points, 8, &progress);
  watcher.join();

  const size_t started = progress.started.load();
  const size_t completed = progress.completed.load();
  EXPECT_EQ(started, completed);  // no point left mid-flight after return
  EXPECT_LE(completed, points.size());
  EXPECT_GE(completed, 3u);
  if (result.ok()) {
    // The watcher lost the race: every point finished before the abort
    // landed. Legal, but then the result must be complete.
    EXPECT_EQ(completed, points.size());
    EXPECT_EQ(result->size(), points.size());
  } else {
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
  }
}

TEST(ParallelStressTest, AbortNeverMasksAPointError) {
  const TracePtr trace = ShareTrace(StressTrace(108, 100));
  std::vector<RunPoint> points = StressPoints(trace, 2);
  points[1].trace = nullptr;  // guaranteed InvalidArgument from point 1

  RunProgress progress;
  auto clean = RunParallel(points, 2, &progress);
  ASSERT_FALSE(clean.ok());
  EXPECT_EQ(clean.status().code(), StatusCode::kInvalidArgument);

  // Same failing sweep with an abort racing in: the point error still
  // wins over Cancelled (lowest-index deterministic reporting).
  RunProgress aborted;
  std::thread watcher([&] {
    while (aborted.completed.load(std::memory_order_relaxed) < 1) {
      std::this_thread::yield();
    }
    aborted.RequestAbort();
  });
  auto result = RunParallel(points, 2, &aborted);
  watcher.join();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

// --- calendar-queue rekey under thread pressure -----------------------------

TEST(ParallelStressTest, CalendarBackendRekeyBatchesAreRaceFreeAndDeterministic) {
  // Every point runs the full cascaded pipeline on the calendar queue
  // with swap-time re-characterization on, so RekeyWaitingBatch —
  // the calendar's bucket-sweep + migration path — executes continuously
  // on every worker thread. All 24 points call one csfc factory, so their
  // schedulers share its one immutable Encapsulator and read its lookup
  // tables from eight threads at once, while each keeps its own
  // dispatcher. TSan must see no races in the slab/storage handling or
  // the shared encapsulator, and an 8-thread sweep must stay bit-identical
  // to the serial reference.
  const TracePtr traces[] = {ShareTrace(StressTrace(109)),
                             ShareTrace(StressTrace(110)),
                             ShareTrace(StressTrace(111))};
  const SimulatorConfig sc = StressSimConfig();
  const SchedulerFactory shared = CascadedViaRegistry(
      PresetFull("hilbert", 2, 3, 1.0, 3, 3832, 0.05, 700.0));
  std::vector<RunPoint> points;
  for (size_t i = 0; i < 24; ++i) {
    points.push_back({sc, traces[i % 3], shared});
  }

  auto serial = RunParallel(points, 1);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  auto parallel = RunParallel(points, 8);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  ASSERT_EQ(parallel->size(), serial->size());
  for (size_t i = 0; i < serial->size(); ++i) {
    ExpectBitIdentical((*serial)[i], (*parallel)[i]);
  }
}

// --- the parallel-determinism pin -------------------------------------------

TEST(ParallelStressTest, ComparePoliciesTwiceIsBitIdentical) {
  const auto trace = StressTrace(104);
  const SimulatorConfig sc = StressSimConfig();
  const CascadedConfig cfg =
      PresetFull("hilbert", 2, 3, 1.0, 3, 3832, 0.05, 700.0);
  std::vector<SchedulerEntry> entries;
  entries.push_back(
      {"fcfs", [] { return std::make_unique<FcfsScheduler>(); }});
  entries.push_back({"edf", [] { return std::make_unique<EdfScheduler>(); }});
  entries.push_back({"csfc", CascadedViaRegistry(cfg)});

  auto first = ComparePolicies(sc, trace, entries, 4);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = ComparePolicies(sc, trace, entries, 4);
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  ASSERT_EQ(first->size(), entries.size());
  ASSERT_EQ(second->size(), entries.size());
  for (size_t i = 0; i < first->size(); ++i) {
    EXPECT_EQ((*first)[i].label, (*second)[i].label);
    ExpectBitIdentical((*first)[i].metrics, (*second)[i].metrics);
  }
}

}  // namespace
}  // namespace csfc
