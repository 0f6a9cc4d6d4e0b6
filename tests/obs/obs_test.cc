// Observability-layer tests: the JSON writer/parser pair, JSONL export
// round trips, SLO windows, and — against a real simulator run — the
// per-request lifecycle ordering
// invariant (arrival <= characterize <= enqueue <= dispatch <= completion)
// plus agreement between trace aggregates and RunMetrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <sstream>

#include "core/presets.h"
#include "exp/runner.h"
#include "exp/table.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/slo.h"
#include "obs/vector_sink.h"
#include "sched/fcfs.h"
#include "sched/registry.h"
#include "workload/generator.h"

namespace csfc {
namespace obs {
namespace {

TraceEvent MakeEvent(TraceEventKind kind, double t_ms, RequestId id) {
  TraceEvent e;
  e.kind = kind;
  e.t = MsToSim(t_ms);
  e.id = id;
  return e;
}

// -------------------------------------------------------------- JSON layer

TEST(JsonWriterTest, WritesNestedDocument) {
  JsonWriter w;
  w.BeginObject();
  w.Field("name", "a\"b\\c\n");
  w.Key("values");
  w.BeginArray();
  w.Value(1).Value(2.5).Value(true);
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"name\":\"a\\\"b\\\\c\\n\",\"values\":[1,2.5,true]}");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Value(std::nan("")).Value(HUGE_VAL).Value(1.0);
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null,1]");
}

TEST(JsonParseTest, RoundTripsWriterOutput) {
  JsonWriter w;
  w.BeginObject();
  w.Field("s", "x y\tz");
  w.Field("n", 3.14159);
  w.Field("i", uint64_t{1234567890123ULL});
  w.Field("b", false);
  w.EndObject();

  auto parsed = ParseFlatJsonObject(w.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonObject& obj = *parsed;
  ASSERT_EQ(obj.size(), 4u);
  EXPECT_EQ(obj.at("s").str, "x y\tz");
  EXPECT_DOUBLE_EQ(obj.at("n").num, 3.14159);
  EXPECT_DOUBLE_EQ(obj.at("i").num, 1234567890123.0);
  EXPECT_FALSE(obj.at("b").boolean);
}

TEST(JsonParseTest, DecodesUnicodeEscapes) {
  auto parsed = ParseFlatJsonObject("{\"k\": \"\\u00e9\\u0041\"}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->at("k").str, "\xC3\xA9"  "A");
}

TEST(JsonParseTest, RejectsNestedContainersAndGarbage) {
  EXPECT_FALSE(ParseFlatJsonObject("{\"k\": {\"x\": 1}}").ok());
  EXPECT_FALSE(ParseFlatJsonObject("{\"k\": [1, 2]}").ok());
  EXPECT_FALSE(ParseFlatJsonObject("{\"k\": 1} trailing").ok());
  EXPECT_FALSE(ParseFlatJsonObject("not json").ok());
  EXPECT_FALSE(ParseFlatJsonObject("{\"k\": }").ok());
}

// ----------------------------------------------------------- JSONL export

TEST(ExportTest, TraceEventJsonRoundTripsEveryKind) {
  std::vector<TraceEvent> events;
  {
    TraceEvent e = MakeEvent(TraceEventKind::kArrival, 1.5, 7);
    e.cylinder = 123;
    e.level = 3;
    e.deadline = MsToSim(99.25);
    events.push_back(e);
  }
  {
    TraceEvent e = MakeEvent(TraceEventKind::kCharacterize, 1.5, 7);
    e.v1 = 0.25;
    e.v2 = 0.5;
    e.vc = 0.75;
    e.rekey = true;
    events.push_back(e);
  }
  {
    TraceEvent e = MakeEvent(TraceEventKind::kEnqueue, 1.5, 7);
    e.queue_depth = 4;
    events.push_back(e);
  }
  {
    TraceEvent e = MakeEvent(TraceEventKind::kPromote, 2.0, 7);
    e.vc = 0.125;
    e.window = 0.05;
    events.push_back(e);
  }
  {
    TraceEvent e = MakeEvent(TraceEventKind::kQueueSwap, 2.5, kNoRequestId);
    e.queue_depth = 9;
    events.push_back(e);
  }
  {
    TraceEvent e = MakeEvent(TraceEventKind::kWindowReset, 2.5, kNoRequestId);
    e.window = 0.05;
    events.push_back(e);
  }
  {
    TraceEvent e = MakeEvent(TraceEventKind::kDispatch, 3.0, 7);
    e.cylinder = 123;
    e.queue_depth = 3;
    events.push_back(e);
  }
  {
    TraceEvent e = MakeEvent(TraceEventKind::kCompletion, 4.0, 7);
    e.seek_ms = 1.25;
    e.service_ms = 2.5;
    e.response_ms = 2.75;
    e.missed = true;
    events.push_back(e);
  }
  events.push_back(MakeEvent(TraceEventKind::kDeadlineMiss, 4.0, 7));
  {
    TraceEvent e = MakeEvent(TraceEventKind::kIngest, 5.0, 8);
    e.stream = 3;
    events.push_back(e);
  }
  {
    TraceEvent e = MakeEvent(TraceEventKind::kAdmit, 5.0, 8);
    e.queue_depth = 12;
    events.push_back(e);
  }
  {
    TraceEvent e = MakeEvent(TraceEventKind::kReject, 5.5, 9);
    e.reject = RejectReason::kLoad;
    events.push_back(e);
  }
  {
    TraceEvent e = MakeEvent(TraceEventKind::kDrain, 6.0, 8);
    e.wait_ms = 1.75;
    e.queue_depth = 11;
    events.push_back(e);
  }

  StringWriter out;
  JsonlSink sink(out);
  for (const TraceEvent& e : events) sink.OnEvent(e);
  ASSERT_TRUE(sink.status().ok()) << sink.status().ToString();

  std::istringstream lines(out.str());
  std::string line;
  size_t i = 0;
  while (std::getline(lines, line)) {
    ASSERT_LT(i, events.size());
    auto parsed = ParseFlatJsonObject(line);
    ASSERT_TRUE(parsed.ok()) << line << ": " << parsed.status().ToString();
    const JsonObject& obj = *parsed;
    TraceEventKind kind;
    ASSERT_TRUE(ParseTraceEventKind(obj.at("ev").str, &kind));
    EXPECT_EQ(kind, events[i].kind);
    EXPECT_NEAR(obj.at("t_ms").num, SimToMs(events[i].t), 1e-9);
    if (events[i].has_request()) {
      EXPECT_DOUBLE_EQ(obj.at("id").num, static_cast<double>(events[i].id));
    } else {
      EXPECT_EQ(obj.count("id"), 0u);
    }
    ++i;
  }
  EXPECT_EQ(i, events.size());

  // Spot-check kind-specific payloads survived.
  auto arrival = ParseFlatJsonObject(out.str().substr(0, out.str().find('\n')));
  ASSERT_TRUE(arrival.ok());
  EXPECT_DOUBLE_EQ(arrival->at("cyl").num, 123.0);
  EXPECT_DOUBLE_EQ(arrival->at("level").num, 3.0);
  EXPECT_NEAR(arrival->at("deadline_ms").num, 99.25, 1e-9);

  // Service front-end payloads: reject carries the wire reason name,
  // drain carries the wait latency the SLO windows aggregate.
  std::vector<std::string> all_lines;
  std::istringstream relines(out.str());
  while (std::getline(relines, line)) all_lines.push_back(line);
  auto reject = ParseFlatJsonObject(all_lines[all_lines.size() - 2]);
  ASSERT_TRUE(reject.ok());
  EXPECT_EQ(reject->at("reason").str, "load");
  auto drain = ParseFlatJsonObject(all_lines.back());
  ASSERT_TRUE(drain.ok());
  EXPECT_DOUBLE_EQ(drain->at("wait_ms").num, 1.75);
  EXPECT_DOUBLE_EQ(drain->at("qd").num, 11.0);
}

TEST(ExportTest, RejectReasonNamesRoundTrip) {
  for (RejectReason r : {RejectReason::kRate, RejectReason::kLoad,
                         RejectReason::kRingFull}) {
    RejectReason parsed;
    ASSERT_TRUE(ParseRejectReason(RejectReasonName(r), &parsed));
    EXPECT_EQ(parsed, r);
  }
  RejectReason parsed;
  EXPECT_FALSE(ParseRejectReason("because", &parsed));
}

TEST(ExportTest, JsonlSinkStreamsAndCounts) {
  StringWriter out;
  JsonlSink sink(out);
  for (RequestId i = 0; i < 3; ++i) {
    sink.OnEvent(MakeEvent(TraceEventKind::kArrival, static_cast<double>(i), i));
  }
  EXPECT_TRUE(sink.status().ok());
  EXPECT_EQ(sink.events_written(), 3u);
  EXPECT_EQ(std::count(out.str().begin(), out.str().end(), '\n'), 3);
}

TEST(ExportTest, TableCsvQuotesSpecialCells) {
  TablePrinter t({"name", "note"});
  t.AddRow({"plain", "has,comma"});
  t.AddRow({"quote\"d", "two\nlines"});
  StringWriter out;
  ASSERT_TRUE(Export(t, out, ExportFormat::kCsv).ok());
  EXPECT_EQ(out.str(),
            "name,note\n"
            "plain,\"has,comma\"\n"
            "\"quote\"\"d\",\"two\nlines\"\n");
}

TEST(ExportTest, RunMetricsCsvIsRejected) {
  RunMetrics m;
  StringWriter out;
  EXPECT_FALSE(Export(m, out, ExportFormat::kCsv).ok());
}

// ------------------------------------------------------------ SLO windows

/// Every window ForEachRow visits, gap windows included.
std::vector<SloWindowRow> RowsOf(const SloMetrics& slo) {
  std::vector<SloWindowRow> rows;
  EXPECT_TRUE(slo.ForEachRow([&rows](const SloWindowRow& r) {
                   rows.push_back(r);
                   return Status::OK();
                 }).ok());
  return rows;
}

TEST(SloMetricsTest, WindowsAccumulateAndMaterializeGaps) {
  SloMetrics slo(/*window_ms=*/10.0);
  auto feed = [&slo](TraceEvent e) { slo.OnEvent(e); };

  // Window [0,10): two offers, one admitted + drained, one load-shed.
  {
    TraceEvent e = MakeEvent(TraceEventKind::kIngest, 1.0, 0);
    e.stream = 0;
    feed(e);
  }
  feed(MakeEvent(TraceEventKind::kAdmit, 1.0, 0));
  {
    TraceEvent e = MakeEvent(TraceEventKind::kIngest, 2.0, 1);
    e.stream = 1;
    feed(e);
  }
  {
    TraceEvent e = MakeEvent(TraceEventKind::kReject, 2.0, 1);
    e.reject = RejectReason::kLoad;
    feed(e);
  }
  {
    TraceEvent e = MakeEvent(TraceEventKind::kDrain, 4.0, 0);
    e.wait_ms = 3.0;
    feed(e);
  }
  // Windows [10,20) and [20,30) stay empty; [30,40) gets one rate shed.
  feed(MakeEvent(TraceEventKind::kIngest, 31.0, 2));
  {
    TraceEvent e = MakeEvent(TraceEventKind::kReject, 31.0, 2);
    e.reject = RejectReason::kRate;
    feed(e);
  }

  const std::vector<SloWindowRow> rows = RowsOf(slo);
  ASSERT_EQ(rows.size(), 4u);
  EXPECT_DOUBLE_EQ(rows[0].start_ms, 0.0);
  EXPECT_EQ(rows[0].offered, 2u);
  EXPECT_EQ(rows[0].admitted, 1u);
  EXPECT_EQ(rows[0].rejected, 1u);
  EXPECT_EQ(rows[0].rejected_load, 1u);
  EXPECT_EQ(rows[0].drains, 1u);
  EXPECT_DOUBLE_EQ(rows[0].shed_rate(), 0.5);
  EXPECT_GT(rows[0].p50_ms, 0.0);
  EXPECT_GE(rows[0].max_ms, rows[0].p50_ms);

  // Gap windows materialize with zero counts so the series plots as-is.
  EXPECT_DOUBLE_EQ(rows[1].start_ms, 10.0);
  EXPECT_EQ(rows[1].offered, 0u);
  EXPECT_DOUBLE_EQ(rows[1].shed_rate(), 0.0);
  EXPECT_DOUBLE_EQ(rows[2].start_ms, 20.0);

  EXPECT_DOUBLE_EQ(rows[3].start_ms, 30.0);
  EXPECT_EQ(rows[3].rejected_rate, 1u);
  EXPECT_EQ(rows[3].drains, 0u);

  // The whole-run histogram saw exactly the one drain sample.
  EXPECT_EQ(slo.overall().total(), 1u);
}

// ForEachRow walks the gap windows between two events without storing
// them: here 2 s of 1 us windows, two of which saw an event.
TEST(SloMetricsTest, GapWindowsStreamInOrder) {
  SloMetrics slo(/*window_ms=*/0.001);
  slo.OnEvent(MakeEvent(TraceEventKind::kIngest, 0.0, 0));
  slo.OnEvent(MakeEvent(TraceEventKind::kIngest, 2000.0, 1));

  uint64_t rows = 0, populated = 0, out_of_order = 0;
  double last_start_ms = -1.0;
  ASSERT_TRUE(slo.ForEachRow([&](const SloWindowRow& r) {
                   ++rows;
                   populated += r.offered;
                   if (r.start_ms <= last_start_ms) ++out_of_order;
                   last_start_ms = r.start_ms;
                   return Status::OK();
                 }).ok());
  EXPECT_EQ(rows, 2000001u);
  EXPECT_EQ(populated, 2u);
  EXPECT_EQ(out_of_order, 0u);
  EXPECT_DOUBLE_EQ(last_start_ms, 2000.0);

  // The visitor's first error ends the walk and is returned.
  uint64_t visited = 0;
  const Status stopped = slo.ForEachRow([&visited](const SloWindowRow&) {
    return ++visited == 3 ? Status::IoError("disk full") : Status::OK();
  });
  EXPECT_EQ(stopped.code(), StatusCode::kIoError);
  EXPECT_EQ(visited, 3u);
}

TEST(SloMetricsTest, ExportsCsvJsonAndJsonl) {
  SloMetrics slo(/*window_ms=*/5.0);
  for (int i = 0; i < 3; ++i) {
    slo.OnEvent(MakeEvent(TraceEventKind::kIngest,
                          static_cast<double>(i) * 4.0,
                          static_cast<RequestId>(i)));
    slo.OnEvent(MakeEvent(TraceEventKind::kAdmit,
                          static_cast<double>(i) * 4.0,
                          static_cast<RequestId>(i)));
    TraceEvent d = MakeEvent(TraceEventKind::kDrain,
                             static_cast<double>(i) * 4.0 + 1.0,
                             static_cast<RequestId>(i));
    d.wait_ms = 1.0 + i;
    slo.OnEvent(d);
  }
  const size_t windows = RowsOf(slo).size();
  ASSERT_GT(windows, 1u);

  StringWriter csv;
  ASSERT_TRUE(Export(slo, csv, ExportFormat::kCsv).ok());
  EXPECT_EQ(static_cast<size_t>(
                std::count(csv.str().begin(), csv.str().end(), '\n')),
            windows + 1);  // header + one line per window
  EXPECT_EQ(csv.str().rfind("start_ms,offered,admitted,rejected", 0), 0u);

  StringWriter jsonl;
  ASSERT_TRUE(Export(slo, jsonl, ExportFormat::kJsonl).ok());
  std::istringstream lines(jsonl.str());
  std::string line;
  size_t parsed_rows = 0;
  uint64_t offered = 0;
  while (std::getline(lines, line)) {
    auto obj = ParseFlatJsonObject(line);
    ASSERT_TRUE(obj.ok()) << line;
    offered += static_cast<uint64_t>(obj->at("offered").num);
    ++parsed_rows;
  }
  EXPECT_EQ(parsed_rows, windows);
  EXPECT_EQ(offered, 3u);  // per-window counts sum to the run total

  StringWriter json;
  ASSERT_TRUE(Export(slo, json, ExportFormat::kJson).ok());
  std::string doc = json.str();
  while (!doc.empty() && doc.back() == '\n') doc.pop_back();
  EXPECT_EQ(doc.front(), '[');
  EXPECT_EQ(doc.back(), ']');
}

// ------------------------------------------------- simulator integration

std::vector<Request> TestTrace(uint64_t seed, uint64_t count) {
  WorkloadConfig c;
  c.seed = seed;
  c.count = count;
  c.mean_interarrival_ms = 10.0;
  c.priority_dims = 3;
  c.priority_levels = 16;
  c.deadline_lo_ms = 300;
  c.deadline_hi_ms = 700;
  auto gen = SyntheticGenerator::Create(c);
  EXPECT_TRUE(gen.ok());
  return DrainGenerator(**gen);
}

SchedulerFactory CascadedFactory() {
  SchedulerRegistryContext ctx;
  ctx.cascaded = PresetFull("hilbert", 3, 4, 1.0, 3, 3832, 0.05, 700.0);
  auto factory = MakeSchedulerFactory("csfc", ctx);
  EXPECT_TRUE(factory.ok()) << factory.status().ToString();
  return std::move(*factory);
}

struct Timeline {
  SimTime arrival = 0, characterize = 0, enqueue = 0, dispatch = 0,
          completion = 0;
  bool has_arrival = false, has_characterize = false, has_enqueue = false,
       has_dispatch = false, has_completion = false;
  bool missed = false;
  double response_ms = 0.0;
};

TEST(ObservabilitySimTest, LifecycleOrderingAndAggregateAgreement) {
  const auto trace = TestTrace(7, 1500);
  VectorSink sink;
  SimulatorConfig sc;
  sc.trace_sink = &sink;

  auto metrics = RunSchedulerOnTrace(sc, trace, CascadedFactory());
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  const RunMetrics& m = *metrics;
  ASSERT_EQ(m.completions, 1500u);

  std::map<RequestId, Timeline> timelines;
  uint64_t completions = 0, misses = 0;
  double response_sum_ms = 0.0;
  for (const TraceEvent& e : sink.events) {
    if (!e.has_request()) continue;
    Timeline& tl = timelines[e.id];
    switch (e.kind) {
      case TraceEventKind::kArrival:
        EXPECT_FALSE(tl.has_arrival) << "duplicate arrival for " << e.id;
        tl.arrival = e.t;
        tl.has_arrival = true;
        break;
      case TraceEventKind::kCharacterize:
        if (!tl.has_characterize) {
          tl.characterize = e.t;
          tl.has_characterize = true;
        }
        EXPECT_GE(e.vc, 0.0);
        EXPECT_LT(e.vc, 1.0);
        break;
      case TraceEventKind::kEnqueue:
        tl.enqueue = e.t;
        tl.has_enqueue = true;
        break;
      case TraceEventKind::kDispatch:
        EXPECT_FALSE(tl.has_dispatch) << "duplicate dispatch for " << e.id;
        tl.dispatch = e.t;
        tl.has_dispatch = true;
        break;
      case TraceEventKind::kCompletion:
        EXPECT_FALSE(tl.has_completion);
        tl.completion = e.t;
        tl.has_completion = true;
        tl.missed = e.missed;
        tl.response_ms = e.response_ms;
        ++completions;
        if (e.missed) ++misses;
        response_sum_ms += e.response_ms;
        break;
      default:
        break;
    }
  }

  // Every request has the full lifecycle, in order.
  EXPECT_EQ(timelines.size(), 1500u);
  for (const auto& [id, tl] : timelines) {
    ASSERT_TRUE(tl.has_arrival && tl.has_characterize && tl.has_enqueue &&
                tl.has_dispatch && tl.has_completion)
        << "incomplete lifecycle for request " << id;
    EXPECT_LE(tl.arrival, tl.characterize) << id;
    EXPECT_LE(tl.characterize, tl.enqueue) << id;
    EXPECT_LE(tl.enqueue, tl.dispatch) << id;
    EXPECT_LE(tl.dispatch, tl.completion) << id;
  }

  // Trace aggregates match the run's RunMetrics.
  EXPECT_EQ(completions, m.completions);
  EXPECT_EQ(misses, m.deadline_misses);
  EXPECT_NEAR(response_sum_ms / static_cast<double>(completions),
              m.response_ms.mean(), 1e-6);
}

TEST(ObservabilitySimTest, NullSinkLeavesMetricsIdentical) {
  const auto trace = TestTrace(11, 800);
  SimulatorConfig plain;
  auto without = RunSchedulerOnTrace(plain, trace, CascadedFactory());
  ASSERT_TRUE(without.ok());

  VectorSink sink;
  SimulatorConfig traced;
  traced.trace_sink = &sink;
  auto with = RunSchedulerOnTrace(traced, trace, CascadedFactory());
  ASSERT_TRUE(with.ok());

  // Tracing is observation only: the schedule itself must not change.
  EXPECT_EQ(without->completions, with->completions);
  EXPECT_EQ(without->deadline_misses, with->deadline_misses);
  EXPECT_EQ(without->makespan, with->makespan);
  EXPECT_DOUBLE_EQ(without->total_seek_ms, with->total_seek_ms);
  EXPECT_DOUBLE_EQ(without->response_ms.mean(), with->response_ms.mean());
  EXPECT_FALSE(sink.events.empty());
}

TEST(ObservabilitySimTest, BaselineSchedulersTraceCoreLifecycle) {
  // Baselines don't override Observe, so no scheduler-internal events —
  // but the simulator/metrics instrumentation still yields the full
  // arrival/enqueue/dispatch/completion skeleton.
  const auto trace = TestTrace(13, 400);
  VectorSink sink;
  SimulatorConfig sc;
  sc.trace_sink = &sink;
  auto m = RunSchedulerOnTrace(
      sc, trace, [] { return std::make_unique<FcfsScheduler>(); });
  ASSERT_TRUE(m.ok());

  std::map<TraceEventKind, uint64_t> counts;
  for (const TraceEvent& e : sink.events) ++counts[e.kind];
  EXPECT_EQ(counts[TraceEventKind::kArrival], 400u);
  EXPECT_EQ(counts[TraceEventKind::kEnqueue], 400u);
  EXPECT_EQ(counts[TraceEventKind::kDispatch], 400u);
  EXPECT_EQ(counts[TraceEventKind::kCompletion], 400u);
  EXPECT_EQ(counts[TraceEventKind::kCharacterize], 0u);
  EXPECT_EQ(counts[TraceEventKind::kPromote], 0u);
}

// ------------------------------------------------------------ MetricsConfig

TEST(MetricsConfigTest, ValidateRejectsOversizedDims) {
  MetricsConfig ok;
  EXPECT_TRUE(ok.Validate().ok());
  MetricsConfig bad;
  bad.dims = 13;
  EXPECT_FALSE(bad.Validate().ok());
}

TEST(RunMetricsTest, ToJsonContainsCoreAggregates) {
  MetricsCollector c(MetricsConfig{});
  const std::string json = c.metrics().ToJson();
  for (const char* key :
       {"\"arrivals\"", "\"completions\"", "\"response_ms\"", "\"deadline\"",
        "\"seek\"", "\"inversions_per_dim\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
}

}  // namespace
}  // namespace obs
}  // namespace csfc
