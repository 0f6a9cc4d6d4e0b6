// ServiceServer end-to-end coverage in deterministic virtual-time mode,
// plus a quick wall-clock sanity run (the concurrency stress lives in
// service_stress_test.cc for the TSan job).
//
// The load-bearing assertions here are the ISSUE acceptance criteria:
//  * dispatch order through the service front-end is bit-identical to the
//    offline simulator fed the same admitted set;
//  * RunVirtual twice -> bit-identical traces and stats;
//  * under seeded open-loop overload the admission gates hold the SLO and
//    the accounting identity reconciles.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <tuple>
#include <vector>

#include "core/presets.h"
#include "exp/runner.h"
#include "exp/server_config.h"
#include "obs/trace_event.h"
#include "obs/vector_sink.h"
#include "svc/pump_passes.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace csfc {
namespace svc {
namespace {

using obs::TraceEvent;
using obs::TraceEventKind;
using obs::VectorSink;

std::vector<Request> SyntheticTrace(uint64_t seed, uint64_t count,
                                    double interarrival_ms) {
  WorkloadConfig c;
  c.seed = seed;
  c.count = count;
  c.mean_interarrival_ms = interarrival_ms;
  c.priority_dims = 3;
  c.priority_levels = 16;
  c.deadline_lo_ms = 500;
  c.deadline_hi_ms = 700;
  auto gen = SyntheticGenerator::Create(c);
  EXPECT_TRUE(gen.ok());
  return DrainGenerator(**gen);
}

/// The shared base configuration: the cascaded scheduler, no admission
/// gates unless a test turns them on.
ServerConfig BaseConfig() {
  ServerConfig config;
  config.WithMetricsShape(3, 16)
      .WithCascaded(PresetFull("hilbert", 3, 4, 1.0, 3,
                               config.sim.disk.cylinders, 0.05, 700.0));
  return config;
}

/// Projects the (id, t) sequence of one event kind out of a sink.
std::vector<std::pair<RequestId, SimTime>> EventsOfKind(
    const VectorSink& rec, TraceEventKind kind) {
  std::vector<std::pair<RequestId, SimTime>> out;
  for (const TraceEvent& e : rec.events) {
    if (e.kind == kind) out.emplace_back(e.id, e.t);
  }
  return out;
}

void ExpectSameEventStream(const VectorSink& a, const VectorSink& b) {
  const std::vector<TraceEvent>& ea = a.events;
  const std::vector<TraceEvent>& eb = b.events;
  ASSERT_EQ(ea.size(), eb.size());
  for (size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].kind, eb[i].kind) << "event " << i;
    EXPECT_EQ(ea[i].t, eb[i].t) << "event " << i;
    EXPECT_EQ(ea[i].id, eb[i].id) << "event " << i;
    EXPECT_EQ(ea[i].queue_depth, eb[i].queue_depth) << "event " << i;
    EXPECT_DOUBLE_EQ(ea[i].wait_ms, eb[i].wait_ms) << "event " << i;
    EXPECT_EQ(ea[i].reject, eb[i].reject) << "event " << i;
  }
}

/// RunVirtual over a replay of `trace`.
ServiceStats RunVirtualOn(ServiceServer& server,
                          const std::vector<Request>& trace) {
  TraceReplayGenerator arrivals(trace);
  return server.RunVirtual(arrivals);
}

/// `sched` under `model` through the service front-end in virtual time
/// and through the offline simulator: the same dispatches at the same
/// times, and the same completions.
void ExpectDispatchOrderMatchesOffline(const std::string& sched,
                                       ServiceModel model,
                                       std::optional<uint64_t> latency_seed) {
  const std::vector<Request> trace = SyntheticTrace(1207, 2000, 0.5);

  ServerConfig config = BaseConfig();
  config.WithScheduler(sched).WithServiceModel(model);
  config.sim.latency_seed = latency_seed;
  VectorSink service_rec;
  config.WithTraceSink(&service_rec);
  auto handle = MakeServer(config);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  const ServiceStats stats = RunVirtualOn(*handle->server, trace);
  EXPECT_EQ(stats.admission.offered, trace.size());
  EXPECT_EQ(stats.admission.admitted, trace.size());  // gates off
  EXPECT_EQ(stats.dispatched, trace.size());
  EXPECT_EQ(stats.completions, trace.size());

  // Offline replay of the same (here: complete) admitted set, same
  // simulator config, scheduler built through the same registry path.
  SimulatorConfig sim = config.sim;
  VectorSink offline_rec;
  sim.trace_sink = &offline_rec;
  auto disk = DiskModel::Create(sim.disk);
  ASSERT_TRUE(disk.ok());
  auto factory = config.MakeFactory(*disk);
  ASSERT_TRUE(factory.ok()) << factory.status().ToString();
  auto metrics = RunSchedulerOnTrace(sim, trace, *factory);
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();

  const auto service_dispatch =
      EventsOfKind(service_rec, TraceEventKind::kDispatch);
  const auto offline_dispatch =
      EventsOfKind(offline_rec, TraceEventKind::kDispatch);
  ASSERT_EQ(service_dispatch.size(), trace.size());
  ASSERT_EQ(service_dispatch.size(), offline_dispatch.size());
  for (size_t i = 0; i < service_dispatch.size(); ++i) {
    EXPECT_EQ(service_dispatch[i].first, offline_dispatch[i].first)
        << "dispatch " << i;
    EXPECT_EQ(service_dispatch[i].second, offline_dispatch[i].second)
        << "dispatch " << i;
  }
  // Completions (and therefore modeled service times) line up too.
  EXPECT_EQ(EventsOfKind(service_rec, TraceEventKind::kCompletion),
            EventsOfKind(offline_rec, TraceEventKind::kCompletion));
}

TEST(ServiceServerTest, VirtualDispatchOrderMatchesOfflineSimulator) {
  ExpectDispatchOrderMatchesOffline("csfc", ServiceModel::kFullDisk,
                                    std::nullopt);
}

TEST(ServiceServerTest, VirtualMatchesOfflineWithSeededLatency) {
  ExpectDispatchOrderMatchesOffline("csfc", ServiceModel::kFullDisk,
                                    uint64_t{42});
}

// Every registered scheduler under both service models. 2,000 requests
// at 0.5 ms build a backlog ~2,000 deep, which the quadratic schedulers
// (ssedo, ssedv, dds, scan-rt, sfc-dds) still clear in well under a
// second.
class OfflineEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::string, ServiceModel>> {
};

TEST_P(OfflineEquivalenceTest, VirtualDispatchOrderMatchesOfflineSimulator) {
  ExpectDispatchOrderMatchesOffline(std::get<0>(GetParam()),
                                    std::get<1>(GetParam()), std::nullopt);
}

std::vector<std::string> AllNames() {
  std::vector<std::string> names;
  for (std::string_view n : AllSchedulerNames()) names.emplace_back(n);
  return names;
}

std::string ParamName(
    const ::testing::TestParamInfo<OfflineEquivalenceTest::ParamType>& info) {
  std::string name = std::get<0>(info.param);
  std::replace(name.begin(), name.end(), '-', '_');
  return name + (std::get<1>(info.param) == ServiceModel::kFullDisk
                     ? "_full_disk"
                     : "_transfer_only");
}

INSTANTIATE_TEST_SUITE_P(
    AllSchedulers, OfflineEquivalenceTest,
    ::testing::Combine(::testing::ValuesIn(AllNames()),
                       ::testing::Values(ServiceModel::kFullDisk,
                                         ServiceModel::kTransferOnly)),
    ParamName);

// Five 2^64 - 1 byte requests price past 2^63 us between them: the
// pump's completion times must saturate instead of wrapping (undefined
// behaviour, which the UBSan build turns into a failure).
TEST(ServiceServerTest, HugeRequestsSaturateCompletionTimes) {
  std::vector<Request> trace;
  for (RequestId id = 0; id < 5; ++id) {
    Request r;
    r.id = id;
    r.arrival = static_cast<SimTime>(id) * 1000;
    r.cylinder = static_cast<Cylinder>(id * 700);
    r.bytes = ~uint64_t{0};
    for (PriorityLevel p : {1u, 2u, 3u}) r.priorities.push_back(p);
    trace.push_back(r);
  }
  auto handle = MakeServer(BaseConfig());
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  const ServiceStats stats = RunVirtualOn(*handle->server, trace);
  EXPECT_EQ(stats.dispatched, trace.size());
  EXPECT_EQ(stats.completions, trace.size());
}

TEST(ServiceServerTest, RunVirtualTwiceIsBitIdentical) {
  const std::vector<Request> trace = SyntheticTrace(31, 1500, 0.4);

  auto run = [&trace](VectorSink* rec) {
    ServerConfig config = BaseConfig();
    config.WithSlo(80.0).WithStreamRate(400.0, 32.0).WithTraceSink(rec);
    auto handle = MakeServer(config);
    EXPECT_TRUE(handle.ok()) << handle.status().ToString();
    return RunVirtualOn(*handle->server, trace);
  };

  VectorSink rec_a, rec_b;
  const ServiceStats a = run(&rec_a);
  const ServiceStats b = run(&rec_b);

  ExpectSameEventStream(rec_a, rec_b);
  EXPECT_EQ(a.admission.offered, b.admission.offered);
  EXPECT_EQ(a.admission.admitted, b.admission.admitted);
  EXPECT_EQ(a.admission.rejected_rate, b.admission.rejected_rate);
  EXPECT_EQ(a.admission.rejected_load, b.admission.rejected_load);
  EXPECT_EQ(a.dispatched, b.dispatched);
  EXPECT_EQ(a.completions, b.completions);
  EXPECT_DOUBLE_EQ(a.p50_wait_ms, b.p50_wait_ms);
  EXPECT_DOUBLE_EQ(a.p99_wait_ms, b.p99_wait_ms);
  EXPECT_DOUBLE_EQ(a.p999_wait_ms, b.p999_wait_ms);
  EXPECT_DOUBLE_EQ(a.max_wait_ms, b.max_wait_ms);
}

TEST(ServiceServerTest, AdmissionHoldsSloUnderSeededOverload) {
  // Open-loop overload: arrivals far faster than the disk can serve, so
  // without the load gate waits would grow without bound. With the gate
  // on, admitted requests must see waits near the configured SLO.
  const std::vector<Request> trace = SyntheticTrace(77, 4000, 0.1);

  ServerConfig config = BaseConfig();
  const double kSloMs = 60.0;
  config.WithSlo(kSloMs);  // MakeServer derives the oracle's costs
  auto handle = MakeServer(config);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  const ServiceStats stats = RunVirtualOn(*handle->server, trace);

  // The accounting identity over every outcome class.
  const AdmissionController::Counters& k = stats.admission;
  EXPECT_EQ(k.offered, trace.size());
  EXPECT_EQ(k.offered, k.admitted + k.rejected_rate + k.rejected_load +
                           k.rejected_ring_full);
  EXPECT_GT(k.admitted, 0u);
  EXPECT_GT(k.rejected_load, 0u);  // overload really shed

  // Everything admitted was served, and the wait distribution is sane.
  EXPECT_EQ(stats.completions, k.admitted);
  EXPECT_LE(stats.p50_wait_ms, stats.p99_wait_ms);
  EXPECT_LE(stats.p99_wait_ms, stats.p999_wait_ms);
  EXPECT_LE(stats.p999_wait_ms, stats.max_wait_ms);
  // The oracle is an estimate, not a guarantee: bound the realized tail
  // at a small multiple of the SLO rather than the SLO itself (measured
  // ~3.6x here; ungated the same workload's tail is ~79,000 ms).
  EXPECT_LE(stats.max_wait_ms, 5.0 * kSloMs);
}

TEST(ServiceServerTest, UngatedOverloadConfirmsTheGateWasLoadBearing) {
  // Control for the SLO test above: the same overload with the gates off
  // must blow far past the SLO, or the previous test proves nothing.
  const std::vector<Request> trace = SyntheticTrace(77, 4000, 0.1);
  ServerConfig config = BaseConfig();
  auto handle = MakeServer(config);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  const ServiceStats stats = RunVirtualOn(*handle->server, trace);
  EXPECT_EQ(stats.admission.admitted, trace.size());
  EXPECT_GT(stats.max_wait_ms, 1000.0);
}

TEST(ServiceServerTest, WallClockStopDrainsEverythingAdmitted) {
  ServerConfig config = BaseConfig();
  config.WithIngest(256, 32).WithTimeScale(0.0);
  auto handle = MakeServer(config);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  ServiceServer& server = *handle->server;

  ASSERT_TRUE(server.Start().ok());
  EXPECT_FALSE(server.Start().ok());  // double-start refused
  const std::vector<Request> reqs = SyntheticTrace(5, 500, 1.0);
  for (const Request& r : reqs) {
    Request copy = r;
    while (!server.Offer(std::move(copy))) {
      copy = r;  // ring-full backpressure: retry the same request
    }
  }
  server.Stop();
  EXPECT_FALSE(server.running());

  const ServiceStats stats = server.Stats();
  EXPECT_EQ(stats.admission.admitted, reqs.size());
  EXPECT_GE(stats.admission.offered, reqs.size());  // retries re-offer
  EXPECT_EQ(stats.enqueued, stats.admission.admitted);
  EXPECT_EQ(stats.dispatched, stats.admission.admitted);
  EXPECT_EQ(stats.completions, stats.admission.admitted);
  EXPECT_GE(stats.max_wait_ms, 0.0);
}

// Stats() is read while two producers offer and the pump drains, as a
// monitoring thread would. Every snapshot must be a consistent cut of the
// pump's counters (nothing completes before it is dispatched, nothing is
// dispatched before it is enqueued), and no counter may ever go down.
TEST(ServiceServerTest, StatsSnapshotsStayOrderedDuringTwoProducerSoak) {
  ServerConfig config = BaseConfig();
  config.WithIngest(256, 32).WithTimeScale(0.0);
  auto handle = MakeServer(config);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  ServiceServer& server = *handle->server;
  const std::vector<Request> reqs = SyntheticTrace(11, 20000, 1.0);

  std::atomic<bool> polling{true};
  std::string violation;  // first broken snapshot, written by the poller
  uint64_t snapshots = 0;
  std::thread poller([&] {
    ServiceStats prev;
    do {
      const ServiceStats s = server.Stats();
      ++snapshots;
      const auto& a = s.admission;
      const auto& pa = prev.admission;
      const bool ordered =
          s.completions <= s.dispatched && s.dispatched <= s.enqueued;
      const bool monotone =
          s.enqueued >= prev.enqueued && s.dispatched >= prev.dispatched &&
          s.completions >= prev.completions && a.offered >= pa.offered &&
          a.admitted >= pa.admitted && a.rejected_rate >= pa.rejected_rate &&
          a.rejected_load >= pa.rejected_load &&
          a.rejected_ring_full >= pa.rejected_ring_full;
      if ((!ordered || !monotone) && violation.empty()) {
        violation = "snapshot " + std::to_string(snapshots) +
                    ": enqueued/dispatched/completions " +
                    std::to_string(s.enqueued) + "/" +
                    std::to_string(s.dispatched) + "/" +
                    std::to_string(s.completions) + " after " +
                    std::to_string(prev.enqueued) + "/" +
                    std::to_string(prev.dispatched) + "/" +
                    std::to_string(prev.completions);
      }
      prev = s;
    } while (polling.load(std::memory_order_acquire));
  });

  ASSERT_TRUE(server.Start().ok());
  {
    std::vector<std::jthread> producers;
    for (size_t p = 0; p < 2; ++p) {
      producers.emplace_back([&, p] {
        for (size_t i = p; i < reqs.size(); i += 2) {
          while (!server.Offer(reqs[i])) std::this_thread::yield();
        }
      });
    }
  }  // jthread joins
  server.Stop();
  polling.store(false, std::memory_order_release);
  poller.join();

  EXPECT_TRUE(violation.empty()) << violation;
  EXPECT_GT(snapshots, 0u);
  const ServiceStats stats = server.Stats();
  const auto& a = stats.admission;
  EXPECT_EQ(a.offered, a.admitted + a.rejected_rate + a.rejected_load +
                           a.rejected_ring_full);
  EXPECT_EQ(a.admitted, reqs.size());
  EXPECT_EQ(stats.enqueued, a.admitted);
  EXPECT_EQ(stats.dispatched, a.admitted);
  EXPECT_EQ(stats.completions, a.admitted);
}

// The unpaced pump serves what it drains: each pass drains at most one
// ring's worth, then dispatches until the scheduler queue is empty, so the
// backlog waits in the bounded ring instead of the scheduler. A pump that
// drains until the ring is empty and dispatches once per pass breaks both
// assertions once producers keep the ring busy, which a 25 us service-time
// call makes sure of.
TEST(ServiceServerTest, UnpacedPassServesEverythingItDrains) {
  constexpr size_t kRing = 256;
  ServerConfig config = BaseConfig();
  VectorSink rec;
  config.WithIngest(kRing, 32).WithTimeScale(0.0).WithTraceSink(&rec);
  auto handle = MakeSlowPumpServer(config, std::chrono::microseconds(25));
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  ServiceServer& server = *handle->server;
  const std::vector<Request> reqs = SyntheticTrace(13, 5000, 1.0);

  ASSERT_TRUE(server.Start().ok());
  {
    std::vector<std::jthread> producers;
    for (size_t p = 0; p < 2; ++p) {
      producers.emplace_back([&, p] {
        for (size_t i = p; i < reqs.size(); i += 2) {
          while (!server.Offer(reqs[i])) std::this_thread::yield();
        }
      });
    }
  }  // jthread joins
  server.Stop();

  const ServiceStats stats = server.Stats();
  EXPECT_EQ(stats.admission.admitted, reqs.size());
  EXPECT_EQ(stats.completions, reqs.size());
  const std::vector<PumpPass> passes = PumpPasses(rec.events);
  ASSERT_FALSE(passes.empty());
  uint64_t enqueued = 0, backlogged = 0, oversized = 0, max_drain = 0;
  for (const PumpPass& pass : passes) {
    enqueued += pass.enqueued;
    max_drain = std::max(max_drain, pass.enqueued);
    if (pass.last_dispatch_depth != 0) ++backlogged;
    if (pass.enqueued > kRing) ++oversized;
  }
  EXPECT_EQ(enqueued, reqs.size());
  EXPECT_EQ(backlogged, 0u) << "of " << passes.size()
                            << " passes left a backlog in the scheduler";
  EXPECT_EQ(oversized, 0u) << "passes drained more than one ring (largest "
                           << max_drain << ")";
}

}  // namespace
}  // namespace svc
}  // namespace csfc
