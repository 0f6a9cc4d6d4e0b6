// Service front-end concurrency stress — the target of CI's TSan
// service-stress job (mirroring parallel_stress_test for the sweep
// layer). Every scenario here is about interleavings, not outcomes:
//
//  * >= 4 producers hammering Offer against one pump thread, and more
//    producers than the admission controller has counter stripes;
//  * a deliberately tiny ring so ring-full backpressure is constantly
//    exercised (the producer/consumer seq handshake at the full/empty
//    boundaries is where an MPSC ring breaks first);
//  * Cancel() racing producers mid-drain;
//  * Stop() racing Cancel() (joiner election);
//  * a shared single-threaded sink behind the server's internal lock;
//  * bursts separated by idle gaps, so Offer wakes a sleeping pump
//    through the waiting-flag handshake hundreds of times.
//
// Run under -fsanitize=thread these pin the ring's memory ordering and
// the server's threading contract (DESIGN.md section 12).

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/presets.h"
#include "exp/server_config.h"
#include "obs/slo.h"
#include "obs/vector_sink.h"
#include "svc/pump_passes.h"
#include "workload/request.h"

namespace csfc {
namespace svc {
namespace {

Request MakeRequest(uint64_t id, uint32_t stream) {
  Request r;
  r.id = id;
  r.stream = stream;
  r.cylinder = static_cast<Cylinder>((id * 2654435761u) % 3832);
  r.priorities = PriorityVec{static_cast<PriorityLevel>(id % 16),
                             static_cast<PriorityLevel>((id / 16) % 16),
                             static_cast<PriorityLevel>((id / 256) % 16)};
  r.deadline = kNoDeadline;
  return r;
}

ServerConfig StressConfig(size_t ring, size_t batch) {
  ServerConfig config;
  config.WithMetricsShape(3, 16)
      .WithCascaded(PresetFull("hilbert", 3, 4, 1.0, 3,
                               config.sim.disk.cylinders, 0.05, 700.0))
      .WithIngest(ring, batch)
      .WithTimeScale(0.0);
  return config;
}

/// Spawns `producers` threads, each offering `per_producer` requests with
/// yield-retry on shed, until `quit` is set. Returns total successful
/// offers.
uint64_t ProduceAll(ServiceServer& server, size_t producers,
                    uint64_t per_producer, const std::atomic<bool>* quit) {
  std::atomic<uint64_t> accepted{0};
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&server, &accepted, quit, p, per_producer] {
      for (uint64_t i = 0; i < per_producer; ++i) {
        if (quit && quit->load(std::memory_order_relaxed)) return;
        Request r = MakeRequest(p * per_producer + i,
                                static_cast<uint32_t>(p));
        while (!server.Offer(std::move(r))) {
          if (quit && quit->load(std::memory_order_relaxed)) return;
          r = MakeRequest(p * per_producer + i, static_cast<uint32_t>(p));
          std::this_thread::yield();
        }
        accepted.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return accepted.load();
}

TEST(ServiceStressTest, FourProducersTinyRingNothingLost) {
  // Ring of 8 against 4 producers: every push contends and the ring is
  // full for most of the run; backpressure closes the loop.
  ServerConfig config = StressConfig(/*ring=*/8, /*batch=*/4);
  obs::SloMetrics slo(/*window_ms=*/50.0);
  config.WithTraceSink(&slo);  // single-threaded sink behind the lock
  auto handle = MakeServer(config);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  ServiceServer& server = *handle->server;

  ASSERT_TRUE(server.Start().ok());
  const uint64_t accepted =
      ProduceAll(server, /*producers=*/4, /*per_producer=*/2000, nullptr);
  server.Stop();

  const ServiceStats stats = server.Stats();
  EXPECT_EQ(accepted, 4u * 2000u);
  EXPECT_EQ(stats.admission.admitted, accepted);
  EXPECT_EQ(stats.enqueued, accepted);
  EXPECT_EQ(stats.dispatched, accepted);
  EXPECT_EQ(stats.completions, accepted);
  // Identity holds even though ring-full sheds happened along the way.
  const AdmissionController::Counters& k = stats.admission;
  EXPECT_EQ(k.offered, k.admitted + k.rejected_rate + k.rejected_load +
                           k.rejected_ring_full);
}

TEST(ServiceStressTest, MoreProducersThanCounterStripesCountEveryOffer) {
  // Twelve producers over the admission controller's eight counter
  // stripes: some stripes have two writers, and the summed counters must
  // still reconcile exactly once the producers have joined.
  ServerConfig config = StressConfig(/*ring=*/64, /*batch=*/16);
  auto handle = MakeServer(config);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  ServiceServer& server = *handle->server;

  ASSERT_TRUE(server.Start().ok());
  const uint64_t accepted =
      ProduceAll(server, /*producers=*/12, /*per_producer=*/1000, nullptr);
  server.Stop();

  const ServiceStats stats = server.Stats();
  const AdmissionController::Counters& k = stats.admission;
  EXPECT_EQ(accepted, 12u * 1000u);
  EXPECT_EQ(k.offered, k.admitted + k.rejected_rate + k.rejected_load +
                           k.rejected_ring_full);
  EXPECT_EQ(k.admitted, accepted);
  EXPECT_EQ(stats.enqueued, accepted);
  EXPECT_EQ(stats.dispatched, accepted);
  EXPECT_EQ(stats.completions, accepted);
}

TEST(ServiceStressTest, CancelMidDrainWhileProducersRun) {
  ServerConfig config = StressConfig(/*ring=*/16, /*batch=*/8);
  auto handle = MakeServer(config);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  ServiceServer& server = *handle->server;

  ASSERT_TRUE(server.Start().ok());
  std::atomic<bool> quit{false};
  std::thread canceller([&server, &quit] {
    // Let the pipeline fill, then yank it mid-drain.
    for (int i = 0; i < 2000; ++i) std::this_thread::yield();
    server.Cancel();
    quit.store(true, std::memory_order_relaxed);
  });
  ProduceAll(server, /*producers=*/4, /*per_producer=*/1u << 20, &quit);
  canceller.join();
  EXPECT_FALSE(server.running());

  // Cancel abandons work: served <= admitted, but what was served was
  // counted consistently.
  const ServiceStats stats = server.Stats();
  EXPECT_LE(stats.completions, stats.admission.admitted);
  EXPECT_LE(stats.dispatched, stats.admission.admitted);
  EXPECT_GE(stats.dispatched, stats.completions);
  const AdmissionController::Counters& k = stats.admission;
  EXPECT_EQ(k.offered, k.admitted + k.rejected_rate + k.rejected_load +
                           k.rejected_ring_full);
}

TEST(ServiceStressTest, StopAndCancelRaceElectsOneJoiner) {
  for (int round = 0; round < 8; ++round) {
    ServerConfig config = StressConfig(/*ring=*/32, /*batch=*/8);
    auto handle = MakeServer(config);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    ServiceServer& server = *handle->server;
    ASSERT_TRUE(server.Start().ok());

    std::atomic<bool> quit{false};
    std::thread producer([&server, &quit] {
      ProduceAll(server, /*producers=*/1, /*per_producer=*/1u << 20, &quit);
    });
    std::thread stopper([&server] { server.Stop(); });
    std::thread sledgehammer([&server] { server.Cancel(); });
    stopper.join();
    sledgehammer.join();
    quit.store(true, std::memory_order_relaxed);
    producer.join();
    EXPECT_FALSE(server.running());
    // Offer after shutdown is a clean shed, not a crash.
    EXPECT_FALSE(server.Offer(MakeRequest(0, 0)));
  }
}

TEST(ServiceStressTest, AdmissionGatesUnderConcurrentOffers) {
  // Rate + load gates on, many streams: counters are bumped from every
  // producer thread concurrently and must still reconcile exactly.
  ServerConfig config = StressConfig(/*ring=*/64, /*batch=*/16);
  config.WithSlo(5.0).WithStreamRate(2000.0, 64.0);
  config.admission.max_streams = 8;
  auto handle = MakeServer(config);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  ServiceServer& server = *handle->server;

  ASSERT_TRUE(server.Start().ok());
  std::atomic<uint64_t> offered{0}, admitted{0};
  std::vector<std::thread> threads;
  for (size_t p = 0; p < 6; ++p) {
    threads.emplace_back([&server, &offered, &admitted, p] {
      for (uint64_t i = 0; i < 5000; ++i) {
        offered.fetch_add(1, std::memory_order_relaxed);
        if (server.Offer(MakeRequest(p * 5000 + i,
                                     static_cast<uint32_t>(p)))) {
          admitted.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  server.Stop();

  const AdmissionController::Counters& k = server.Stats().admission;
  EXPECT_EQ(k.offered, offered.load());
  EXPECT_EQ(k.admitted, admitted.load());
  EXPECT_EQ(k.offered, k.admitted + k.rejected_rate + k.rejected_load +
                           k.rejected_ring_full);
  EXPECT_EQ(server.Stats().completions, admitted.load());
}

TEST(ServiceStressTest, BurstsWakeASleepingPump) {
  // Each gap outlasts the pump's 1 ms idle tick, so every burst lands on a
  // pump that has gone to sleep and must be woken by an Offer. Producers
  // sleep between offers, leaving the CPU to the pump, and a 100 us
  // service-time call still keeps each burst arriving faster than it is
  // served (16 requests take 1.6 ms of the 3 ms gap).
  constexpr size_t kRing = 64;
  constexpr size_t kProducers = 2;
  constexpr uint64_t kBursts = 200;
  constexpr uint64_t kPerBurst = 8;  // per producer
  constexpr auto kGap = std::chrono::milliseconds(3);
  constexpr auto kOfferGap = std::chrono::microseconds(10);
  ServerConfig config = StressConfig(kRing, /*batch=*/8);
  obs::VectorSink rec;
  config.WithTraceSink(&rec);
  auto handle = MakeSlowPumpServer(config, std::chrono::microseconds(100));
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  ServiceServer& server = *handle->server;

  ASSERT_TRUE(server.Start().ok());
  std::barrier burst_start(kProducers + 1);
  std::vector<std::thread> threads;
  for (size_t p = 0; p < kProducers; ++p) {
    threads.emplace_back([&server, &burst_start, p, kOfferGap] {
      for (uint64_t b = 0; b < kBursts; ++b) {
        burst_start.arrive_and_wait();
        for (uint64_t i = 0; i < kPerBurst; ++i) {
          const uint64_t id = (b * kProducers + p) * kPerBurst + i;
          while (!server.Offer(MakeRequest(id, static_cast<uint32_t>(p)))) {
            std::this_thread::yield();
          }
          std::this_thread::sleep_for(kOfferGap);
        }
      }
    });
  }
  for (uint64_t b = 0; b < kBursts; ++b) {
    burst_start.arrive_and_wait();
    std::this_thread::sleep_for(kGap);
  }
  for (std::thread& t : threads) t.join();
  std::this_thread::sleep_for(kGap);  // let the pump go idle again
  server.Stop();  // must return from an idle pump
  EXPECT_FALSE(server.running());

  const ServiceStats stats = server.Stats();
  const uint64_t offered = kBursts * kProducers * kPerBurst;
  const AdmissionController::Counters& k = stats.admission;
  EXPECT_EQ(k.admitted, offered);
  EXPECT_EQ(k.offered, k.admitted + k.rejected_rate + k.rejected_load +
                           k.rejected_ring_full);
  EXPECT_EQ(stats.enqueued, offered);
  EXPECT_EQ(stats.dispatched, offered);
  EXPECT_EQ(stats.completions, offered);
  // Waking does not change the pass: each drains at most one ring and
  // serves all of it.
  uint64_t backlogged = 0, oversized = 0;
  for (const PumpPass& pass : PumpPasses(rec.events)) {
    if (pass.last_dispatch_depth != 0) ++backlogged;
    if (pass.enqueued > kRing) ++oversized;
  }
  EXPECT_EQ(backlogged, 0u);
  EXPECT_EQ(oversized, 0u);
}

}  // namespace
}  // namespace svc
}  // namespace csfc
