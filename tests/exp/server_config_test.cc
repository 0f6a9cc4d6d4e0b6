// ServerConfig: the unified construction surface (ISSUE 7 satellite).
// Covers Validate's per-layer delegation, the builder chain, factory
// construction through the registry, MakeServer's admission-cost
// derivation from the disk model, and the one-PR deprecated alias.

#include <gtest/gtest.h>

#include <memory>

#include "core/presets.h"
#include "exp/server_config.h"
#include "obs/vector_sink.h"

namespace csfc {
namespace {

CascadedConfig Preset(uint32_t cylinders) {
  return PresetFull("hilbert", 3, 4, 1.0, 3, cylinders, 0.05, 700.0);
}

TEST(ServerConfigTest, DefaultConfigValidates) {
  ServerConfig config;
  EXPECT_TRUE(config.Validate().ok());
}

TEST(ServerConfigTest, ValidateRejectsUnknownScheduler) {
  ServerConfig config;
  config.WithScheduler("frisbee");
  const Status s = config.Validate();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.ToString().find("unknown scheduler"), std::string::npos);
}

TEST(ServerConfigTest, ValidateDelegatesToEveryLayer) {
  {
    ServerConfig config;
    config.time_scale = -1.0;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    ServerConfig config;
    config.ingest.drain_batch = 0;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    ServerConfig config;
    config.admission.max_streams = 0;
    EXPECT_FALSE(config.Validate().ok());
  }
  {
    ServerConfig config;
    config.sim.metrics.dims = 13;  // paper maximum is 12
    EXPECT_FALSE(config.Validate().ok());
  }
}

TEST(ServerConfigTest, BuilderChainSetsEveryLayer) {
  obs::VectorSink rec;
  ServerConfig config;
  config.WithScheduler("csfc")
      .WithMetricsShape(3, 16)
      .WithCascaded(Preset(config.sim.disk.cylinders))
      .WithServiceModel(ServiceModel::kTransferOnly)
      .WithTraceSink(&rec)
      .WithSlo(25.0)
      .WithStreamRate(100.0, 10.0)
      .WithIngest(512, 32)
      .WithTimeScale(0.5);
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_EQ(config.scheduler, "csfc");
  EXPECT_EQ(config.sim.metrics.levels, 16u);
  EXPECT_EQ(config.registry.priority_levels, 16u);
  EXPECT_EQ(config.registry.cascaded.encapsulator.cylinders,
            config.sim.disk.cylinders);
  EXPECT_EQ(config.sim.service_model, ServiceModel::kTransferOnly);
  EXPECT_EQ(config.sim.trace_sink, &rec);
  EXPECT_DOUBLE_EQ(config.admission.slo_wait_ms, 25.0);
  EXPECT_DOUBLE_EQ(config.admission.stream_rate_rps, 100.0);
  EXPECT_DOUBLE_EQ(config.admission.stream_burst, 10.0);
  EXPECT_EQ(config.ingest.ring_capacity, 512u);
  EXPECT_EQ(config.ingest.drain_batch, 32u);
  EXPECT_DOUBLE_EQ(config.time_scale, 0.5);
}

TEST(ServerConfigTest, MakeFactoryBuildsEveryRegisteredPolicy) {
  ServerConfig config;
  config.WithMetricsShape(3, 16)
      .WithCascaded(Preset(config.sim.disk.cylinders));
  auto disk = DiskModel::Create(config.sim.disk);
  ASSERT_TRUE(disk.ok());
  for (std::string_view name : AllSchedulerNames()) {
    config.WithScheduler(name);
    auto factory = config.MakeFactory(*disk);
    ASSERT_TRUE(factory.ok()) << name << ": " << factory.status().ToString();
    SchedulerPtr sched = (*factory)();
    ASSERT_NE(sched, nullptr) << name;
  }
}

TEST(ServerConfigTest, MakeServerDerivesAdmissionCostsFromDisk) {
  ServerConfig config;
  config.WithMetricsShape(3, 16)
      .WithCascaded(Preset(config.sim.disk.cylinders))
      .WithSlo(50.0);
  auto handle = MakeServer(config);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  // The oracle's costs came from the disk model, not the zero defaults:
  // a full-stroke sweep on the default disk costs real milliseconds.
  const svc::AdmissionConfig& derived =
      handle->server->admission().config();
  EXPECT_GT(derived.fixed_cost_ms, 0.0);
  EXPECT_GT(derived.sweep_cost_ms, 0.0);
}

TEST(ServerConfigTest, MakeServerRejectsInvalidConfig) {
  ServerConfig config;
  config.ingest.ring_capacity = 0;
  EXPECT_FALSE(MakeServer(config).ok());
}

TEST(ServerConfigTest, DefaultConfigValidatesAsCsfc) {
  // The deprecated ServiceServerConfig alias completed its one-PR
  // migration window (DESIGN.md section 12) and is gone; the defaults
  // it forwarded to are pinned here instead.
  ServerConfig config;
  EXPECT_TRUE(config.Validate().ok());
  EXPECT_EQ(config.scheduler, "csfc");
}

}  // namespace
}  // namespace csfc
