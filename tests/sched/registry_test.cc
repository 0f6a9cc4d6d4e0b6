#include "sched/registry.h"

#include <gtest/gtest.h>

namespace csfc {
namespace {

DiskModel* SharedDisk() {
  static DiskModel model = *DiskModel::Create(DiskParams::PanaVissDisk());
  return &model;
}

TEST(SchedulerRegistryTest, EveryListedNameBuilds) {
  SchedulerRegistryContext ctx;
  ctx.disk = SharedDisk();
  for (auto name : AllSchedulerNames()) {
    auto factory = MakeSchedulerFactory(name, ctx);
    ASSERT_TRUE(factory.ok()) << name << ": "
                              << factory.status().ToString();
    SchedulerPtr sched = (*factory)();
    ASSERT_NE(sched, nullptr) << name;
    EXPECT_FALSE(sched->name().empty()) << name;
  }
}

TEST(SchedulerRegistryTest, UnknownNameIsNotFound) {
  auto factory = MakeSchedulerFactory("elevator-9000", {});
  ASSERT_FALSE(factory.ok());
  EXPECT_EQ(factory.status().code(), StatusCode::kNotFound);
}

TEST(SchedulerRegistryTest, DiskDependentPoliciesNeedDisk) {
  SchedulerRegistryContext no_disk;
  for (const char* name : {"fd-scan", "scan-rt", "dds"}) {
    auto factory = MakeSchedulerFactory(name, no_disk);
    ASSERT_FALSE(factory.ok()) << name;
    EXPECT_EQ(factory.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(SchedulerRegistryTest, DiskFreePoliciesWorkWithoutDisk) {
  SchedulerRegistryContext no_disk;
  for (const char* name : {"fcfs", "sstf", "edf", "scan", "multi-queue",
                           "bucket", "ssedo", "csfc"}) {
    auto factory = MakeSchedulerFactory(name, no_disk);
    EXPECT_TRUE(factory.ok()) << name;
  }
}

// A bad encapsulator or dispatcher half fails at MakeSchedulerFactory,
// not when a run calls the factory (no probe scheduler catches it).
TEST(SchedulerRegistryTest, BadCascadedConfigFailsEagerly) {
  SchedulerRegistryContext bad_curve, negative_window, flat_expansion;
  bad_curve.cascaded.encapsulator.sfc1 = "bogus";
  negative_window.cascaded.dispatcher.window = -1.0;
  flat_expansion.cascaded.dispatcher.expand_reset = true;
  flat_expansion.cascaded.dispatcher.expansion_factor = 1.0;
  for (const SchedulerRegistryContext* ctx :
       {&bad_curve, &negative_window, &flat_expansion}) {
    EXPECT_FALSE(MakeSchedulerFactory("csfc", *ctx).ok());
  }
}

// One csfc factory builds one encapsulator: every scheduler it returns
// shares it, while queues stay per scheduler.
TEST(SchedulerRegistryTest, CsfcSchedulersShareOneEncapsulator) {
  SchedulerRegistryContext ctx;
  auto factory = MakeSchedulerFactory("csfc", ctx);
  ASSERT_TRUE(factory.ok()) << factory.status().ToString();
  SchedulerPtr a = (*factory)();
  SchedulerPtr b = (*factory)();
  auto* ca = dynamic_cast<CascadedSfcScheduler*>(a.get());
  auto* cb = dynamic_cast<CascadedSfcScheduler*>(b.get());
  ASSERT_NE(ca, nullptr);
  ASSERT_NE(cb, nullptr);
  EXPECT_EQ(&ca->encapsulator(), &cb->encapsulator());
  EXPECT_NE(&ca->dispatcher(), &cb->dispatcher());

  DispatchContext dctx;
  Request r;
  r.priorities.push_back(1);
  a->Enqueue(r, dctx);
  EXPECT_EQ(a->queue_size(), 1u);
  EXPECT_EQ(b->queue_size(), 0u);
  EXPECT_EQ(a->Dispatch(dctx)->id, r.id);
  EXPECT_FALSE(b->Dispatch(dctx).has_value());

  // A second factory builds its own.
  auto other = MakeSchedulerFactory("csfc", ctx);
  ASSERT_TRUE(other.ok());
  SchedulerPtr c = (*other)();
  auto* cc = dynamic_cast<CascadedSfcScheduler*>(c.get());
  ASSERT_NE(cc, nullptr);
  EXPECT_NE(&cc->encapsulator(), &ca->encapsulator());
}

TEST(SchedulerRegistryTest, FactoriesProduceFreshInstances) {
  SchedulerRegistryContext ctx;
  auto factory = MakeSchedulerFactory("fcfs", ctx);
  ASSERT_TRUE(factory.ok());
  SchedulerPtr a = (*factory)();
  SchedulerPtr b = (*factory)();
  DispatchContext dctx;
  Request r;
  a->Enqueue(r, dctx);
  EXPECT_EQ(a->queue_size(), 1u);
  EXPECT_EQ(b->queue_size(), 0u);  // independent state
}

TEST(SchedulerRegistryTest, ScanVariantsMapCorrectly) {
  SchedulerRegistryContext ctx;
  ctx.disk = SharedDisk();
  for (const char* name : {"scan", "look", "cscan", "clook"}) {
    auto factory = MakeSchedulerFactory(name, ctx);
    ASSERT_TRUE(factory.ok());
    EXPECT_EQ((*factory)()->name(), name);
  }
}

}  // namespace
}  // namespace csfc
