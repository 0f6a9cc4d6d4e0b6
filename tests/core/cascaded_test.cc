#include "core/cascaded_scheduler.h"

#include <gtest/gtest.h>

#include <vector>

#include "core/presets.h"

namespace csfc {
namespace {

Request Req(RequestId id, std::initializer_list<PriorityLevel> pris,
            SimTime deadline = kNoDeadline, Cylinder cyl = 0) {
  Request r;
  r.id = id;
  for (PriorityLevel p : pris) r.priorities.push_back(p);
  r.deadline = deadline;
  r.cylinder = cyl;
  return r;
}

TEST(CascadedSchedulerTest, CreateRejectsBadConfig) {
  CascadedConfig c;
  c.encapsulator.sfc1 = "bogus";
  EXPECT_FALSE(CascadedSfcScheduler::Create(c).ok());
  c = CascadedConfig();
  c.dispatcher.window = -1;
  EXPECT_FALSE(CascadedSfcScheduler::Create(c).ok());
}

TEST(CascadedSchedulerTest, NameEncodesConfiguration) {
  auto s = CascadedSfcScheduler::Create(
      PresetFull("hilbert", 3, 4, 1.0, 3, 3832, 0.05, 700.0));
  ASSERT_TRUE(s.ok());
  const std::string name{(*s)->name()};
  EXPECT_NE(name.find("csfc["), std::string::npos);
  EXPECT_NE(name.find("hilbert"), std::string::npos);
  EXPECT_NE(name.find("R=3"), std::string::npos);
}

TEST(CascadedSchedulerTest, ServesByCharacterizationValue) {
  auto s = CascadedSfcScheduler::Create(
      PresetStage1Only("cscan", 2, 4, /*window=*/0.0));
  ASSERT_TRUE(s.ok());
  DispatchContext ctx;
  // cscan over (p0, p1): index = p0*16 + p1, so p0 dominates.
  (*s)->Enqueue(Req(1, {5, 0}), ctx);
  (*s)->Enqueue(Req(2, {1, 15}), ctx);
  (*s)->Enqueue(Req(3, {1, 2}), ctx);
  EXPECT_EQ((*s)->Dispatch(ctx)->id, 3u);
  EXPECT_EQ((*s)->Dispatch(ctx)->id, 2u);
  EXPECT_EQ((*s)->Dispatch(ctx)->id, 1u);
}

TEST(CascadedSchedulerTest, LastCvalueExposed) {
  auto s = CascadedSfcScheduler::Create(
      PresetStage1Only("cscan", 1, 4, /*window=*/0.0));
  ASSERT_TRUE(s.ok());
  DispatchContext ctx;
  (*s)->Enqueue(Req(1, {8}), ctx);
  EXPECT_DOUBLE_EQ((*s)->last_cvalue(), 0.5);
}

TEST(CascadedSchedulerTest, QueueSizeAndForEachTrackBothQueues) {
  auto s = CascadedSfcScheduler::Create(
      PresetStage1Only("hilbert", 2, 4, /*window=*/0.1));
  ASSERT_TRUE(s.ok());
  DispatchContext ctx;
  (*s)->Enqueue(Req(1, {8, 8}), ctx);
  (*s)->Dispatch(ctx);
  (*s)->Enqueue(Req(2, {0, 0}), ctx);   // preempts into q
  (*s)->Enqueue(Req(3, {15, 15}), ctx); // waits in q'
  EXPECT_EQ((*s)->queue_size(), 2u);
  std::vector<RequestId> drained;
  while (auto r = (*s)->Dispatch(ctx)) drained.push_back(r->id);
  EXPECT_EQ(drained, (std::vector<RequestId>{2, 3}));
}

TEST(CascadedSchedulerTest, DeterministicAcrossInstances) {
  const CascadedConfig config =
      PresetFull("hilbert", 3, 4, 1.0, 3, 3832, 0.05, 700.0);
  auto a = CascadedSfcScheduler::Create(config);
  auto b = CascadedSfcScheduler::Create(config);
  ASSERT_TRUE(a.ok() && b.ok());
  DispatchContext ctx{.now = MsToSim(5), .head = 1000};
  for (RequestId i = 0; i < 50; ++i) {
    const Request r = Req(i, {static_cast<PriorityLevel>(i % 16),
                              static_cast<PriorityLevel>((i * 7) % 16),
                              static_cast<PriorityLevel>((i * 3) % 16)},
                          MsToSim(100.0 + static_cast<double>(i % 50) * 10.0),
                          static_cast<Cylinder>((i * 311) % 3832));
    (*a)->Enqueue(r, ctx);
    (*b)->Enqueue(r, ctx);
  }
  while ((*a)->queue_size() > 0) {
    auto ra = (*a)->Dispatch(ctx);
    auto rb = (*b)->Dispatch(ctx);
    ASSERT_TRUE(ra.has_value() && rb.has_value());
    EXPECT_EQ(ra->id, rb->id);
  }
}

TEST(CascadedSchedulerTest, DispatcherStatsAccessible) {
  auto s = CascadedSfcScheduler::Create(
      PresetStage1Only("hilbert", 2, 4, /*window=*/0.1));
  ASSERT_TRUE(s.ok());
  DispatchContext ctx;
  (*s)->Enqueue(Req(1, {8, 8}), ctx);
  (*s)->Dispatch(ctx);
  (*s)->Enqueue(Req(2, {0, 0}), ctx);
  EXPECT_EQ((*s)->dispatcher().preemptions(), 1u);
}

}  // namespace
}  // namespace csfc
