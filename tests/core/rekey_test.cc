// Batch re-characterization: the dispatcher's RekeyWaitingBatch hook and
// the Cascaded-SFC scheduler's recharacterize-on-swap behavior, which keeps
// each batch's SFC3 cylinder sweep coherent with the actual head position.

#include <gtest/gtest.h>

#include <span>

#include "core/cascaded_scheduler.h"
#include "core/dispatcher.h"
#include "core/presets.h"

namespace csfc {
namespace {

Request Req(RequestId id, Cylinder cyl = 0) {
  Request r;
  r.id = id;
  r.cylinder = cyl;
  return r;
}

// Rekeys q' through the batch entry point with a per-request key.
template <typename Key>
void RekeyEach(Dispatcher& d, Key key) {
  d.RekeyWaitingBatch(
      [&](std::span<const Request* const> reqs, std::span<CValue> out) {
        for (size_t i = 0; i < reqs.size(); ++i) out[i] = key(*reqs[i]);
      });
}

TEST(RekeyWaitingTest, ReordersWaitingQueue) {
  DispatcherConfig c;
  c.discipline = QueueDiscipline::kNonPreemptive;
  auto d = Dispatcher::Create(c);
  ASSERT_TRUE(d.ok());
  d->Insert(0.1, Req(1));
  d->Insert(0.2, Req(2));
  EXPECT_TRUE(d->NeedsSwapForPop());
  // Invert the keys: id 2 now beats id 1.
  RekeyEach(*d, [](const Request& r) { return r.id == 2 ? 0.05 : 0.5; });
  EXPECT_EQ(d->Pop()->id, 2u);
  EXPECT_EQ(d->Pop()->id, 1u);
}

TEST(RekeyWaitingTest, PreservesFifoAmongTies) {
  DispatcherConfig c;
  c.discipline = QueueDiscipline::kNonPreemptive;
  auto d = Dispatcher::Create(c);
  ASSERT_TRUE(d.ok());
  d->Insert(0.9, Req(1));
  d->Insert(0.1, Req(2));
  RekeyEach(*d, [](const Request&) { return 0.5; });  // all tie
  EXPECT_EQ(d->Pop()->id, 1u);  // insertion order breaks the tie
  EXPECT_EQ(d->Pop()->id, 2u);
}

TEST(RekeyWaitingTest, NeedsSwapOnlyWhenActiveEmptyAndWaitingNot) {
  DispatcherConfig c;
  c.discipline = QueueDiscipline::kFullyPreemptive;
  auto d = Dispatcher::Create(c);
  ASSERT_TRUE(d.ok());
  EXPECT_FALSE(d->NeedsSwapForPop());  // both empty
  d->Insert(0.5, Req(1));              // fully-preemptive -> active
  EXPECT_FALSE(d->NeedsSwapForPop());  // active nonempty
}

TEST(RecharacterizeTest, SweepFollowsTheHeadAcrossBatches) {
  // Stage-3-only scheduler with one sweep per batch. The first batch is
  // characterized around head 0; after it drains the head sits at 3000,
  // and the second batch must sweep forward from there: cylinder 3100
  // (ahead of the head) before cylinder 100 (behind, reached after wrap).
  CascadedConfig cfg = PresetCScan(3832);
  cfg.recharacterize_on_swap = true;
  auto s = CascadedSfcScheduler::Create(cfg);
  ASSERT_TRUE(s.ok());
  DispatchContext ctx{.now = 0, .head = 0};
  (*s)->Enqueue(Req(1, 3000), ctx);
  EXPECT_EQ((*s)->Dispatch(ctx)->id, 1u);
  ctx.head = 3000;  // the simulator moved the head
  (*s)->Enqueue(Req(2, 100), ctx);
  (*s)->Enqueue(Req(3, 3100), ctx);
  EXPECT_EQ((*s)->Dispatch(ctx)->id, 3u);
  EXPECT_EQ((*s)->Dispatch(ctx)->id, 2u);
}

TEST(RecharacterizeTest, DisabledKeepsEnqueueTimeOrder) {
  // Same scenario with re-characterization off: both requests were keyed
  // relative to head 0 at enqueue... but ctx.head was already 3000 at
  // enqueue here, so key them against an explicitly stale head instead.
  CascadedConfig cfg = PresetCScan(3832);
  cfg.recharacterize_on_swap = false;
  auto s = CascadedSfcScheduler::Create(cfg);
  ASSERT_TRUE(s.ok());
  DispatchContext at_zero{.now = 0, .head = 0};
  (*s)->Enqueue(Req(1, 3000), at_zero);
  EXPECT_EQ((*s)->Dispatch(at_zero)->id, 1u);
  // Enqueue while the scheduler still believes the head is at 0.
  (*s)->Enqueue(Req(2, 100), at_zero);
  (*s)->Enqueue(Req(3, 3100), at_zero);
  DispatchContext at_3000{.now = 0, .head = 3000};
  // Without rekeying, distances from head 0 rule: 100 before 3100.
  EXPECT_EQ((*s)->Dispatch(at_3000)->id, 2u);
  EXPECT_EQ((*s)->Dispatch(at_3000)->id, 3u);
}

TEST(RecharacterizeTest, SkippedForPriorityOnlyConfigurations) {
  // Stage-1-only schedulers have context-free values; the flag is moot
  // and must not change behavior.
  CascadedConfig cfg = PresetStage1Only("hilbert", 2, 4, 0.05);
  cfg.recharacterize_on_swap = true;
  auto a = CascadedSfcScheduler::Create(cfg);
  cfg.recharacterize_on_swap = false;
  auto b = CascadedSfcScheduler::Create(cfg);
  ASSERT_TRUE(a.ok() && b.ok());
  DispatchContext ctx;
  for (RequestId i = 0; i < 20; ++i) {
    Request r;
    r.id = i;
    r.priorities = PriorityVec{static_cast<PriorityLevel>((i * 7) % 16),
                               static_cast<PriorityLevel>((i * 3) % 16)};
    (*a)->Enqueue(r, ctx);
    (*b)->Enqueue(r, ctx);
  }
  while ((*a)->queue_size() > 0) {
    EXPECT_EQ((*a)->Dispatch(ctx)->id, (*b)->Dispatch(ctx)->id);
  }
}

TEST(RecharacterizeTest, UrgencyRefreshesWithTime) {
  // Stage-2 formula: a request's deadline urgency is recomputed when the
  // batch forms, so a request that aged in q' ranks as urgent.
  CascadedConfig cfg;
  cfg.encapsulator.stage1_enabled = false;
  cfg.encapsulator.priority_dims = 0;
  cfg.encapsulator.stage2_mode = Stage2Mode::kFormula;
  cfg.encapsulator.f = 1e6;
  cfg.encapsulator.stage2_tie = Stage2TieBreak::kNone;
  cfg.encapsulator.deadline_horizon_ms = 1000.0;
  cfg.encapsulator.stage3_mode = Stage3Mode::kDisabled;
  cfg.dispatcher.discipline = QueueDiscipline::kNonPreemptive;
  cfg.recharacterize_on_swap = true;
  auto s = CascadedSfcScheduler::Create(cfg);
  ASSERT_TRUE(s.ok());
  Request a;
  a.id = 1;
  a.deadline = MsToSim(1200);  // beyond the horizon at t=0: clamped
  Request b;
  b.id = 2;
  b.deadline = MsToSim(1100);  // also clamped at t=0 -> tie at enqueue
  DispatchContext t0{.now = 0, .head = 0};
  (*s)->Enqueue(a, t0);
  (*s)->Enqueue(b, t0);
  // By t=500ms both are inside the horizon and b is strictly earlier.
  DispatchContext t500{.now = MsToSim(500), .head = 0};
  EXPECT_EQ((*s)->Dispatch(t500)->id, 2u);
  EXPECT_EQ((*s)->Dispatch(t500)->id, 1u);
}

}  // namespace
}  // namespace csfc
