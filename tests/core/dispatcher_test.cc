// Dispatcher discipline tests, including an exact replay of the paper's
// Figure 4 worked example of the conditionally-preemptive scheduler with
// the SP policy.

#include "core/dispatcher.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <span>
#include <utility>
#include <vector>

namespace csfc {
namespace {

Request Req(RequestId id) {
  Request r;
  r.id = id;
  return r;
}

Dispatcher Make(QueueDiscipline d, double w = 0.0, bool sp = true,
                bool er = false, double e = 2.0) {
  DispatcherConfig c;
  c.discipline = d;
  c.window = w;
  c.serve_promote = sp;
  c.expand_reset = er;
  c.expansion_factor = e;
  auto r = Dispatcher::Create(c);
  EXPECT_TRUE(r.ok());
  return *r;
}

TEST(DispatcherConfigTest, Validation) {
  DispatcherConfig c;
  c.window = -0.1;
  EXPECT_FALSE(Dispatcher::Create(c).ok());
  c = DispatcherConfig();
  c.expand_reset = true;
  c.expansion_factor = 1.0;
  EXPECT_FALSE(Dispatcher::Create(c).ok());
  EXPECT_TRUE(Dispatcher::Create(DispatcherConfig()).ok());
}

TEST(DispatcherTest, EmptyPopsNothing) {
  Dispatcher d = Make(QueueDiscipline::kFullyPreemptive);
  EXPECT_FALSE(d.Pop().has_value());
  EXPECT_TRUE(d.empty());
}

TEST(FullyPreemptiveTest, AlwaysServesGlobalMinimum) {
  Dispatcher d = Make(QueueDiscipline::kFullyPreemptive);
  d.Insert(0.5, Req(1));
  d.Insert(0.2, Req(2));
  EXPECT_EQ(d.Pop()->id, 2u);
  d.Insert(0.1, Req(3));  // newcomer beats the older 0.5
  EXPECT_EQ(d.Pop()->id, 3u);
  EXPECT_EQ(d.Pop()->id, 1u);
}

TEST(FullyPreemptiveTest, ExactTiesAreFifo) {
  Dispatcher d = Make(QueueDiscipline::kFullyPreemptive);
  d.Insert(0.5, Req(1));
  d.Insert(0.5, Req(2));
  EXPECT_EQ(d.Pop()->id, 1u);
  EXPECT_EQ(d.Pop()->id, 2u);
}

TEST(NonPreemptiveTest, BatchesByArrivalEpoch) {
  Dispatcher d = Make(QueueDiscipline::kNonPreemptive);
  d.Insert(0.9, Req(1));
  d.Insert(0.5, Req(2));
  // Batch 1 starts: {1, 2} swapped into the active queue.
  EXPECT_EQ(d.Pop()->id, 2u);
  d.Insert(0.1, Req(3));  // very urgent, but must wait for the next batch
  EXPECT_EQ(d.Pop()->id, 1u);
  EXPECT_EQ(d.Pop()->id, 3u);
}

TEST(NonPreemptiveTest, SwapCountTracksBatches) {
  Dispatcher d = Make(QueueDiscipline::kNonPreemptive);
  d.Insert(0.5, Req(1));
  d.Pop();
  d.Insert(0.5, Req(2));
  d.Pop();
  EXPECT_EQ(d.swaps(), 2u);
}

TEST(ConditionalTest, WindowZeroPreemptsLikeFullyPreemptive) {
  Dispatcher d = Make(QueueDiscipline::kConditionallyPreemptive, 0.0);
  d.Insert(0.5, Req(1));
  EXPECT_EQ(d.Pop()->id, 1u);  // serving T1 (v=0.5)
  d.Insert(0.4, Req(2));       // any improvement preempts when w=0
  d.Insert(0.6, Req(3));
  EXPECT_EQ(d.Pop()->id, 2u);
  EXPECT_EQ(d.preemptions(), 1u);
}

TEST(ConditionalTest, HugeWindowActsNonPreemptive) {
  Dispatcher d = Make(QueueDiscipline::kConditionallyPreemptive, 1.0);
  d.Insert(0.9, Req(1));
  EXPECT_EQ(d.Pop()->id, 1u);
  d.Insert(0.05, Req(2));  // far better, still inside the full-space window
  EXPECT_EQ(d.preemptions(), 0u);
  EXPECT_EQ(d.Pop()->id, 2u);  // served after the (empty) batch swap
  EXPECT_GE(d.swaps(), 1u);
}

TEST(ConditionalTest, InsideWindowWaitsOutsideWindowPreempts) {
  Dispatcher d = Make(QueueDiscipline::kConditionallyPreemptive, 0.2,
                      /*sp=*/false);
  d.Insert(0.60, Req(1));
  EXPECT_EQ(d.Pop()->id, 1u);  // T_cur = 0.60
  d.Insert(0.45, Req(2));      // higher but inside [0.40, 0.60): waits
  d.Insert(0.35, Req(3));      // significantly higher: preempts
  EXPECT_EQ(d.preemptions(), 1u);
  EXPECT_EQ(d.Pop()->id, 3u);
  EXPECT_EQ(d.Pop()->id, 2u);
}

TEST(ConditionalTest, Figure4WorkedExample) {
  // Figure 4 of the paper, with w = 0.2 and the SP policy. Priority line
  // (lower v_c = higher priority): T5 < T6 < T7 < T2 < T3 < T1 < T4.
  Dispatcher d = Make(QueueDiscipline::kConditionallyPreemptive, 0.2,
                      /*sp=*/true);
  std::vector<RequestId> served;
  auto serve = [&] { served.push_back(d.Pop()->id); };

  d.Insert(0.60, Req(1));  // T1 arrives while the disk is idle
  serve();                 // T1 served immediately
  // While T1 is served: T2, T3 higher than T1 but inside the window; T4
  // lower than T1. All go to q'.
  d.Insert(0.45, Req(2));
  d.Insert(0.50, Req(3));
  d.Insert(0.90, Req(4));
  EXPECT_EQ(d.preemptions(), 0u);
  serve();  // q empty -> swap; T2 is the highest-priority in q
  // While T2 is served: only T5 is significantly more important than T2.
  d.Insert(0.05, Req(5));
  d.Insert(0.27, Req(6));
  d.Insert(0.40, Req(7));
  EXPECT_EQ(d.preemptions(), 1u);
  serve();  // T5 (preempted into q)
  serve();  // SP promotes T6 over T3 (T6 < T3 - w)
  serve();  // T3
  serve();  // SP promotes T7 over T4 (T7 < T4 - w)
  serve();  // T4

  EXPECT_EQ(served, (std::vector<RequestId>{1, 2, 5, 6, 3, 7, 4}));
  EXPECT_EQ(d.promotions(), 2u);
  EXPECT_TRUE(d.empty());
}

TEST(ConditionalTest, WithoutSpTheWindowCausesInversion) {
  // Same scenario as Figure 4 but SP disabled: T6 and T7 stay blocked in
  // q' until the batch drains, so T3 and T4 are served first.
  Dispatcher d = Make(QueueDiscipline::kConditionallyPreemptive, 0.2,
                      /*sp=*/false);
  std::vector<RequestId> served;
  auto serve = [&] { served.push_back(d.Pop()->id); };
  d.Insert(0.60, Req(1));
  serve();
  d.Insert(0.45, Req(2));
  d.Insert(0.50, Req(3));
  d.Insert(0.90, Req(4));
  serve();
  d.Insert(0.05, Req(5));
  d.Insert(0.27, Req(6));
  d.Insert(0.40, Req(7));
  while (!d.empty()) serve();
  EXPECT_EQ(served, (std::vector<RequestId>{1, 2, 5, 3, 4, 6, 7}));
}

TEST(ErPolicyTest, WindowExpandsOnPreemptionAndResetsOnSwap) {
  Dispatcher d = Make(QueueDiscipline::kConditionallyPreemptive, 0.1,
                      /*sp=*/true, /*er=*/true, /*e=*/2.0);
  d.Insert(0.90, Req(1));
  EXPECT_EQ(d.Pop()->id, 1u);  // T_cur = 0.90
  EXPECT_DOUBLE_EQ(d.current_window(), 0.1);
  d.Insert(0.70, Req(2));  // preempts (0.70 < 0.80); w -> 0.2
  EXPECT_EQ(d.preemptions(), 1u);
  EXPECT_DOUBLE_EQ(d.current_window(), 0.2);
  d.Insert(0.75, Req(3));  // would preempt at w=0.1, blocked at w=0.2
  EXPECT_EQ(d.preemptions(), 1u);
  d.Insert(0.50, Req(4));  // still beats 0.90 - 0.2; w -> 0.4
  EXPECT_EQ(d.preemptions(), 2u);
  EXPECT_DOUBLE_EQ(d.current_window(), 0.4);
  // Drain the active queue {2, 4}; then a swap brings 3 in and resets w.
  EXPECT_EQ(d.Pop()->id, 4u);
  EXPECT_EQ(d.Pop()->id, 2u);
  EXPECT_EQ(d.Pop()->id, 3u);  // swap happened here
  EXPECT_DOUBLE_EQ(d.current_window(), 0.1);
}

TEST(ErPolicyTest, SustainedUrgentStreamCannotStarveForever) {
  // An adversary keeps injecting ever-more-urgent requests; with ER the
  // window grows until preemption stops and the old batch drains.
  Dispatcher d = Make(QueueDiscipline::kConditionallyPreemptive, 0.01,
                      /*sp=*/false, /*er=*/true, /*e=*/2.0);
  d.Insert(0.99, Req(1000));  // the victim
  EXPECT_EQ(d.Pop()->id, 1000u);
  d.Insert(0.98, Req(1001));  // next batch victim
  double v = 0.90;
  int preempts_before_block = 0;
  for (RequestId i = 0; i < 64; ++i) {
    const uint64_t before = d.preemptions();
    d.Insert(v, Req(i));
    if (d.preemptions() > before) ++preempts_before_block;
    v *= 0.95;  // strictly more urgent each time
  }
  // The window must have saturated: far fewer than 64 preemptions.
  EXPECT_LT(preempts_before_block, 12);
  // And the batch victim is reachable in bounded pops.
  int pops_until_victim = 0;
  while (true) {
    auto r = d.Pop();
    ASSERT_TRUE(r.has_value());
    ++pops_until_victim;
    if (r->id == 1001u) break;
  }
  EXPECT_LE(pops_until_victim, 65);
}

TEST(DispatcherTest, ForEachVisitsBothQueues) {
  Dispatcher d = Make(QueueDiscipline::kConditionallyPreemptive, 0.2);
  d.Insert(0.5, Req(1));
  EXPECT_EQ(d.Pop()->id, 1u);
  d.Insert(0.1, Req(2));  // preempts -> active
  d.Insert(0.9, Req(3));  // waits
  EXPECT_EQ(d.size(), 2u);
  std::vector<RequestId> drained;
  while (auto r = d.Pop()) drained.push_back(r->id);
  EXPECT_EQ(drained, (std::vector<RequestId>{2, 3}));
}

// ---------------------------------------------------------------------------
// Slot pool. Payloads are parked in chunks of 4,096 requests; these cases
// span several chunks, so the slot -> (chunk, index) mapping, chunk
// growth, free-list reuse across chunks and copies of a multi-chunk pool
// are all exercised. Every payload field is distinct per id, and every
// fifth request fills all 12 priority slots: a payload moved, overwritten
// or aliased by mistake would corrupt those.
// ---------------------------------------------------------------------------

constexpr RequestId kPoolChunk = 4096;

Request PoolPayload(RequestId id) {
  Request r;
  r.id = id;
  r.cylinder = static_cast<Cylinder>((id * 7919) % 3832);
  r.bytes = 4096 + id * 3;
  if (id % 5 == 0) {
    for (uint32_t k = 0; k < kMaxPriorityDims; ++k) {
      r.priorities.push_back(static_cast<PriorityLevel>((id + k) % 8));
    }
  }
  return r;
}

void ExpectPoolPayload(const Request& r) {
  const Request want = PoolPayload(r.id);
  EXPECT_EQ(r.cylinder, want.cylinder) << "id " << r.id;
  EXPECT_EQ(r.bytes, want.bytes) << "id " << r.id;
  ASSERT_EQ(r.priorities.size(), want.priorities.size()) << "id " << r.id;
  for (size_t k = 0; k < r.priorities.size(); ++k) {
    EXPECT_EQ(r.priorities[k], want.priorities[k]) << "id " << r.id;
  }
}

// Distinct keys for ids below 2^16 (an odd multiplier permutes the 16-bit
// grid), scattered so service order jumps between chunks.
CValue PoolKey(RequestId id) {
  return static_cast<double>((id * 40503) % 65536) / 65536.0;
}

// Inserts alternate the copy and the move overload.
void InsertPoolPayload(Dispatcher& d, RequestId id) {
  if (id % 2 == 0) {
    d.Insert(PoolKey(id), PoolPayload(id));
  } else {
    const Request r = PoolPayload(id);
    d.Insert(PoolKey(id), r);
  }
}

// Grows the pool to 3 x 4,096 + 1 payloads, churns it, then drains it:
// every request is popped once and checked field by field. Fully
// preemptive with distinct keys, so the dispatcher serves the global key
// minimum and an ordered map is an exact oracle.
TEST(DispatcherSlotPoolTest, PayloadsSurviveGrowthAndReuseAcrossChunks) {
  Dispatcher d = Make(QueueDiscipline::kFullyPreemptive);
  std::map<CValue, RequestId> oracle;
  RequestId next = 0;
  auto insert = [&] {
    InsertPoolPayload(d, next);
    oracle.emplace(PoolKey(next), next);
    ++next;
  };
  auto pop = [&] {
    const std::optional<Request> r = d.Pop();
    ASSERT_TRUE(r.has_value());
    ASSERT_EQ(r->id, oracle.begin()->second);
    ASSERT_NO_FATAL_FAILURE(ExpectPoolPayload(*r));
    oracle.erase(oracle.begin());
  };
  for (RequestId i = 0; i < 3 * kPoolChunk + 1; ++i) insert();
  // The smallest keys belong to ids spread over all four chunks, so each
  // pop burst frees slots in every chunk, and the insert burst after it
  // takes them back from the LIFO free list before growing the pool.
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 1500; ++i) ASSERT_NO_FATAL_FAILURE(pop());
    for (int i = 0; i < 1000 + 100 * round; ++i) insert();
    ASSERT_EQ(d.size(), oracle.size());
  }
  while (!oracle.empty()) ASSERT_NO_FATAL_FAILURE(pop());
  EXPECT_TRUE(d.empty());
  EXPECT_FALSE(d.Pop().has_value());
}

// Batch rekey hands the hook a pointer to every parked payload in q', so
// it can observe where payloads live. Each request is rekeyed to its own
// key, leaving the order as it was.
std::map<RequestId, const Request*> WaitingPayloadAddresses(Dispatcher& d) {
  std::map<RequestId, const Request*> where;
  d.RekeyWaitingBatch(
      [&where](std::span<const Request* const> reqs, std::span<CValue> keys) {
        for (size_t i = 0; i < reqs.size(); ++i) {
          where[reqs[i]->id] = reqs[i];
          keys[i] = PoolKey(reqs[i]->id);
        }
      });
  return where;
}

TEST(DispatcherSlotPoolTest, GrowthNeverMovesAParkedPayload) {
  // Non-preemptive: before the first pop every arrival waits in q'.
  Dispatcher d = Make(QueueDiscipline::kNonPreemptive);
  RequestId next = 0;
  for (; next < 1000; ++next) InsertPoolPayload(d, next);
  const std::map<RequestId, const Request*> before =
      WaitingPayloadAddresses(d);
  ASSERT_EQ(before.size(), 1000u);
  // Grow the pool past three more chunks.
  for (; next < 3 * kPoolChunk + 1; ++next) InsertPoolPayload(d, next);
  const std::map<RequestId, const Request*> after =
      WaitingPayloadAddresses(d);
  ASSERT_EQ(after.size(), next);
  for (const auto& [id, address] : before) {
    ASSERT_EQ(after.at(id), address) << "payload " << id << " moved";
  }
  for (RequestId served = 0; served < next; ++served) {
    const std::optional<Request> r = d.Pop();
    ASSERT_TRUE(r.has_value());
    ASSERT_NO_FATAL_FAILURE(ExpectPoolPayload(*r));
  }
  EXPECT_TRUE(d.empty());
}

std::vector<Request> DrainPayloads(Dispatcher& d) {
  std::vector<Request> out;
  while (std::optional<Request> r = d.Pop()) out.push_back(std::move(*r));
  return out;
}

TEST(DispatcherSlotPoolTest, CopyOfMultiChunkPoolDrainsLikeOriginal) {
  // Conditional discipline with SP, so the copy carries both queues.
  Dispatcher d = Make(QueueDiscipline::kConditionallyPreemptive, 0.05);
  RequestId next = 0;
  for (; next < 2 * kPoolChunk + 100; ++next) InsertPoolPayload(d, next);
  for (int i = 0; i < 300; ++i) ASSERT_TRUE(d.Pop().has_value());
  for (RequestId end = next + 500; next < end; ++next) {
    InsertPoolPayload(d, next);
  }
  Dispatcher copy = d;
  // The copy's last chunk has no spare reserve, so these inserts may
  // reallocate it; the original grows in place.
  for (RequestId end = next + 700; next < end; ++next) {
    InsertPoolPayload(d, next);
    InsertPoolPayload(copy, next);
  }
  ASSERT_EQ(copy.size(), d.size());
  const std::vector<Request> a = DrainPayloads(d);
  const std::vector<Request> b = DrainPayloads(copy);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].id, b[i].id) << "position " << i;
    ASSERT_NO_FATAL_FAILURE(ExpectPoolPayload(b[i]));
  }
}

}  // namespace
}  // namespace csfc
