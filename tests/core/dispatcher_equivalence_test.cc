// Equivalence of the flat-queue Dispatcher and the std::map
// ReferenceDispatcher: random operation traces (insert / pop / rekey /
// drain a copy) replayed against both implementations must agree on every
// observable — popped request identity, sizes, swap prediction, window,
// counters and the service order of whatever is still queued. This is the
// release-build counterpart of the debug-only shadow cross-check inside
// Dispatcher itself.

#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/dispatcher.h"

namespace csfc {
namespace {

CValue UnitValue(Rng& rng) {
  // 16-bit grid keeps exact-tie FIFO ordering exercised.
  return static_cast<double>(rng() % 65536) / 65536.0;
}

void ExpectObservablesMatch(const Dispatcher& d, const ReferenceDispatcher& ref) {
  ASSERT_EQ(d.size(), ref.size());
  ASSERT_EQ(d.empty(), ref.empty());
  ASSERT_EQ(d.NeedsSwapForPop(), ref.NeedsSwapForPop());
  ASSERT_EQ(d.current_window(), ref.current_window());
  ASSERT_EQ(d.preemptions(), ref.preemptions());
  ASSERT_EQ(d.promotions(), ref.promotions());
  ASSERT_EQ(d.swaps(), ref.swaps());
}

// Service order of everything `d` holds, read from a copy so the original
// keeps replaying the trace.
template <typename D>
std::vector<RequestId> DrainCopy(D d) {
  std::vector<RequestId> ids;
  while (std::optional<Request> r = d.Pop()) ids.push_back(r->id);
  return ids;
}

void ExpectSameOrder(const Dispatcher& d, const ReferenceDispatcher& ref) {
  ASSERT_EQ(DrainCopy(d), DrainCopy(ref));
}

void ReplayRandomTrace(const DispatcherConfig& cfg, uint64_t seed,
                       int num_ops) {
  auto created = Dispatcher::Create(cfg);
  ASSERT_TRUE(created.ok());
  Dispatcher d = *std::move(created);
  ReferenceDispatcher ref(cfg);

  Rng rng(seed);
  RequestId next_id = 0;
  for (int i = 0; i < num_ops; ++i) {
    const uint64_t action = rng() % 100;
    if (action < 55) {
      Request r;
      r.id = next_id++;
      const CValue v = UnitValue(rng);
      d.Insert(v, r);
      ref.Insert(v, r);
    } else if (action < 85) {
      const std::optional<Request> a = d.Pop();
      const std::optional<Request> b = ref.Pop();
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a.has_value()) {
        ASSERT_EQ(a->id, b->id);
      }
    } else if (action < 93) {
      // Deterministic new key per request, decorrelated from the old one.
      const uint64_t salt = rng();
      auto key = [salt](const Request& r) {
        const uint64_t h = (r.id + salt) * 2654435761ULL;
        return static_cast<double>(h % 65536) / 65536.0;
      };
      // Alternate between the per-request and the batch rekey entry
      // points; both must leave the queues in the same state.
      if (rng() % 2 == 0) {
        d.RekeyWaiting(key);
        ref.RekeyWaiting(key);
      } else {
        auto batch = [&key](std::span<const Request* const> reqs,
                            std::span<CValue> out) {
          for (size_t k = 0; k < reqs.size(); ++k) out[k] = key(*reqs[k]);
        };
        d.RekeyWaitingBatch(batch);
        ref.RekeyWaitingBatch(batch);
      }
    } else {
      ExpectSameOrder(d, ref);
    }
    ExpectObservablesMatch(d, ref);
  }

  // Drain both to the end: the complete service order must agree.
  while (true) {
    const std::optional<Request> a = d.Pop();
    const std::optional<Request> b = ref.Pop();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a.has_value()) break;
    ASSERT_EQ(a->id, b->id);
    ExpectObservablesMatch(d, ref);
  }
}

DispatcherConfig Config(QueueDiscipline disc, double w, bool sp, bool er) {
  DispatcherConfig c;
  c.discipline = disc;
  c.window = w;
  c.serve_promote = sp;
  c.expand_reset = er;
  return c;
}

TEST(DispatcherEquivalenceTest, NonPreemptive) {
  ReplayRandomTrace(
      Config(QueueDiscipline::kNonPreemptive, 0.0, false, false), 1, 4000);
}

TEST(DispatcherEquivalenceTest, FullyPreemptive) {
  ReplayRandomTrace(
      Config(QueueDiscipline::kFullyPreemptive, 0.0, false, false), 2, 4000);
}

TEST(DispatcherEquivalenceTest, ConditionalZeroWindow) {
  ReplayRandomTrace(
      Config(QueueDiscipline::kConditionallyPreemptive, 0.0, true, false), 3,
      4000);
}

TEST(DispatcherEquivalenceTest, ConditionalWithSp) {
  ReplayRandomTrace(
      Config(QueueDiscipline::kConditionallyPreemptive, 0.05, true, false), 4,
      4000);
}

TEST(DispatcherEquivalenceTest, ConditionalWithoutSp) {
  ReplayRandomTrace(
      Config(QueueDiscipline::kConditionallyPreemptive, 0.05, false, false),
      5, 4000);
}

TEST(DispatcherEquivalenceTest, ConditionalWithEr) {
  ReplayRandomTrace(
      Config(QueueDiscipline::kConditionallyPreemptive, 0.02, true, true), 6,
      4000);
}

TEST(DispatcherEquivalenceTest, WideWindowDegeneratesTogether) {
  ReplayRandomTrace(
      Config(QueueDiscipline::kConditionallyPreemptive, 1.0, true, false), 7,
      4000);
}

TEST(DispatcherEquivalenceTest, ManySeeds) {
  for (uint64_t seed = 10; seed < 22; ++seed) {
    ReplayRandomTrace(
        Config(QueueDiscipline::kConditionallyPreemptive, 0.05, true,
               seed % 2 == 0),
        seed, 1200);
  }
}

// The same replay harness with the calendar backend: every observable the
// flat backend is held to, the calendar is held to as well. Bucket counts
// span one-bucket-degenerate through finer-than-the-key-grid.
TEST(DispatcherEquivalenceTest, CalendarBackendAllDisciplines) {
  uint64_t seed = 200;
  for (QueueDiscipline disc :
       {QueueDiscipline::kNonPreemptive, QueueDiscipline::kFullyPreemptive,
        QueueDiscipline::kConditionallyPreemptive}) {
    DispatcherConfig c = Config(disc, 0.05, true, false);
    c.queue_backend = QueueBackend::kCalendar;
    c.calendar_buckets = 1024;
    ReplayRandomTrace(c, seed++, 3000);
  }
}

TEST(DispatcherEquivalenceTest, CalendarBackendBucketCounts) {
  for (uint32_t buckets : {1u, 2u, 64u, 4096u, BucketedSlotHeap::kMaxBuckets}) {
    DispatcherConfig c =
        Config(QueueDiscipline::kConditionallyPreemptive, 0.05, true, true);
    c.queue_backend = QueueBackend::kCalendar;
    c.calendar_buckets = buckets;
    ReplayRandomTrace(c, 300 + buckets, 1500);
  }
}

// Zero-copy flow: requests inserted as rvalues (moved into the slot pool)
// and popped (moved out) must round-trip every payload field intact and
// still agree with the copying ReferenceDispatcher on service order. The
// heap-allocating fields (priorities beyond the inline capacity) are the
// ones a broken move would corrupt.
TEST(DispatcherEquivalenceTest, MoveBasedInsertPopRoundTripsPayloads) {
  const DispatcherConfig cfg =
      Config(QueueDiscipline::kConditionallyPreemptive, 0.05, true, true);
  auto created = Dispatcher::Create(cfg);
  ASSERT_TRUE(created.ok());
  Dispatcher d = *std::move(created);
  ReferenceDispatcher ref(cfg);

  Rng rng(99);
  RequestId next_id = 0;
  for (int i = 0; i < 3000; ++i) {
    if (rng() % 100 < 55) {
      Request r;
      r.id = next_id++;
      r.arrival = static_cast<SimTime>(i);
      r.deadline = static_cast<SimTime>(1000 + i);
      r.cylinder = static_cast<Cylinder>(rng() % 4000);
      r.bytes = 1024 + r.id;
      r.stream = static_cast<uint32_t>(r.id % 7);
      // 16 levels spills SmallVector's inline capacity of 12.
      for (uint32_t k = 0; k < 16; ++k) {
        r.priorities.push_back(static_cast<PriorityLevel>((r.id + k) % 8));
      }
      const CValue v = UnitValue(rng);
      ref.Insert(v, r);
      d.Insert(v, std::move(r));
    } else {
      std::optional<Request> a = d.Pop();
      const std::optional<Request> b = ref.Pop();
      ASSERT_EQ(a.has_value(), b.has_value());
      if (!a.has_value()) continue;
      ASSERT_EQ(a->id, b->id);
      EXPECT_EQ(a->arrival, b->arrival);
      EXPECT_EQ(a->deadline, b->deadline);
      EXPECT_EQ(a->cylinder, b->cylinder);
      EXPECT_EQ(a->bytes, b->bytes);
      EXPECT_EQ(a->stream, b->stream);
      ASSERT_EQ(a->priorities.size(), b->priorities.size());
      for (size_t k = 0; k < a->priorities.size(); ++k) {
        EXPECT_EQ(a->priorities[k], b->priorities[k]);
      }
    }
  }
  while (auto a = d.Pop()) {
    const std::optional<Request> b = ref.Pop();
    ASSERT_TRUE(b.has_value());
    ASSERT_EQ(a->id, b->id);
    ASSERT_EQ(a->priorities.size(), b->priorities.size());
  }
  EXPECT_FALSE(ref.Pop().has_value());
}

}  // namespace
}  // namespace csfc
