// Calendar-queue backend correctness: the BucketedSlotHeap directly (run
// ordering, FIFO ties, bulk promotion, bucket growth) and the calendar
// Dispatcher against both the std::map ReferenceDispatcher and the flat
// Dispatcher on the same random traces. The adversarial cases target the
// calendar's structural edges — rekeys that land exactly on bucket
// boundaries, cursor resets when migration moves work behind the sweep,
// long empty-bucket stretches that exercise the two-level occupancy
// bitmap, and single-range pileups that force GrowBucket past the slab
// reserve and push DrainBelowInto onto its storage-swap path.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/dispatcher.h"
#include "core/flat_queue.h"

namespace csfc {
namespace {

using Entry = BucketedSlotHeap::Entry;

bool Less(const Entry& a, const Entry& b) {
  return BucketedSlotHeap::Less(a, b);
}

// ---------------------------------------------------------------------------
// Direct BucketedSlotHeap unit tests.
// ---------------------------------------------------------------------------

TEST(BucketedSlotHeapTest, PopsInGlobalKeyOrder) {
  BucketedSlotHeap q;
  q.Configure(64);
  Rng rng(1);
  std::vector<Entry> expect;
  for (uint32_t i = 0; i < 5000; ++i) {
    const CValue v = static_cast<double>(rng() % 4096) / 4096.0;
    q.Push(QueueKey{v, i}, i);
    expect.push_back(Entry{v, i, i});
  }
  std::sort(expect.begin(), expect.end(),
            [](const Entry& a, const Entry& b) { return Less(a, b); });
  for (const Entry& e : expect) {
    ASSERT_FALSE(q.empty());
    EXPECT_EQ(q.MinValue(), e.v);
    const Entry got = q.PopMin();
    EXPECT_EQ(got.v, e.v);
    EXPECT_EQ(got.slot, e.slot);
  }
  EXPECT_TRUE(q.empty());
}

TEST(BucketedSlotHeapTest, EqualKeysPopFifo) {
  BucketedSlotHeap q;
  q.Configure(8);
  // Two distinct values, many ties each; ties must come out in push order.
  for (uint32_t i = 0; i < 100; ++i) {
    q.Push(QueueKey{i % 2 == 0 ? 0.25 : 0.75, i}, i);
  }
  uint32_t last_even = 0, last_odd = 0;
  for (int i = 0; i < 50; ++i) {
    const Entry e = q.PopMin();
    EXPECT_EQ(e.v, 0.25);
    if (i > 0) {
      EXPECT_GT(e.slot, last_even);
    }
    last_even = e.slot;
  }
  for (int i = 0; i < 50; ++i) {
    const Entry e = q.PopMin();
    EXPECT_EQ(e.v, 0.75);
    if (i > 0) {
      EXPECT_GT(e.slot, last_odd);
    }
    last_odd = e.slot;
  }
}

TEST(BucketedSlotHeapTest, SingleBucketPileupGrowsPastReserve) {
  // Every key lands in one bucket: the run must grow well past the
  // 16-entry slab reserve (heap-allocated storage path) and still pop in
  // (v, seq) order.
  BucketedSlotHeap q;
  q.Configure(1024);
  Rng rng(2);
  const double lo = 0.5;
  const double width = 1.0 / 1024.0;
  std::vector<Entry> expect;
  for (uint32_t i = 0; i < 2000; ++i) {
    const CValue v = lo + width * 0.9 * (static_cast<double>(rng() % 997) / 997.0);
    q.Push(QueueKey{v, i}, i);
    expect.push_back(Entry{v, i, i});
  }
  std::sort(expect.begin(), expect.end(),
            [](const Entry& a, const Entry& b) { return Less(a, b); });
  for (const Entry& e : expect) {
    const Entry got = q.PopMin();
    EXPECT_EQ(got.v, e.v);
    EXPECT_EQ(got.slot, e.slot);
  }
  EXPECT_TRUE(q.empty());
}

TEST(BucketedSlotHeapTest, EmptyBucketSkipsAcrossSummaryWords) {
  // Occupied buckets > 4096 apart force FindNonEmptyFrom through the
  // summary level of the occupancy bitmap, not just the word level.
  BucketedSlotHeap q;
  q.Configure(BucketedSlotHeap::kMaxBuckets);
  const std::vector<double> values = {0.0001, 0.37, 0.62, 0.9999};
  uint32_t seq = 0;
  for (double v : values) q.Push(QueueKey{v, seq++}, seq);
  for (double v : values) {
    EXPECT_EQ(q.MinValue(), v);
    EXPECT_EQ(q.PopMin().v, v);
  }
  EXPECT_TRUE(q.empty());
}

void ExpectDrainMatchesBruteForce(uint32_t buckets, uint64_t seed, size_t n,
                                  double threshold, bool pileup) {
  BucketedSlotHeap src, dst;
  src.Configure(buckets);
  dst.Configure(buckets);
  Rng rng(seed);
  std::vector<Entry> all;
  for (uint32_t i = 0; i < n; ++i) {
    // Pileup mode funnels everything into two buckets on either side of
    // the threshold so the drain's whole-bucket move sees an oversized
    // run and takes the storage-swap branch.
    const CValue v =
        pileup ? (i % 2 == 0 ? threshold / 2 : (1.0 + threshold) / 2)
               : static_cast<double>(rng() % 8192) / 8192.0;
    src.Push(QueueKey{v, i}, i);
    all.push_back(Entry{v, i, i});
  }
  // Drain a prefix first so the source cursor is mid-sweep, as it is at
  // the serve-promote call site.
  const size_t pre = n / 10;
  std::sort(all.begin(), all.end(),
            [](const Entry& a, const Entry& b) { return Less(a, b); });
  for (size_t i = 0; i < pre; ++i) {
    ASSERT_EQ(src.PopMin().slot, all[i].slot);
  }
  all.erase(all.begin(), all.begin() + static_cast<ptrdiff_t>(pre));

  const size_t moved = src.DrainBelowInto(threshold, dst);
  std::vector<Entry> below, above;
  for (const Entry& e : all) (e.v < threshold ? below : above).push_back(e);
  ASSERT_EQ(moved, below.size());
  ASSERT_EQ(dst.size(), below.size());
  ASSERT_EQ(src.size(), above.size());
  for (const Entry& e : below) {
    const Entry got = dst.PopMin();
    EXPECT_EQ(got.v, e.v);
    EXPECT_EQ(got.slot, e.slot);
  }
  for (const Entry& e : above) {
    const Entry got = src.PopMin();
    EXPECT_EQ(got.v, e.v);
    EXPECT_EQ(got.slot, e.slot);
  }
  EXPECT_TRUE(src.empty());
  EXPECT_TRUE(dst.empty());
}

TEST(BucketedSlotHeapTest, DrainBelowMatchesBruteForce) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    ExpectDrainMatchesBruteForce(256, seed, 3000, 0.3 + 0.1 * (double)seed,
                                 false);
  }
}

TEST(BucketedSlotHeapTest, DrainBelowBucketBoundaryThreshold) {
  // Threshold exactly on a bucket boundary: the boundary bucket's
  // partition must keep entries with v == threshold (promotion is strict
  // less-than).
  BucketedSlotHeap src, dst;
  src.Configure(16);
  dst.Configure(16);
  const double boundary = 4.0 / 16.0;
  uint32_t seq = 0;
  for (double v : {boundary - 0.01, boundary, boundary + 0.01}) {
    src.Push(QueueKey{v, seq++}, seq);
  }
  EXPECT_EQ(src.DrainBelowInto(boundary, dst), 1u);
  EXPECT_EQ(dst.size(), 1u);
  EXPECT_EQ(dst.PopMin().v, boundary - 0.01);
  EXPECT_EQ(src.PopMin().v, boundary);
  EXPECT_EQ(src.PopMin().v, boundary + 0.01);
}

TEST(BucketedSlotHeapTest, DrainBelowOversizedRunSwapsStorage) {
  ExpectDrainMatchesBruteForce(1024, 7, 4000, 0.75, /*pileup=*/true);
}

TEST(BucketedSlotHeapTest, RekeyMigratesAcrossBucketsAndResetsCursor) {
  BucketedSlotHeap q;
  q.Configure(128);
  for (uint32_t i = 0; i < 600; ++i) {
    q.Push(QueueKey{0.5 + static_cast<double>(i % 50) / 128.0, i}, i);
  }
  // Advance the sweep cursor past the low buckets.
  for (int i = 0; i < 100; ++i) q.PopMin();
  // Rekey every slot to a value below everything popped so far: the
  // cursor must reset behind itself or the new minimum would be skipped.
  std::vector<CValue> vals(q.size());
  size_t idx = 0;
  q.ForEachEntrySlot([&](uint32_t slot) {
    vals[idx++] = static_cast<double>(slot % 37) / 512.0;
  });
  q.AssignKeys(vals);
  CValue prev = -1.0;
  size_t count = 0;
  while (!q.empty()) {
    const Entry e = q.PopMin();
    EXPECT_GE(e.v, prev);
    EXPECT_LT(e.v, 37.0 / 512.0);
    prev = e.v;
    ++count;
  }
  EXPECT_EQ(count, 500u);
}

// ---------------------------------------------------------------------------
// Three-way dispatcher equivalence: calendar vs reference vs flat.
// ---------------------------------------------------------------------------

DispatcherConfig CalCfg(QueueDiscipline disc, double w, bool sp, bool er,
                        uint32_t buckets) {
  DispatcherConfig c;
  c.discipline = disc;
  c.window = w;
  c.serve_promote = sp;
  c.expand_reset = er;
  c.queue_backend = QueueBackend::kCalendar;
  c.calendar_buckets = buckets;
  return c;
}

// Service order of everything `d` holds, read from a copy so the original
// keeps replaying the trace.
template <typename D>
std::vector<RequestId> DrainCopy(D d) {
  std::vector<RequestId> ids;
  while (std::optional<Request> r = d.Pop()) ids.push_back(r->id);
  return ids;
}

void ExpectAgree(const Dispatcher& cal, const Dispatcher& flat,
                 const ReferenceDispatcher& ref) {
  ASSERT_EQ(cal.size(), ref.size());
  ASSERT_EQ(cal.NeedsSwapForPop(), ref.NeedsSwapForPop());
  ASSERT_EQ(cal.current_window(), ref.current_window());
  ASSERT_EQ(cal.preemptions(), ref.preemptions());
  ASSERT_EQ(cal.promotions(), ref.promotions());
  ASSERT_EQ(cal.swaps(), ref.swaps());
  ASSERT_EQ(flat.size(), ref.size());
  ASSERT_EQ(flat.promotions(), ref.promotions());
}

// Replays a random trace over all three implementations. value_of controls
// the arrival-key distribution so callers can aim at calendar edge cases;
// rekey_of must be pure (a function of its Rng only) because it is invoked
// once per dispatcher over the same requests.
template <typename ValueFn, typename RekeyFn>
void ReplayThreeWay(const DispatcherConfig& cal_cfg, uint64_t seed,
                    int num_ops, ValueFn&& value_of, RekeyFn&& rekey_of) {
  auto created_cal = Dispatcher::Create(cal_cfg);
  ASSERT_TRUE(created_cal.ok());
  Dispatcher cal = *std::move(created_cal);
  DispatcherConfig flat_cfg = cal_cfg;
  flat_cfg.queue_backend = QueueBackend::kFlat;
  auto created_flat = Dispatcher::Create(flat_cfg);
  ASSERT_TRUE(created_flat.ok());
  Dispatcher flat = *std::move(created_flat);
  ReferenceDispatcher ref(cal_cfg);

  Rng rng(seed);
  RequestId next_id = 0;
  for (int i = 0; i < num_ops; ++i) {
    const uint64_t action = rng() % 100;
    if (action < 55) {
      Request r;
      r.id = next_id++;
      const CValue v = value_of(rng);
      cal.Insert(v, r);
      flat.Insert(v, r);
      ref.Insert(v, r);
    } else if (action < 85) {
      const std::optional<Request> a = cal.Pop();
      const std::optional<Request> b = flat.Pop();
      const std::optional<Request> c = ref.Pop();
      ASSERT_EQ(a.has_value(), c.has_value());
      ASSERT_EQ(b.has_value(), c.has_value());
      if (a.has_value()) {
        ASSERT_EQ(a->id, c->id);
        ASSERT_EQ(b->id, c->id);
      }
    } else if (action < 93) {
      const uint64_t salt = rng();
      auto key = [salt, &rekey_of](const Request& r) {
        Rng h((r.id + 1) * 2654435761ULL ^ salt);
        return rekey_of(h);
      };
      cal.RekeyWaiting(key);
      flat.RekeyWaiting(key);
      ref.RekeyWaiting(key);
    } else {
      const std::vector<RequestId> ra = DrainCopy(ref);
      ASSERT_EQ(DrainCopy(cal), ra);
      ASSERT_EQ(DrainCopy(flat), ra);
    }
    ExpectAgree(cal, flat, ref);
  }
  while (true) {
    const std::optional<Request> a = cal.Pop();
    const std::optional<Request> b = flat.Pop();
    const std::optional<Request> c = ref.Pop();
    ASSERT_EQ(a.has_value(), c.has_value());
    ASSERT_EQ(b.has_value(), c.has_value());
    if (!a.has_value()) break;
    ASSERT_EQ(a->id, c->id);
    ASSERT_EQ(b->id, c->id);
  }
}

CValue UniformGrid(Rng& rng) {
  return static_cast<double>(rng() % 65536) / 65536.0;
}

// Pure value functions double as their own rekey distribution.
template <typename ValueFn>
void ReplayThreeWay(const DispatcherConfig& cal_cfg, uint64_t seed,
                    int num_ops, ValueFn&& value_of) {
  ReplayThreeWay(cal_cfg, seed, num_ops, value_of, value_of);
}

TEST(CalendarEquivalenceTest, AllDisciplines) {
  uint64_t seed = 100;
  for (QueueDiscipline disc :
       {QueueDiscipline::kNonPreemptive, QueueDiscipline::kFullyPreemptive,
        QueueDiscipline::kConditionallyPreemptive}) {
    for (bool sp : {false, true}) {
      ReplayThreeWay(CalCfg(disc, 0.05, sp, false, 256), seed++, 2500,
                     UniformGrid);
    }
  }
}

TEST(CalendarEquivalenceTest, ConditionalWithExpandReset) {
  ReplayThreeWay(
      CalCfg(QueueDiscipline::kConditionallyPreemptive, 0.02, true, true, 1024),
      7, 4000, UniformGrid);
}

TEST(CalendarEquivalenceTest, BucketBoundaryKeys) {
  // Keys pinned to exact bucket boundaries k / num_buckets (and one ulp to
  // either side): rekeys and promotions constantly cross bucket edges.
  const uint32_t buckets = 64;
  auto value_of = [buckets](Rng& rng) {
    const double edge =
        static_cast<double>(rng() % buckets) / static_cast<double>(buckets);
    switch (rng() % 3) {
      case 0:
        return edge;
      case 1:
        return std::nextafter(edge, 0.0);
      default:
        return std::nextafter(edge, 1.0);
    }
  };
  for (uint64_t seed = 30; seed < 34; ++seed) {
    ReplayThreeWay(
        CalCfg(QueueDiscipline::kConditionallyPreemptive, 0.05, true, false,
               buckets),
        seed, 3000, value_of);
  }
}

TEST(CalendarEquivalenceTest, SweepDirectionFlips) {
  // Alternating phases of ascending and descending arrival keys: the
  // cursor repeatedly sweeps forward, then a burst of low arrivals (or a
  // downward rekey) yanks it back.
  int phase = 0;
  auto value_of = [&phase](Rng& rng) {
    const double u = static_cast<double>(rng() % 4096) / 4096.0;
    ++phase;
    const bool ascending = (phase / 64) % 2 == 0;
    return ascending ? 0.5 + u / 2 : u / 2;
  };
  for (uint64_t seed = 40; seed < 44; ++seed) {
    // value_of is stateful, so rekeys use the pure uniform distribution.
    ReplayThreeWay(
        CalCfg(QueueDiscipline::kConditionallyPreemptive, 0.1, true, false,
               512),
        seed, 3000, value_of, UniformGrid);
  }
}

TEST(CalendarEquivalenceTest, SparseValuesSkipEmptyBuckets) {
  // Only a handful of populated buckets across the full 2^16-bucket
  // calendar: pops spend their time in FindNonEmptyFrom.
  auto value_of = [](Rng& rng) {
    static const double kSpots[] = {0.001, 0.25, 0.49, 0.73, 0.999};
    return kSpots[rng() % 5] + static_cast<double>(rng() % 16) / 1e6;
  };
  ReplayThreeWay(CalCfg(QueueDiscipline::kConditionallyPreemptive, 0.05, true,
                        false, BucketedSlotHeap::kMaxBuckets),
                 50, 3000, value_of);
}

TEST(CalendarEquivalenceTest, AdversarialSingleRangeGrowth) {
  // The entire workload inside one bucket's value range: every structure
  // the calendar has collapses to a single run that must grow far past the
  // slab reserve, and serve-promote's bulk drain hits the oversized-run
  // swap path.
  const uint32_t buckets = 128;
  auto value_of = [buckets](Rng& rng) {
    const double width = 1.0 / static_cast<double>(buckets);
    return 0.5 + width * 0.95 * (static_cast<double>(rng() % 8191) / 8191.0);
  };
  for (uint64_t seed = 60; seed < 63; ++seed) {
    ReplayThreeWay(
        CalCfg(QueueDiscipline::kConditionallyPreemptive, 0.001, true, false,
               buckets),
        seed, 4000, value_of);
  }
}

TEST(CalendarEquivalenceTest, BatchRekeyAgrees) {
  // Batch rekey through the span-based entry point (the path csfc uses at
  // swap time) on the calendar backend.
  auto cal_created = Dispatcher::Create(
      CalCfg(QueueDiscipline::kConditionallyPreemptive, 0.05, true, false,
             1024));
  ASSERT_TRUE(cal_created.ok());
  Dispatcher cal = *std::move(cal_created);
  ReferenceDispatcher ref(cal.config());

  Rng rng(77);
  RequestId next_id = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 50; ++i) {
      Request r;
      r.id = next_id++;
      const CValue v = UniformGrid(rng);
      cal.Insert(v, r);
      ref.Insert(v, r);
    }
    const uint64_t salt = rng();
    auto batch = [salt](std::span<const Request* const> reqs,
                        std::span<CValue> out) {
      for (size_t k = 0; k < reqs.size(); ++k) {
        const uint64_t h = (reqs[k]->id + salt) * 2654435761ULL;
        out[k] = static_cast<double>(h % 65536) / 65536.0;
      }
    };
    cal.RekeyWaitingBatch(batch);
    ref.RekeyWaitingBatch(batch);
    for (int i = 0; i < 30; ++i) {
      const std::optional<Request> a = cal.Pop();
      const std::optional<Request> b = ref.Pop();
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a.has_value()) {
        ASSERT_EQ(a->id, b->id);
      }
    }
  }
}

}  // namespace
}  // namespace csfc
