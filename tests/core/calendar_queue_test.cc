// Calendar-queue correctness, on BucketedSlotHeap directly: run ordering,
// FIFO ties (including across the 32-bit sequence wrap), bulk promotion
// and its per-entry callback order, bucket growth, rekey migration, and
// the reslice to the finest geometry. These heaps never refine on their
// own (the Dispatcher decides when), so the long-run paths — runs past
// kScanInsertMax, GrowBucket, the drain's boundary search over a long
// run — are pinned here at fixed geometries. The Dispatcher built on it is
// replayed against the std::map reference in
// dispatcher_equivalence_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.h"
#include "core/calendar_queue.h"

namespace csfc {
namespace {

using Entry = BucketedSlotHeap::Entry;

bool Less(const Entry& a, const Entry& b) {
  return BucketedSlotHeap::Less(a, b);
}

void Ignore(const Entry&) {}

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

  std::vector<uint32_t> callback_order;
  const size_t moved = src.DrainBelowInto(threshold, dst, [&](const Entry& e) {
    callback_order.push_back(e.slot);
  });
  std::vector<Entry> below, above;
  for (const Entry& e : all) (e.v < threshold ? below : above).push_back(e);
  ASSERT_EQ(moved, below.size());
  // The callback sees every moved entry once, in ascending (v, seq) order.
  ASSERT_EQ(callback_order.size(), below.size());
  for (size_t i = 0; i < below.size(); ++i) {
    EXPECT_EQ(callback_order[i], below[i].slot) << "callback " << i;
  }
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
  EXPECT_EQ(src.DrainBelowInto(boundary, dst, Ignore), 1u);
  EXPECT_EQ(dst.size(), 1u);
  EXPECT_EQ(dst.PopMin().v, boundary - 0.01);
  EXPECT_EQ(src.PopMin().v, boundary);
  EXPECT_EQ(src.PopMin().v, boundary + 0.01);
}

TEST(BucketedSlotHeapTest, DrainBelowOversizedRunSwapsStorage) {
  ExpectDrainMatchesBruteForce(1024, 7, 4000, 0.75, /*pileup=*/true);
}

TEST(BucketedSlotHeapTest, OversizedDrainLeavesNoRecordInTheOtherQueue) {
  // The whole-run move of a run longer than the destination's reserve
  // exchanges bucket records. The source's emptied record must not keep
  // pointing into the destination's slab: once the destination is gone,
  // a push into that bucket would write into freed memory (ASan reports
  // it as a heap-use-after-free).
  BucketedSlotHeap src;
  src.Configure(2);
  {
    BucketedSlotHeap dst;
    dst.Configure(2);
    for (uint32_t i = 0; i < 40; ++i) {
      src.Push(QueueKey{0.01 * static_cast<double>(i), i}, i);
    }
    EXPECT_EQ(src.DrainBelowInto(0.75, dst, Ignore), 40u);
    EXPECT_TRUE(src.empty());
    EXPECT_EQ(dst.size(), 40u);
  }
  for (uint32_t i = 0; i < 20; ++i) {
    src.Push(QueueKey{0.4 - 0.01 * static_cast<double>(i), 100 + i}, i);
  }
  for (uint32_t i = 20; i-- > 0;) {
    ASSERT_FALSE(src.empty());
    EXPECT_EQ(src.PopMin().slot, i);
  }
  EXPECT_TRUE(src.empty());
}

// Everything observable is what the unrefined copy shows: size, minimum,
// traversal order (so AssignKeys gives both the same keys), and the pop
// sequence, including pushes after the reslice below and above the
// cursor, exact-v ties and sequence numbers across the 2^32 wrap.
void ExpectRefineIsInvisible(uint32_t buckets, uint64_t seed) {
  SCOPED_TRACE(testing::Message() << buckets << " starting buckets");
  const uint64_t first_seq = (uint64_t{1} << 32) - 1500;
  BucketedSlotHeap q;
  q.Configure(buckets);
  Rng rng(seed);
  uint32_t slot = 0;
  // 512 distinct values for 3000 entries: every value repeats, and the
  // sequence numbers straddle the wrap.
  const auto draw = [&rng] {
    return static_cast<double>(rng() % 512) / 512.0;
  };
  for (; slot < 3000; ++slot) q.Push(QueueKey{draw(), first_seq + slot}, slot);
  // Move the cursor mid-sweep, as a refining dispatcher's queues are.
  for (int i = 0; i < 700; ++i) q.PopMin();

  BucketedSlotHeap coarse = q;
  q.Refine();
  EXPECT_EQ(q.num_buckets(), BucketedSlotHeap::kMaxBuckets);
  EXPECT_EQ(coarse.num_buckets(), buckets);
  ASSERT_EQ(q.size(), coarse.size());
  EXPECT_EQ(q.MinValue(), coarse.MinValue());
  EXPECT_EQ(q.MinSlot(), coarse.MinSlot());
  std::vector<uint32_t> fine_order, coarse_order;
  q.ForEachEntrySlot([&](uint32_t s) { fine_order.push_back(s); });
  coarse.ForEachEntrySlot([&](uint32_t s) { coarse_order.push_back(s); });
  EXPECT_EQ(fine_order, coarse_order);

  const auto push_both = [&](CValue v) {
    q.Push(QueueKey{v, first_seq + slot}, slot);
    coarse.Push(QueueKey{v, first_seq + slot}, slot);
    ++slot;
  };
  const auto pop_both = [&] {
    ASSERT_EQ(q.empty(), coarse.empty());
    if (q.empty()) return;
    EXPECT_EQ(q.MinValue(), coarse.MinValue());
    const Entry a = q.PopMin();
    const Entry b = coarse.PopMin();
    ASSERT_EQ(a.slot, b.slot);
    ASSERT_EQ(a.v, b.v);
    ASSERT_EQ(a.seq, b.seq);
  };
  push_both(0.0);  // below the cursor
  push_both(q.MinValue());  // ties the minimum
  for (int i = 0; i < 400; ++i) {
    push_both(draw());
    pop_both();
  }
  // A rekey after the reslice consumes its keys in the same order.
  std::vector<CValue> keys(q.size());
  for (CValue& k : keys) k = draw();
  q.AssignKeys(keys);
  coarse.AssignKeys(keys);
  while (!q.empty() || !coarse.empty()) pop_both();
}

TEST(BucketedSlotHeapTest, RefineKeepsOrderMinimumSizeAndTraversal) {
  // 1024 slices the grid evenly; 3 and 1000 do not, so the last starting
  // bucket is short; kMaxBuckets is already the finest (a no-op).
  for (const uint32_t buckets :
       {1u, 3u, 16u, 1000u, 1024u, BucketedSlotHeap::kMaxBuckets}) {
    ExpectRefineIsInvisible(buckets, buckets);
  }
}

TEST(BucketedSlotHeapTest, RefineEmptyQueue) {
  BucketedSlotHeap q;
  q.Configure(64);
  q.Refine();
  EXPECT_EQ(q.num_buckets(), BucketedSlotHeap::kMaxBuckets);
  EXPECT_TRUE(q.empty());
  q.Push(QueueKey{0.5, 1}, 7);
  EXPECT_EQ(q.MinSlot(), 7u);
  EXPECT_EQ(q.PopMin().v, 0.5);
  EXPECT_TRUE(q.empty());
}

TEST(BucketedSlotHeapTest, SequenceWrapKeepsFifo) {
  // Entries keep 32-bit sequence numbers compared wrap-aware. Equal-v
  // pushes whose full sequence numbers run from 2^32 - 2 to 2^32 + 1 (the
  // last two truncate to 0 and 1) must still pop in push order: seated in
  // one bucket's run, and after a bulk drain by both of its paths — the
  // whole-run move (threshold in a higher bucket) and the boundary-range
  // binary search (threshold in the same bucket).
  const uint64_t first = (uint64_t{1} << 32) - 2;
  const auto push_wrapping = [first](BucketedSlotHeap& q, CValue v) {
    for (uint32_t i = 0; i < 4; ++i) q.Push(QueueKey{v, first + i}, i);
  };
  const auto expect_push_order = [](BucketedSlotHeap& q) {
    for (uint32_t i = 0; i < 4; ++i) {
      ASSERT_FALSE(q.empty());
      EXPECT_EQ(q.PopMin().slot, i);
    }
    EXPECT_TRUE(q.empty());
  };
  {
    BucketedSlotHeap q;
    q.Configure(16);
    push_wrapping(q, 0.5);
    expect_push_order(q);
  }
  for (const CValue threshold : {0.75, std::nextafter(0.5, 1.0)}) {
    BucketedSlotHeap src, dst;
    src.Configure(16);
    dst.Configure(16);
    push_wrapping(src, 0.5);
    std::vector<uint32_t> callback_order;
    EXPECT_EQ(src.DrainBelowInto(threshold, dst,
                                 [&](const Entry& e) {
                                   callback_order.push_back(e.slot);
                                 }),
              4u);
    EXPECT_EQ(callback_order, (std::vector<uint32_t>{0, 1, 2, 3}));
    EXPECT_TRUE(src.empty());
    expect_push_order(dst);
  }
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

}  // namespace
}  // namespace csfc
