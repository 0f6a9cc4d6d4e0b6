// The dispatcher's priority queue: a calendar queue over v_c.
//
// The dispatcher's q / q' queues need five operations: insert, pop-min,
// peek-min, bulk promotion (SP) and bulk rekey (batch
// re-characterization). Entries are (v_c, seq, slot) nodes; requests
// themselves live in a slot pool owned by the dispatcher, so queue
// operations move 16-byte POD entries over hot cache lines — never the
// 96-byte Request payloads — and moving an entry between queues (SP
// promotion, queue swap) never touches the payload at all.
//
// Ordering is that of the std::map formulation the dispatcher started
// from (kept as the test oracle in tests/core/reference_dispatcher.h):
// lower v_c first, exact v_c ties broken FIFO by the insertion sequence
// number.
//
// Callback-taking operations (DrainBelowInto, ForEachEntrySlot) are
// templates over the callable type: the callable is invoked once per
// entry, so routing it through std::function would put an indirect call
// (and a potential allocation at the call site) inside the tightest
// dispatcher loops.

#ifndef CSFC_CORE_CALENDAR_QUEUE_H_
#define CSFC_CORE_CALENDAR_QUEUE_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "core/cvalue.h"

namespace csfc {

/// Queue ordering key: characterization value with FIFO tie-break.
struct QueueKey {
  CValue v = 0.0;
  uint64_t seq = 0;
};

/// Two-level calendar queue over v_c sweep ranges.
///
/// A monolithic heap stops beating std::map past depth ~1000: every sift
/// walks log-depth levels of a pool-sized array the prefetcher cannot
/// follow. This queue instead slices the characterization space [0, 1)
/// into `num_buckets` equal v_c ranges — the same structure SFC3's
/// R-partitioned C-SCAN already imposes on v_c, where each partition is
/// one cylinder sweep — and keeps one short descending sorted run per
/// range. Under SCAN-like tours occupancy per range stays near uniform
/// (Bachmat's space-time analysis), so the common case is O(1): Push
/// lands in one hot bucket found with an exact multiply-shift (the
/// magic-divide trick from the batch characterization kernel) and seats
/// via a branchless binary search over a handful of entries, PopMin
/// truncates the tail of the bucket under a cursor that follows the
/// sweep direction — zero compares — and a two-level occupancy bitmap
/// skips empty ranges in a couple of ctz instructions. (Small per-bucket
/// heaps were the first cut; the sorted runs replaced them because the
/// pop-side min-of-children scan dominated the compare budget, while a
/// run's insert memmove stays inside one or two L1 lines.)
///
/// The layout is struct-of-arrays: an 8-byte {len, cap} record per bucket
/// and a bare data pointer per bucket live in two dense arrays (a few KB
/// at the default geometry — L1-resident), while the entry arrays they
/// describe are reserved per bucket at Configure. A queue op therefore
/// touches L1 metadata plus exactly one entry line in the common case,
/// instead of chasing a 24-byte std::vector header per bucket.
///
/// Ordering is bit-identical to the std::map reference: the bucket index
/// is a monotone non-decreasing function of v (equal v maps to equal
/// buckets), so the global (v, seq) minimum is always the run tail of the
/// lowest non-empty bucket, and exact-v FIFO ties resolve inside one
/// bucket's run.
///
/// AssignKeys exploits the same structure: re-characterization against a
/// new head position moves a request's v_c by little in calendar terms,
/// so most entries stay in their bucket — an intra-bucket key rewrite
/// plus one short re-sort — and the few that cross a range boundary go
/// through a migration scratch list, preserving assignment order.
///
/// Each bucket's run starts in a reserve of one slab per queue, allocated
/// at Configure (cold) but not written, so only the pages of buckets a
/// run fills are ever faulted in; steady-state ops allocate nothing. A
/// bucket that outgrows its reserve moves to its own array (marked
/// csfc:alloc-ok). A queue's records only ever point into its own slab
/// and arrays, never a sibling's, so either queue's memory can be freed
/// or replaced without the other noticing.
///
/// The Configure geometry is a starting point. Refine reslices a queue to
/// one bucket per grid cell in one O(n) pass, once its owner sees the
/// backlog outgrow it (the Dispatcher does at kScanInsertMax entries per
/// bucket); nothing coarsens it again. Traversal order (ForEachEntrySlot,
/// the order AssignKeys consumes values in)
/// stays that of the starting geometry: its buckets ascending, entries
/// descending in (v, seq) within each. So batch rekey callers, and the
/// trace events they emit in that order, see the same sequence at every
/// geometry.
class BucketedSlotHeap {
 public:
  /// Internal node: 16 bytes, four per 64-byte line, so a typical run
  /// insert moves entries within a line or two and the queue's entry
  /// working set is half what (QueueKey, slot) would occupy — the entry
  /// lines are what misses at depth >= 10^4.
  ///
  /// The sequence number is truncated to 32 bits and compared with
  /// wrap-aware (serial-number) arithmetic: the FIFO tie-break is exact
  /// as long as entries coexisting in the queue were issued within 2^31
  /// inserts of each other, which bounds every realistic workload by
  /// orders of magnitude (calendar_queue_test pins FIFO order across the
  /// 2^32 wrap; the equivalence suites cross-check against the
  /// full-width reference).
  ///
  /// No default member initializers: entry arrays are allocated for
  /// overwrite, and nothing reads an entry outside a bucket's [0, len).
  struct alignas(16) Entry {
    CValue v;
    uint32_t seq;
    uint32_t slot;
  };

  /// (v, seq) order with the wrap-aware FIFO tie-break. Bitwise, not
  /// short-circuit: random v makes the first compare unpredictable, and
  /// the sift loops want a flag the compiler can turn into a select
  /// instead of a mispredicting branch pair.
  static bool Less(const Entry& a, const Entry& b) {
    return (a.v < b.v) |
           ((a.v == b.v) & (static_cast<int32_t>(a.seq - b.seq) < 0));
  }

  /// Bucket counts are capped at the index grid resolution (2^kGridBits):
  /// finer slicing cannot separate values the quantizer maps to one cell.
  static constexpr uint32_t kMaxBuckets = 1u << 16;

  /// Longest run the insert seats by scan-and-shift; beyond this, binary
  /// search + bulk memmove wins. Also the occupancy past which the
  /// Dispatcher refines its queues: deeper runs pay the search and the
  /// memmove on every insert.
  static constexpr uint32_t kScanInsertMax = 32;

  BucketedSlotHeap() = default;
  // Entry storage is uniquely owned, so copies (Dispatcher copies, which
  // tests drain to read a queue's contents) rebuild it; moves and swaps
  // stay pointer-level.
  BucketedSlotHeap(const BucketedSlotHeap& other) { CopyFrom(other); }
  BucketedSlotHeap& operator=(const BucketedSlotHeap& other) {
    if (this != &other) CopyFrom(other);
    return *this;
  }
  BucketedSlotHeap(BucketedSlotHeap&&) = default;
  BucketedSlotHeap& operator=(BucketedSlotHeap&&) = default;

  /// Builds the calendar: `num_buckets` equal v_c ranges (clamped to
  /// [1, kMaxBuckets]), each bucket's run storage reserved up front so
  /// the steady state never allocates. Cold path; call once while empty.
  void Configure(uint32_t num_buckets) {
    assert(size_ == 0);
    num_buckets_ = std::clamp<uint32_t>(num_buckets, 1, kMaxBuckets);
    per_bucket_ = (kGridCells + num_buckets_ - 1) / num_buckets_;
    magic_ = ((uint64_t{1} << 32) + per_bucket_ - 1) / per_bucket_;
#ifndef NDEBUG
    // The multiply-shift must reproduce cell / per_bucket_ exactly for
    // every grid cell (it does for divisors <= 2^16; see the batch
    // characterization kernel for the derivation).
    for (uint32_t cell = 0; cell < kGridCells; ++cell) {
      assert(((uint64_t{cell} * magic_) >> 32) == cell / per_bucket_);
    }
#endif
    // All buckets start in one contiguous slab, in bucket order: the pop
    // cursor drains buckets in exactly that order, so the drain sweep
    // walks memory sequentially and the hardware prefetcher tracks it.
    // Only buckets that outgrow the reserve move to their own array. The
    // slab is reserved, not written: a page is faulted in only when a
    // bucket on it receives its first entry.
    reserve_ = num_buckets_ == kMaxBuckets ? kFineReserve : kBucketReserve;
    slab_ = std::make_unique_for_overwrite<Entry[]>(size_t{num_buckets_} *
                                                    reserve_);
    storage_.clear();
    storage_.resize(num_buckets_);
    buckets_.assign(num_buckets_, Bucket{});
    for (uint32_t b = 0; b < num_buckets_; ++b) {
      buckets_[b].data = SlabReserve(b);
      buckets_[b].cap = reserve_;
    }
    live_.assign((num_buckets_ + 63u) / 64u, 0);
    summary_.assign((live_.size() + 63u) / 64u, 0);
    size_ = 0;
    cur_ = 0;
    order_span_ = 1;
    pf_v_ = std::numeric_limits<double>::quiet_NaN();
    pf_b_ = 0;
  }

  /// Reslices the calendar to one bucket per grid cell (kMaxBuckets; a
  /// no-op if it is there already) and frees the old slab and arrays. One
  /// O(n) pass with no compares: a fine bucket's entries all come from
  /// one coarse run, where they already sit in descending (v, seq) order,
  /// so copying each run head to tail onto the ends of the fine runs
  /// leaves every fine run descending, exact-v FIFO ties included. Pop
  /// order, the minimum, size and traversal order are unchanged. Cold:
  /// the Dispatcher calls it at most once per queue.
  void Refine() {
    if (num_buckets_ == kMaxBuckets) return;
    BucketedSlotHeap fine;
    fine.Configure(kMaxBuckets);  // csfc:alloc-ok(one-time reslice to the finest geometry)
    for (uint32_t b = FindNonEmptyFrom(0); b != kNoBucket;
         b = FindNonEmptyFrom(b + 1)) {
      const Bucket& m = buckets_[b];
      for (uint32_t i = 0; i < m.len; ++i) {
        const uint32_t nb = fine.BucketOf(m.data[i].v);
        if (fine.buckets_[nb].len == fine.buckets_[nb].cap) {
          fine.GrowBucket(nb);
        }
        Bucket& f = fine.buckets_[nb];
        if (f.len == 0) fine.MarkLive(nb);
        f.data[f.len++] = m.data[i];
      }
    }
    if (size_ != 0) {
      fine.min_ = min_;
      fine.size_ = size_;
      fine.cur_ = fine.BucketOf(min_.v);
    }
    // Each starting bucket spanned per_bucket_ grid cells, now as many
    // fine buckets.
    fine.order_span_ = per_bucket_;
    // Also drops the PrefetchFor hint: it maps v to a coarse bucket.
    *this = std::move(fine);
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  /// Current bucket count: the Configure geometry, or kMaxBuckets once
  /// refined.
  uint32_t num_buckets() const { return num_buckets_; }

  /// v_c of the smallest (v, seq) entry; queue must be non-empty. Served
  /// from a header-resident cache: the dispatcher's SP scan reads both
  /// queues' minima on every pop, and the waiting queue's bucket lines
  /// are usually cold between swaps.
  CValue MinValue() const { return min_.v; }

  /// Payload slot of the smallest (v, seq) entry; queue must be non-empty.
  uint32_t MinSlot() const { return min_.slot; }

  /// Starts pulling in the bucket Push(v, ...) will land in. Callers
  /// issue it a few dozen cycles before Push (the dispatcher does, under
  /// the payload copy into the slot pool): the metadata reads hit L1, and
  /// the entry line — the one likely miss — overlaps the copy.
  CSFC_HOT void PrefetchFor(CValue v) const {
    const uint32_t b = BucketOf(v);
    // No dependent loads: the reserve's slab position is pure arithmetic,
    // so the bucket record's line and the full reserve (4 lines, 1 at the
    // finest geometry) all start pulling immediately — a record load here
    // would serialize the entry prefetches behind its own possible miss.
    // Buckets grown past the reserve prefetch a stale region (harmless);
    // their Push still gets the record line early.
    __builtin_prefetch(&buckets_[b]);
    const Entry* h = SlabReserve(b);
    for (uint32_t i = 0; i < reserve_; i += 4) __builtin_prefetch(h + i, 1);
    // Remember the mapping: the Push this call fronts skips its own
    // quantize + divide (the hint is invalidated by Configure and only
    // ever used on an exact v match, so it can never be wrong).
    pf_v_ = v;
    pf_b_ = b;
  }

  CSFC_HOT void Push(QueueKey key, uint32_t slot) {
    const uint32_t b = key.v == pf_v_ ? pf_b_ : BucketOf(key.v);
    const Entry e{key.v, static_cast<uint32_t>(key.seq), slot};
    PlaceEntry(e, b);
    // A new arrival ties on v only with older entries (its seq is larger),
    // so strict key comparison is the right min-cache update.
    if (size_ == 0 || b < cur_) cur_ = b;
    if (size_ == 0 || Less(e, min_)) min_ = e;
    ++size_;
  }

  /// Removes and returns the minimum entry; queue must be non-empty. The
  /// cursor only ever advances (the sweep direction): entries below it
  /// are gone by the calendar invariant, so the next minimum is found by
  /// a forward bitmap scan from the current range, never a restart.
  CSFC_HOT Entry PopMin() {
    Bucket& m = buckets_[cur_];
    // min_ == the run tail m.data[m.len - 1] by invariant; serving from
    // the header-resident cache keeps the dependent tail load off the
    // return path. Popping a descending run is a truncation: no
    // compares, no entry movement.
    const Entry top = min_;
    --m.len;
    --size_;
    if (m.len != 0) {
      min_ = m.data[m.len - 1];
    } else {
      MarkDead(cur_);
      if (size_ != 0) {
        cur_ = FindNonEmptyFrom(cur_ + 1);
        const Bucket& c = buckets_[cur_];
        min_ = c.data[c.len - 1];
        // The bucket after this one becomes cur_ in ~occupancy pops —
        // start pulling its tail line now, while this bucket drains.
        const uint32_t nxt = FindNonEmptyFrom(cur_ + 1);
        if (nxt != kNoBucket) {
          const Bucket& nx = buckets_[nxt];
          __builtin_prefetch(nx.data + (nx.len - 1));
        }
      }
    }
    return top;
  }

  /// Moves every entry with v < threshold into `dst` (same Configure
  /// geometry), preserving (v, seq) identity; returns the count moved.
  /// This is the dispatcher's SP promotion in calendar terms: the
  /// destination (the active queue) holds nothing below its served
  /// minimum, so every source bucket strictly below the threshold's
  /// range lands in an empty destination bucket and moves as an O(1)
  /// run-record exchange — only the boundary range pays a binary search
  /// and one block copy of its promoted suffix, which appends cleanly
  /// because everything already in that destination bucket is >= the
  /// served minimum > threshold > every promoted entry.
  ///
  /// `on_moved(const Entry&)` runs once per moved entry, in ascending
  /// (v, seq) order — the order a PopMin/Push loop would move them in —
  /// by walking each moved run from its tail. The dispatcher traces SP
  /// promotions through it; a no-op callable compiles the walks away.
  template <typename OnMoved>
  CSFC_HOT size_t DrainBelowInto(CValue threshold, BucketedSlotHeap& dst,
                                 OnMoved&& on_moved) {
    assert(dst.num_buckets_ == num_buckets_);
    const uint32_t bt = BucketOf(threshold);
    size_t moved = 0;
    uint32_t first_dst = kNoBucket;
    // cur_ is the lowest non-empty bucket whenever the queue is
    // non-empty, so the walk starts there, not at the bitmap's origin.
    uint32_t b = size_ != 0 ? cur_ : kNoBucket;
    for (; b != kNoBucket && b < bt; b = FindNonEmptyFrom(b + 1)) {
      // bucket(v) < bucket(threshold) implies v < threshold (monotone
      // mapping): the whole run moves. Runs that fit the destination's
      // array are block-copied into it (a line or two); oversized runs
      // exchange records and ownership. Either way each queue keeps
      // pointing only into its own memory, which PrefetchFor's
      // arithmetic and an independent free of either queue rely on.
      Bucket& src = buckets_[b];
      Bucket& d = dst.buckets_[b];
      assert(d.len == 0);
      moved += src.len;
      if (src.len <= d.cap) {
        std::memcpy(d.data, src.data, size_t{src.len} * sizeof(Entry));
        d.len = src.len;
        src.len = 0;
      } else {
        std::swap(src, d);
        storage_[b].swap(dst.storage_[b]);
        // The emptied record came from the destination's slab reserve:
        // take this queue's own reserve at b instead, free since the run
        // it held outgrew it.
        if (storage_[b] == nullptr) {
          src = Bucket{SlabReserve(b), 0, reserve_};
        }
      }
      for (uint32_t i = d.len; i-- > 0;) on_moved(d.data[i]);
      dst.MarkLive(b);
      MarkDead(b);
      if (first_dst == kNoBucket) first_dst = b;
    }
    if (b == bt && buckets_[bt].len != 0) {
      // Boundary range: the promoted entries (v < threshold) are a
      // suffix of the descending run. k = first index with v <
      // threshold.
      Bucket& src = buckets_[bt];
      const Entry* base = src.data;
      uint32_t n = src.len;
      while (n > 1) {
        const uint32_t half = n / 2;
        base = (base[half - 1].v < threshold) ? base : base + half;
        n -= half;
      }
      const uint32_t k = static_cast<uint32_t>(base - src.data) +
                         ((base->v < threshold) ? 0u : 1u);
      const uint32_t cnt = src.len - k;
      if (cnt != 0) {
        while (dst.buckets_[bt].len + cnt > dst.buckets_[bt].cap) {
          dst.GrowBucket(bt);
        }
        Bucket& d = dst.buckets_[bt];
        std::memcpy(d.data + d.len, src.data + k,
                    size_t{cnt} * sizeof(Entry));
        for (uint32_t i = d.len + cnt; i-- > d.len;) on_moved(d.data[i]);
        if (d.len == 0) dst.MarkLive(bt);
        d.len += cnt;
        src.len = k;
        if (k == 0) MarkDead(bt);
        moved += cnt;
        if (first_dst == kNoBucket) first_dst = bt;
      }
    }
    if (moved != 0) {
      size_ -= moved;
      dst.size_ += moved;
      if (size_ != 0) {
        // Everything below the boundary range left; bucket bt itself may
        // retain a prefix.
        cur_ = FindNonEmptyFrom(bt);
        const Bucket& c = buckets_[cur_];
        min_ = c.data[c.len - 1];
      }
      // Everything moved sits below the destination's old minimum (if it
      // had one), so its new cursor is the lowest bucket that received.
      dst.cur_ = first_dst;
      const Bucket& dc = dst.buckets_[first_dst];
      dst.min_ = dc.data[dc.len - 1];
    }
    return moved;
  }

  /// Rekeys every entry: values[i] becomes the v_c of the i-th entry in
  /// ForEachEntrySlot order (sequence numbers are preserved), and
  /// calendar order is restored in a per-bucket sweep, not a global
  /// rebuild. A rekey against a new head position moves most entries
  /// within their own v_c range, so pass 1 rewrites and compacts stayers
  /// in place and re-sorts each short run — the few boundary-crossers land
  /// on a migration scratch list that pass 2 reseats. Entries are read
  /// strictly in traversal order before any write lands at or below their
  /// index, so the fused rewrite/compact pass is sound.
  CSFC_HOT void AssignKeys(std::span<const CValue> values) {
    assert(values.size() == size_);
    size_t next = 0;
    migrate_.clear();
    ForEachRun([&](uint32_t b) {
      Bucket& m = buckets_[b];
      Entry* h = m.data;
      const uint32_t n = m.len;
      uint32_t keep = 0;
      for (uint32_t i = 0; i < n; ++i) {
        Entry e = h[i];
        e.v = values[next++];
        const uint32_t nb = BucketOf(e.v);
        if (nb == b) {
          h[keep++] = e;
        } else {
          migrate_.push_back(Migrant{e, nb});  // csfc:alloc-ok(migration scratch reused across rekeys)
        }
      }
      m.len = keep;
      if (keep == 0) {
        MarkDead(b);
        return;
      }
      std::sort(h, h + keep,
                [](const Entry& a, const Entry& b2) { return Less(b2, a); });
    });
    for (const Migrant& m : migrate_) PlaceEntry(m.entry, m.bucket);
    if (size_ != 0) {
      cur_ = FindNonEmptyFrom(0);
      const Bucket& c = buckets_[cur_];
      min_ = c.data[c.len - 1];
    }
  }

  /// Visits every entry's slot in a fixed traversal order — the order
  /// AssignKeys consumes values in: the starting geometry's buckets
  /// ascending, entries descending in (v, seq) within each (ForEachRun).
  template <typename Fn>
  void ForEachEntrySlot(Fn&& fn) const {
    ForEachRun([&](uint32_t b) {
      const Bucket& m = buckets_[b];
      for (uint32_t i = 0; i < m.len; ++i) fn(m.data[i].slot);
    });
  }

  friend void swap(BucketedSlotHeap& a, BucketedSlotHeap& b) {
    a.buckets_.swap(b.buckets_);
    a.slab_.swap(b.slab_);
    a.storage_.swap(b.storage_);
    a.live_.swap(b.live_);
    a.summary_.swap(b.summary_);
    a.migrate_.swap(b.migrate_);
    std::swap(a.min_, b.min_);
    std::swap(a.size_, b.size_);
    std::swap(a.cur_, b.cur_);
    std::swap(a.num_buckets_, b.num_buckets_);
    std::swap(a.per_bucket_, b.per_bucket_);
    std::swap(a.order_span_, b.order_span_);
    std::swap(a.reserve_, b.reserve_);
    std::swap(a.magic_, b.magic_);
  }

 private:
  static constexpr uint32_t kGridBits = 16;
  static constexpr uint32_t kGridCells = 1u << kGridBits;
  /// Slab reserve per bucket, in entries: four lines while a bucket
  /// spans many grid cells, one line at kMaxBuckets. A refined queue
  /// averages under one entry per bucket when it refines; a 16-entry
  /// reserve there would fault in 16 MB of slab per queue, 4x what the
  /// backlog needs.
  static constexpr uint32_t kBucketReserve = 16;
  static constexpr uint32_t kFineReserve = 4;
  static constexpr uint32_t kNoBucket = ~uint32_t{0};

  /// One calendar range: the run pointer and its occupancy, packed in 16
  /// bytes so a queue op touches exactly one random metadata line (a
  /// split len-array / pointer-array layout pays two; the pair outgrows
  /// L1 at the default geometry). (An unordered scan-bucket mode for low
  /// occupancy was tried here and lost to ordered buckets at every
  /// depth: a min scan pays ~2 data-dependent, poorly-predicted double
  /// compares per resident entry, while ordered buckets pop with none.)
  struct Bucket {
    Entry* data = nullptr;
    uint32_t len = 0;
    uint32_t cap = 0;
  };

  struct Migrant {
    Entry entry;
    uint32_t bucket = 0;
  };

  /// Bucket index of v: quantize onto the 2^16 grid (monotone, clamped to
  /// [0, 1)), then divide by the cells-per-bucket width with the exact
  /// multiply-shift. Monotone non-decreasing in v and equal-v stable, so
  /// cross-bucket order agrees with QueueKey order.
  CSFC_HOT uint32_t BucketOf(CValue v) const {
    const uint32_t cell = QuantizeUnit(v, kGridCells);
    return static_cast<uint32_t>((uint64_t{cell} * magic_) >> 32);
  }

  /// Bucket b's reserve in this queue's slab.
  Entry* SlabReserve(uint32_t b) const {
    return slab_.get() + size_t{b} * reserve_;
  }

  void MarkLive(uint32_t b) {
    live_[b >> 6] |= uint64_t{1} << (b & 63u);
    summary_[b >> 12] |= uint64_t{1} << ((b >> 6) & 63u);
  }

  void MarkDead(uint32_t b) {
    const uint32_t w = b >> 6;
    live_[w] &= ~(uint64_t{1} << (b & 63u));
    if (live_[w] == 0) summary_[b >> 12] &= ~(uint64_t{1} << (w & 63u));
  }

  /// Lowest non-empty bucket index >= from, or kNoBucket. Masked word
  /// probe first (the common case: the next occupied range is near), then
  /// a summary-guided scan — worst case a handful of word tests even at
  /// kMaxBuckets.
  uint32_t FindNonEmptyFrom(uint32_t from) const {
    const uint32_t num_words = static_cast<uint32_t>(live_.size());
    uint32_t w = from >> 6;
    if (w >= num_words) return kNoBucket;
    const uint64_t first = live_[w] & (~uint64_t{0} << (from & 63u));
    if (first != 0) {
      return (w << 6) | static_cast<uint32_t>(__builtin_ctzll(first));
    }
    ++w;
    const uint32_t num_summary = static_cast<uint32_t>(summary_.size());
    for (uint32_t s = w >> 6; s < num_summary; ++s) {
      uint64_t mask = summary_[s];
      if (s == (w >> 6)) mask &= ~uint64_t{0} << (w & 63u);
      if (mask == 0) continue;
      const uint32_t word =
          (s << 6) | static_cast<uint32_t>(__builtin_ctzll(mask));
      return (word << 6) |
             static_cast<uint32_t>(__builtin_ctzll(live_[word]));
    }
    return kNoBucket;
  }

  /// Highest non-empty bucket in [lo, hi), or kNoBucket: the downward
  /// twin of FindNonEmptyFrom, bounded below so a short range costs a
  /// word test or two.
  uint32_t LastNonEmptyIn(uint32_t lo, uint32_t hi) const {
    while (hi > lo) {
      const uint32_t top = hi - 1;
      const uint64_t word =
          live_[top >> 6] & (~uint64_t{0} >> (63u - (top & 63u)));
      if (word != 0) {
        const uint32_t bit = 63u - static_cast<uint32_t>(__builtin_clzll(word));
        const uint32_t b = (top & ~63u) | bit;
        return b >= lo ? b : kNoBucket;
      }
      hi = top & ~63u;
    }
    return kNoBucket;
  }

  /// Calls visit(b) for every non-empty bucket in traversal order: the
  /// starting geometry's buckets ascending and, inside each (order_span_
  /// buckets once refined), from the top down, so the runs visited
  /// concatenate in descending (v, seq) order as the starting bucket's
  /// one run did. visit may empty the bucket it is handed, not others.
  template <typename Visit>
  void ForEachRun(Visit&& visit) const {
    for (uint32_t b = FindNonEmptyFrom(0); b != kNoBucket;) {
      const uint32_t lo = b - b % order_span_;
      const uint32_t hi = std::min(lo + order_span_, num_buckets_);
      for (uint32_t top = LastNonEmptyIn(lo, hi); top != kNoBucket;
           top = LastNonEmptyIn(lo, top)) {
        visit(top);
      }
      b = FindNonEmptyFrom(hi);
    }
  }

  /// Doubles one bucket's entry array. Cold: a bucket outgrows its reserve
  /// only on skewed workloads or at depths of ~kBucketReserve entries per
  /// bucket, and capacity is sticky afterwards.
  void GrowBucket(uint32_t b) {
    Bucket& m = buckets_[b];
    const uint32_t new_cap = m.cap * 2;
    auto grown = std::make_unique_for_overwrite<Entry[]>(new_cap);  // csfc:alloc-ok(cold bucket growth past the reserve; capacity is sticky)
    std::copy_n(m.data, m.len, grown.get());
    m.data = grown.get();
    storage_[b] = std::move(grown);
    m.cap = new_cap;
  }

  /// Seats an entry in bucket b (Push and rekey pass 2); the caller owns
  /// the size_/cursor/min-cache bookkeeping, this owns MarkLive. The run
  /// is kept descending. At steady-state occupancy (a few entries to a
  /// few dozen) the insert is a fused scan-and-shift from the tail —
  /// line-local, fully pipelined, one mispredict at the stop point —
  /// which beats a binary search (a serialized load+select chain) plus a
  /// small memmove (libc dispatch overhead dominates at these sizes).
  /// Long runs (deep queues pooled in few ranges) switch to exactly
  /// that: the search is O(log n) and the bulk memmove runs at full
  /// width.
  CSFC_HOT void PlaceEntry(const Entry& e, uint32_t b) {
    if (buckets_[b].len == buckets_[b].cap) GrowBucket(b);
    Bucket& m = buckets_[b];
    Entry* h = m.data;
    if (m.len == 0) MarkLive(b);
    uint32_t lo = m.len;
    if (m.len > kScanInsertMax) {
      // Partition point: keys above it are > e, below it < e (keys are
      // unique (v, seq) pairs, so never equal).
      const Entry* base = h;
      uint32_t n = m.len;
      while (n > 1) {
        const uint32_t half = n / 2;
        base = Less(base[half - 1], e) ? base : base + half;
        n -= half;
      }
      lo = static_cast<uint32_t>(base - h) + (Less(*base, e) ? 0u : 1u);
      std::memmove(h + lo + 1, h + lo, (m.len - lo) * sizeof(Entry));
    } else {
      while (lo > 0 && Less(h[lo - 1], e)) {
        h[lo] = h[lo - 1];
        --lo;
      }
    }
    h[lo] = e;
    ++m.len;
  }

  /// Deep copy behind the copy constructor and assignment (cold).
  void CopyFrom(const BucketedSlotHeap& o) {
    buckets_ = o.buckets_;
    live_ = o.live_;
    summary_ = o.summary_;
    migrate_ = o.migrate_;
    min_ = o.min_;
    size_ = o.size_;
    cur_ = o.cur_;
    num_buckets_ = o.num_buckets_;
    per_bucket_ = o.per_bucket_;
    order_span_ = o.order_span_;
    magic_ = o.magic_;
    // A hint this queue held may be for another geometry.
    pf_v_ = std::numeric_limits<double>::quiet_NaN();
    reserve_ = o.reserve_;
    slab_ = std::make_unique_for_overwrite<Entry[]>(size_t{num_buckets_} *
                                                    reserve_);
    storage_.clear();
    storage_.resize(buckets_.size());
    for (uint32_t b = 0; b < num_buckets_; ++b) {
      Bucket& m = buckets_[b];
      if (o.storage_[b] != nullptr) {
        storage_[b] = std::make_unique_for_overwrite<Entry[]>(m.cap);
        m.data = storage_[b].get();
      } else {
        m.data = SlabReserve(b);
      }
      std::copy_n(o.buckets_[b].data, m.len, m.data);
    }
  }

  /// One 16-byte Bucket record per range, in one dense array (16KB at
  /// the default starting geometry). buckets_[b].data points into this
  /// queue's slab_ (bucket-ordered reserves, sequential for the drain
  /// sweep) while storage_[b] is empty, and at storage_[b] otherwise.
  std::vector<Bucket> buckets_;
  std::unique_ptr<Entry[]> slab_;
  std::vector<std::unique_ptr<Entry[]>> storage_;
  /// Two-level occupancy bitmap: bit b of live_ set iff bucket b is
  /// non-empty; bit w of summary_ set iff live_[w] != 0.
  std::vector<uint64_t> live_;
  std::vector<uint64_t> summary_;
  /// Rekey pass-2 list of entries that crossed a range boundary.
  std::vector<Migrant> migrate_;
  /// PrefetchFor's (v -> bucket) hint for the Push it fronts; NaN until
  /// the first prefetch and after Configure, so a miss just recomputes.
  mutable CValue pf_v_ = std::numeric_limits<double>::quiet_NaN();
  mutable uint32_t pf_b_ = 0;
  /// Cached copy of the minimum entry (meaningful iff size_ > 0); always
  /// equal to the current bucket's run tail,
  /// buckets_[cur_].data[buckets_[cur_].len - 1].
  Entry min_{};
  size_t size_ = 0;
  /// Index of the lowest non-empty bucket (meaningful iff size_ > 0).
  uint32_t cur_ = 0;
  uint32_t num_buckets_ = 0;
  uint32_t per_bucket_ = 0;
  /// Buckets per starting-geometry bucket: 1 until Refine, then the
  /// starting width in grid cells (ForEachRun's grouping).
  uint32_t order_span_ = 1;
  /// Entries per bucket in slab_: kBucketReserve, or kFineReserve at
  /// kMaxBuckets.
  uint32_t reserve_ = kBucketReserve;
  uint64_t magic_ = 0;
};

static_assert(sizeof(BucketedSlotHeap::Entry) == 16,
              "calendar Entry must pack four nodes per 64-byte line");
static_assert(std::is_trivially_copyable_v<BucketedSlotHeap::Entry>,
              "BucketedSlotHeap::Entry must stay trivially copyable");

}  // namespace csfc

#endif  // CSFC_CORE_CALENDAR_QUEUE_H_
