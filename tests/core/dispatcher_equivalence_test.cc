// Equivalence of the calendar-queue Dispatcher and the std::map
// ReferenceDispatcher (tests/core/reference_dispatcher.h): operation
// traces (insert / pop / rekey / drain a copy) replayed against both must
// agree on every observable — popped request identity, sizes, swap
// prediction, window, counters and the service order of whatever is still
// queued. With a tracer attached, the dispatcher's preempt / promote /
// swap / reset events must also match its counters, and each Pop's SP
// promotions must arrive in service order.
//
// One replay harness serves every suite here: the original equivalence
// cases, the calendar edge cases (bucket boundaries, sweep flips, sparse
// and single-range keys), and the differential fuzzer over adversarial key
// sources x disciplines x SP/ER x bucket counts x tracing, plus one replay
// of the op pattern CascadedSfcScheduler issues (Encapsulator keys and
// batch rekeys under a moving head). Replays that start on a coarse
// geometry and grow past kScanInsertMax entries per bucket cross the
// dispatcher's refinement to kMaxBuckets mid-trace.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/dispatcher.h"
#include "core/encapsulator.h"
#include "core/presets.h"
#include "obs/tracer.h"
#include "reference_dispatcher.h"
#include "workload/generator.h"
#include "workload/trace.h"

namespace csfc {
namespace {

// ---------------------------------------------------------------------------
// Key sources. Each draws one v_c from an Rng. Rekeys draw from a
// per-request Rng seeded from the request id and a per-rekey salt, so a
// pure source hands the dispatcher and the reference the same new key for
// every request.
// ---------------------------------------------------------------------------

CValue UniformGrid(Rng& rng) {
  // 16-bit grid keeps exact-tie FIFO ordering exercised.
  return static_cast<double>(rng() % 65536) / 65536.0;
}

// Three values one fuzz window apart (see kFuzzWindow): ties among
// arrivals, and with the promotion threshold v_cur - w.
CValue ExactTies(Rng& rng) {
  static constexpr double kValues[] = {0.25, 0.3125, 0.375};
  return kValues[rng() % 3];
}

// Both ends of the unit interval and the last value below 1.
CValue UnitExtremes(Rng& rng) {
  switch (rng() % 4) {
    case 0:
      return 0.0;
    case 1:
      return 1.0;
    case 2:
      return std::nextafter(1.0, 0.0);
    default:
      return std::nextafter(0.0, 1.0);
  }
}

// One value almost always: a single bucket's run grows past its reserve
// and every promotion partitions a run of exact ties.
CValue SingleValueFlood(Rng& rng) {
  return rng() % 16 != 0 ? 0.5 : UniformGrid(rng);
}

// k / buckets exactly, or one ulp to either side: rekeys and promotions
// constantly cross bucket edges.
CValue BucketEdge(Rng& rng, uint32_t buckets) {
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
}

// Edges of the default geometry, which are also edges at kMaxBuckets.
CValue DefaultBucketEdges(Rng& rng) {
  return BucketEdge(rng, kDefaultCalendarBuckets);
}

// 64 values 2^-24 apart inside one 2^-16 grid cell: after the refinement
// they still share one bucket, so its run grows long (the binary-search
// insert, GrowBucket) and every promotion threshold lands inside it (the
// drain's boundary search). Pair it with kOneCellWindow.
CValue OneGridCell(Rng& rng) {
  return 0.5 + static_cast<double>(rng() % 64) * 0x1p-24;
}
constexpr double kOneCellWindow = 0x1p-22;

CValue AdversarialMix(Rng& rng) {
  switch (rng() % 5) {
    case 0:
      return ExactTies(rng);
    case 1:
      return UnitExtremes(rng);
    case 2:
      return SingleValueFlood(rng);
    case 3:
      return DefaultBucketEdges(rng);
    default:
      return UniformGrid(rng);
  }
}

// ---------------------------------------------------------------------------
// The replay harness.
// ---------------------------------------------------------------------------

// Tallies the dispatcher's own trace events and the SP promotions of the
// current Pop.
class DispatcherEvents : public obs::EventSink {
 public:
  void OnEvent(const obs::TraceEvent& e) override {
    switch (e.kind) {
      case obs::TraceEventKind::kPreempt:
        ++preempts;
        break;
      case obs::TraceEventKind::kPromote:
        ++promotes;
        pop_promotions.push_back(e);
        break;
      case obs::TraceEventKind::kQueueSwap:
        ++swaps;
        break;
      case obs::TraceEventKind::kWindowReset:
        ++resets;
        break;
      default:
        break;
    }
  }

  uint64_t preempts = 0;
  uint64_t promotes = 0;
  uint64_t swaps = 0;
  uint64_t resets = 0;
  std::vector<obs::TraceEvent> pop_promotions;
};

// Within one Pop, promotions leave q' in service order: ascending v_c,
// ties FIFO. Every caller numbers requests in insertion order, so ties
// must show ascending ids.
void ExpectPromotionsInServiceOrder(const std::vector<obs::TraceEvent>& p) {
  for (size_t i = 1; i < p.size(); ++i) {
    ASSERT_TRUE(p[i - 1].vc < p[i].vc ||
                (p[i - 1].vc == p[i].vc && p[i - 1].id < p[i].id))
        << "promotion " << i << " of " << p.size() << " out of order";
  }
}

void ExpectObservablesMatch(const Dispatcher& d, const ReferenceDispatcher& ref,
                            const DispatcherEvents* events) {
  ASSERT_EQ(d.size(), ref.size());
  ASSERT_EQ(d.empty(), ref.empty());
  ASSERT_EQ(d.NeedsSwapForPop(), ref.NeedsSwapForPop());
  ASSERT_EQ(d.current_window(), ref.current_window());
  ASSERT_EQ(d.preemptions(), ref.preemptions());
  ASSERT_EQ(d.promotions(), ref.promotions());
  ASSERT_EQ(d.swaps(), ref.swaps());
  if (events != nullptr) {
    ASSERT_EQ(events->preempts, d.preemptions());
    ASSERT_EQ(events->promotes, d.promotions());
    ASSERT_EQ(events->swaps, d.swaps());
    ASSERT_EQ(events->resets, d.config().expand_reset ? d.swaps() : 0u);
  }
}

void PopBoth(Dispatcher& d, ReferenceDispatcher& ref,
             DispatcherEvents& events) {
  events.pop_promotions.clear();
  const std::optional<Request> a = d.Pop();
  const std::optional<Request> b = ref.Pop();
  ASSERT_EQ(a.has_value(), b.has_value());
  if (a.has_value()) {
    ASSERT_EQ(a->id, b->id);
  }
  ExpectPromotionsInServiceOrder(events.pop_promotions);
}

template <typename D>
std::vector<RequestId> DrainAll(D& d) {
  std::vector<RequestId> ids;
  while (std::optional<Request> r = d.Pop()) ids.push_back(r->id);
  return ids;
}

// Service order of everything queued, read from a copy so the original
// keeps replaying. The copy's tracer is detached so its events stay out
// of the replay's tallies.
std::vector<RequestId> ServiceOrder(Dispatcher d) {
  d.set_tracer(nullptr);
  return DrainAll(d);
}
std::vector<RequestId> ServiceOrder(ReferenceDispatcher ref) {
  return DrainAll(ref);
}

// Shares of a replay's ops, in percent; the rest drain a copy of both
// implementations and compare service orders.
struct OpMix {
  uint64_t insert = 55;
  uint64_t pop = 30;
  uint64_t rekey = 8;
};

// Enough inserts that a replay of a few hundred ops outgrows a starting
// geometry of a few buckets, with pops, swaps and rekeys on either side
// of the refinement.
constexpr OpMix kRefining{.insert = 62, .pop = 26, .rekey = 8};

// What a replay reached: its deepest queue and the calendar geometry it
// ended on.
struct ReplayStats {
  size_t peak_depth = 0;
  uint32_t final_buckets = 0;
};

// Replays a random op trace against both implementations. key_of draws
// each arrival's v_c; rekey_of draws each waiting request's new v_c and
// must be pure (see the key-source comment). What the trace reached is
// stored through stats when one is given.
template <typename KeyFn, typename RekeyKeyFn>
void Replay(const DispatcherConfig& cfg, uint64_t seed, int num_ops,
            KeyFn&& key_of, RekeyKeyFn&& rekey_of, bool traced = false,
            const OpMix& mix = {}, ReplayStats* stats = nullptr) {
  auto created = Dispatcher::Create(cfg);
  ASSERT_TRUE(created.ok());
  Dispatcher d = *std::move(created);
  ReferenceDispatcher ref(cfg);
  DispatcherEvents events;
  obs::Tracer tracer(&events);
  if (traced) d.set_tracer(&tracer);
  const DispatcherEvents* tally = traced ? &events : nullptr;

  Rng rng(seed);
  RequestId next_id = 0;
  size_t peak = 0;
  for (int i = 0; i < num_ops; ++i) {
    const uint64_t action = rng() % 100;
    if (action < mix.insert) {
      Request r;
      r.id = next_id++;
      const CValue v = key_of(rng);
      d.Insert(v, r);
      ref.Insert(v, r);
      peak = std::max(peak, d.size());
    } else if (action < mix.insert + mix.pop) {
      ASSERT_NO_FATAL_FAILURE(PopBoth(d, ref, events));
    } else if (action < mix.insert + mix.pop + mix.rekey) {
      const uint64_t salt = rng();
      auto batch = [salt, &rekey_of](std::span<const Request* const> reqs,
                                     std::span<CValue> out) {
        for (size_t k = 0; k < reqs.size(); ++k) {
          Rng h((reqs[k]->id + 1) * 2654435761ULL ^ salt);
          out[k] = rekey_of(h);
        }
      };
      d.RekeyWaitingBatch(batch);
      ref.RekeyWaitingBatch(batch);
    } else {
      ASSERT_EQ(ServiceOrder(d), ServiceOrder(ref));
    }
    ASSERT_NO_FATAL_FAILURE(ExpectObservablesMatch(d, ref, tally));
  }
  if (stats != nullptr) *stats = {peak, d.calendar_buckets()};

  // Drain both to the end: the complete service order must agree.
  while (!d.empty() || !ref.empty()) {
    ASSERT_NO_FATAL_FAILURE(PopBoth(d, ref, events));
    ASSERT_NO_FATAL_FAILURE(ExpectObservablesMatch(d, ref, tally));
  }
  ASSERT_NO_FATAL_FAILURE(PopBoth(d, ref, events));
}

// Pure key sources double as their own rekey distribution.
template <typename KeyFn>
void Replay(const DispatcherConfig& cfg, uint64_t seed, int num_ops,
            KeyFn&& key_of, bool traced = false) {
  Replay(cfg, seed, num_ops, key_of, key_of, traced);
}

DispatcherConfig Config(QueueDiscipline disc, double w, bool sp, bool er,
                        uint32_t buckets = 0) {
  DispatcherConfig c;
  c.discipline = disc;
  c.window = w;
  c.serve_promote = sp;
  c.expand_reset = er;
  c.calendar_buckets = buckets;
  return c;
}

// SP promotes q' entries strictly below v_cur - w. A dyadic window keeps
// that threshold exactly on the key grids above (the 16-bit grid, the
// tie values, bucket edges), so waiting keys equal to it occur and the
// strict-less-than edge is exercised; 0.05 would almost never hit it.
constexpr double kFuzzWindow = 1.0 / 16;

constexpr QueueDiscipline kDisciplines[] = {
    QueueDiscipline::kNonPreemptive, QueueDiscipline::kFullyPreemptive,
    QueueDiscipline::kConditionallyPreemptive};

// ---------------------------------------------------------------------------
// Equivalence on the uniform 16-bit key grid.
// ---------------------------------------------------------------------------

TEST(DispatcherEquivalenceTest, NonPreemptive) {
  Replay(Config(QueueDiscipline::kNonPreemptive, 0.0, false, false), 1, 4000,
         UniformGrid);
}

TEST(DispatcherEquivalenceTest, FullyPreemptive) {
  Replay(Config(QueueDiscipline::kFullyPreemptive, 0.0, false, false), 2,
         4000, UniformGrid);
}

TEST(DispatcherEquivalenceTest, ConditionalZeroWindow) {
  Replay(Config(QueueDiscipline::kConditionallyPreemptive, 0.0, true, false),
         3, 4000, UniformGrid);
}

TEST(DispatcherEquivalenceTest, ConditionalWithSp) {
  Replay(Config(QueueDiscipline::kConditionallyPreemptive, 0.05, true, false),
         4, 4000, UniformGrid);
}

TEST(DispatcherEquivalenceTest, ConditionalWithoutSp) {
  Replay(Config(QueueDiscipline::kConditionallyPreemptive, 0.05, false, false),
         5, 4000, UniformGrid);
}

TEST(DispatcherEquivalenceTest, ConditionalWithEr) {
  Replay(Config(QueueDiscipline::kConditionallyPreemptive, 0.02, true, true),
         6, 4000, UniformGrid);
}

TEST(DispatcherEquivalenceTest, WideWindowDegeneratesTogether) {
  Replay(Config(QueueDiscipline::kConditionallyPreemptive, 1.0, true, false),
         7, 4000, UniformGrid);
}

TEST(DispatcherEquivalenceTest, ManySeeds) {
  for (uint64_t seed = 10; seed < 22; ++seed) {
    Replay(Config(QueueDiscipline::kConditionallyPreemptive, 0.05, true,
                  seed % 2 == 0),
           seed, 1200, UniformGrid);
  }
}

TEST(DispatcherEquivalenceTest, CalendarBackendAllDisciplines) {
  uint64_t seed = 200;
  for (QueueDiscipline disc : kDisciplines) {
    Replay(Config(disc, 0.05, true, false, 1024), seed++, 3000, UniformGrid);
  }
}

// Bucket counts span one-bucket-degenerate through finer-than-the-key-grid.
TEST(DispatcherEquivalenceTest, CalendarBackendBucketCounts) {
  for (uint32_t buckets : {1u, 2u, 64u, 4096u, BucketedSlotHeap::kMaxBuckets}) {
    Replay(Config(QueueDiscipline::kConditionallyPreemptive, 0.05, true, true,
                  buckets),
           300 + buckets, 1500, UniformGrid);
  }
}

// Zero-copy flow: requests inserted as rvalues (moved into the slot pool)
// and popped (moved out) must round-trip every payload field intact and
// still agree with the copying ReferenceDispatcher on service order. Every
// request fills all 12 priority slots, so the payload's tail bytes are
// checked too.
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
      for (uint32_t k = 0; k < kMaxPriorityDims; ++k) {
        r.priorities.push_back(static_cast<PriorityLevel>((r.id + k) % 8));
      }
      const CValue v = UniformGrid(rng);
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

// The other replays peak near 10^3 entries, inside the first slot-pool
// chunk (4,096 requests). This one is insert-heavy, so the pool grows
// past two chunks while pops free slots in each of them for the LIFO free
// list to hand back, and every rekey, promotion and copy-drain runs over
// payloads spread across chunks.
TEST(DispatcherEquivalenceTest, InsertHeavyReplaySpansSlotPoolChunks) {
  constexpr OpMix kInsertHeavy{.insert = 90, .pop = 8, .rekey = 1};
  ReplayStats stats;
  ASSERT_NO_FATAL_FAILURE(
      Replay(Config(QueueDiscipline::kConditionallyPreemptive, 0.05, true,
                    true),
             7, 12000, UniformGrid, UniformGrid, false, kInsertHeavy, &stats));
  EXPECT_GT(stats.peak_depth, 2u * 4096u);
}

// SP's whole-run move hands a run longer than the destination's 16-entry
// reserve over by exchanging bucket records; the emptied record must then
// point into its own queue's slab. The refinement that follows frees both
// slabs, so a record left pointing into the other queue's would be read
// or written after the free (ASan). Then queue swaps and batch rekeys run
// on the refined queues.
TEST(DispatcherEquivalenceTest, OversizedPromotionThenRefinement) {
  const DispatcherConfig cfg =
      Config(QueueDiscipline::kConditionallyPreemptive, kFuzzWindow, true,
             false, 2);
  for (bool traced : {false, true}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    auto created = Dispatcher::Create(cfg);
    ASSERT_TRUE(created.ok());
    Dispatcher d = *std::move(created);
    ReferenceDispatcher ref(cfg);
    DispatcherEvents events;
    obs::Tracer tracer(&events);
    if (traced) d.set_tracer(&tracer);
    const DispatcherEvents* tally = traced ? &events : nullptr;
    RequestId next_id = 0;
    const auto insert = [&](CValue v) {
      Request r;
      r.id = next_id++;
      d.Insert(v, r);
      ref.Insert(v, r);
    };

    // Serve 0.1 while 0.9 stays in q, so arrivals from 0.1 - w up wait in
    // q' and the next pop's threshold is 0.9 - w, in the upper bucket.
    insert(0.1);
    insert(0.9);
    ASSERT_NO_FATAL_FAILURE(PopBoth(d, ref, events));
    for (int i = 0; i < 40; ++i) insert(0.05 + 0.005 * i);
    ASSERT_NO_FATAL_FAILURE(PopBoth(d, ref, events));
    EXPECT_EQ(d.promotions(), 40u);
    ASSERT_NO_FATAL_FAILURE(ExpectObservablesMatch(d, ref, tally));
    ASSERT_EQ(d.calendar_buckets(), 2u);

    // 2 buckets x kScanInsertMax = 64 entries: this crosses it.
    Rng rng(5);
    for (int i = 0; i < 200; ++i) insert(UniformGrid(rng));
    ASSERT_EQ(d.calendar_buckets(), BucketedSlotHeap::kMaxBuckets);
    ASSERT_NO_FATAL_FAILURE(ExpectObservablesMatch(d, ref, tally));
    const uint64_t swaps_at_refinement = d.swaps();

    for (int i = 0; !d.empty(); ++i) {
      if (d.NeedsSwapForPop()) {
        const uint64_t salt = rng();
        auto batch = [salt](std::span<const Request* const> reqs,
                            std::span<CValue> out) {
          for (size_t k = 0; k < reqs.size(); ++k) {
            Rng h((reqs[k]->id + 1) * 2654435761ULL ^ salt);
            out[k] = UniformGrid(h);
          }
        };
        d.RekeyWaitingBatch(batch);
        ref.RekeyWaitingBatch(batch);
      }
      ASSERT_NO_FATAL_FAILURE(PopBoth(d, ref, events));
      if (i < 600 && i % 3 == 0) insert(UniformGrid(rng));
      ASSERT_NO_FATAL_FAILURE(ExpectObservablesMatch(d, ref, tally));
    }
    EXPECT_GT(d.swaps(), swaps_at_refinement);
  }
}

// ---------------------------------------------------------------------------
// Calendar edge cases: key distributions aimed at the queue's structure —
// bucket boundaries, cursor resets when migration moves work behind the
// sweep, long empty-bucket stretches that exercise the two-level occupancy
// bitmap, and single-range pileups that force GrowBucket past the slab
// reserve and push DrainBelowInto onto its storage-swap path.
// ---------------------------------------------------------------------------

TEST(CalendarEquivalenceTest, AllDisciplines) {
  uint64_t seed = 100;
  for (QueueDiscipline disc : kDisciplines) {
    for (bool sp : {false, true}) {
      Replay(Config(disc, 0.05, sp, false, 256), seed++, 2500, UniformGrid);
    }
  }
}

TEST(CalendarEquivalenceTest, ConditionalWithExpandReset) {
  Replay(Config(QueueDiscipline::kConditionallyPreemptive, 0.02, true, true,
                1024),
         7, 4000, UniformGrid);
}

TEST(CalendarEquivalenceTest, BucketBoundaryKeys) {
  const uint32_t buckets = 64;
  auto value_of = [buckets](Rng& rng) { return BucketEdge(rng, buckets); };
  for (uint64_t seed = 30; seed < 34; ++seed) {
    Replay(Config(QueueDiscipline::kConditionallyPreemptive, 0.05, true, false,
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
    Replay(Config(QueueDiscipline::kConditionallyPreemptive, 0.1, true, false,
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
  Replay(Config(QueueDiscipline::kConditionallyPreemptive, 0.05, true, false,
                BucketedSlotHeap::kMaxBuckets),
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
    Replay(Config(QueueDiscipline::kConditionallyPreemptive, 0.001, true,
                  false, buckets),
           seed, 4000, value_of);
  }
}

TEST(CalendarEquivalenceTest, BatchRekeyAgrees) {
  // Batch rekey through the span-based entry point (the path csfc uses at
  // swap time), with whole rounds of arrivals between rekeys.
  auto created = Dispatcher::Create(
      Config(QueueDiscipline::kConditionallyPreemptive, 0.05, true, false,
             1024));
  ASSERT_TRUE(created.ok());
  Dispatcher d = *std::move(created);
  ReferenceDispatcher ref(d.config());

  Rng rng(77);
  RequestId next_id = 0;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 50; ++i) {
      Request r;
      r.id = next_id++;
      const CValue v = UniformGrid(rng);
      d.Insert(v, r);
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
    d.RekeyWaitingBatch(batch);
    ref.RekeyWaitingBatch(batch);
    for (int i = 0; i < 30; ++i) {
      const std::optional<Request> a = d.Pop();
      const std::optional<Request> b = ref.Pop();
      ASSERT_EQ(a.has_value(), b.has_value());
      if (a.has_value()) {
        ASSERT_EQ(a->id, b->id);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Differential fuzzer.
// ---------------------------------------------------------------------------

// Every discipline x SP x ER, traced and untraced, on one key source
// (the adversarial mix by default) from one starting calendar geometry.
// With refining set, every replay must cross the refinement mid-trace.
void FuzzEveryConfiguration(uint32_t buckets, int num_ops, uint64_t seed,
                            CValue (*key_of)(Rng&) = AdversarialMix,
                            double window = kFuzzWindow,
                            bool refining = false) {
  for (QueueDiscipline disc : kDisciplines) {
    for (bool sp : {false, true}) {
      for (bool er : {false, true}) {
        for (bool traced : {false, true}) {
          SCOPED_TRACE(testing::Message()
                       << "discipline " << static_cast<int>(disc) << " sp "
                       << sp << " er " << er << " traced " << traced);
          ReplayStats stats;
          ASSERT_NO_FATAL_FAILURE(Replay(
              Config(disc, window, sp, er, buckets), seed++, num_ops, key_of,
              key_of, traced, refining ? kRefining : OpMix{}, &stats));
          if (refining) {
            EXPECT_GT(stats.peak_depth,
                      2 * buckets * BucketedSlotHeap::kScanInsertMax);
            EXPECT_EQ(stats.final_buckets, BucketedSlotHeap::kMaxBuckets);
          }
        }
      }
    }
  }
}

// One starting bucket refines after 32 entries, early in every trace.
TEST(DispatcherFuzzTest, AdversarialKeysOneBucket) {
  FuzzEveryConfiguration(1, 600, 1000);
}

// Four starting buckets refine after 128 entries, so swaps, rekeys and
// SP promotions (oversized runs among them) run on both geometries.
TEST(DispatcherFuzzTest, AdversarialKeysCrossTheRefinement) {
  FuzzEveryConfiguration(4, 1000, 1300, AdversarialMix, kFuzzWindow,
                         /*refining=*/true);
}

// Keys packed into one grid cell keep a single long run after the
// refinement: the paths a coarse geometry exercised with AdversarialKeys
// in one bucket.
TEST(DispatcherFuzzTest, OneGridCellAcrossTheRefinement) {
  FuzzEveryConfiguration(1, 600, 1400, OneGridCell, kOneCellWindow,
                         /*refining=*/true);
}

TEST(DispatcherFuzzTest, AdversarialKeysDerivedBuckets) {
  FuzzEveryConfiguration(0, 600, 1100);
}

// Each mid-trace drain check copies both calendars (~16 MB each at this
// geometry), so these traces are shorter.
TEST(DispatcherFuzzTest, AdversarialKeysMaxBuckets) {
  FuzzEveryConfiguration(BucketedSlotHeap::kMaxBuckets, 150, 1200);
}

// Each adversarial key kind on its own, where it dominates the queue.
TEST(DispatcherFuzzTest, EachKeySource) {
  struct Source {
    const char* name;
    CValue (*draw)(Rng&);
  };
  const Source kSources[] = {{"exact-ties", ExactTies},
                             {"unit-extremes", UnitExtremes},
                             {"single-value-flood", SingleValueFlood},
                             {"bucket-edges", DefaultBucketEdges}};
  uint64_t seed = 2000;
  for (const Source& source : kSources) {
    for (QueueDiscipline disc : kDisciplines) {
      for (bool traced : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << source.name << " discipline "
                     << static_cast<int>(disc) << " traced " << traced);
        Replay(Config(disc, kFuzzWindow, true, seed % 2 == 0), seed, 1500,
               source.draw, traced);
        ++seed;
      }
    }
  }
}

// The op pattern CascadedSfcScheduler issues: arrivals keyed by a real
// Encapsulator against the current head, and at every batch formation a
// RekeyWaitingBatch through CharacterizeBatch, while the head follows each
// dispatched request. Overloaded (2 ms arrivals, 6 ms service) so the
// queues run deep and SP promotions are frequent.
TEST(DispatcherFuzzTest, EncapsulatorKeysWithMovingHead) {
  const CascadedConfig cc =
      PresetFull("hilbert", 3, 4, 1.0, 3, 3832, 0.05, 700.0);
  auto enc = Encapsulator::Create(cc.encapsulator);
  ASSERT_TRUE(enc.ok());
  WorkloadConfig wc;
  wc.seed = 17;
  wc.count = 3000;
  wc.mean_interarrival_ms = 2.0;
  auto gen = SyntheticGenerator::Create(wc);
  ASSERT_TRUE(gen.ok());
  const std::vector<Request> trace = DrainGenerator(**gen);

  for (bool traced : {false, true}) {
    SCOPED_TRACE(traced ? "traced" : "untraced");
    auto created = Dispatcher::Create(cc.dispatcher);
    ASSERT_TRUE(created.ok());
    Dispatcher d = *std::move(created);
    ReferenceDispatcher ref(cc.dispatcher);
    DispatcherEvents events;
    obs::Tracer tracer(&events);
    if (traced) d.set_tracer(&tracer);
    const DispatcherEvents* tally = traced ? &events : nullptr;

    DispatchContext ctx;
    size_t next = 0;
    while (next < trace.size() || !d.empty()) {
      if (d.empty() && trace[next].arrival > ctx.now) {
        ctx.now = trace[next].arrival;
      }
      while (next < trace.size() && trace[next].arrival <= ctx.now) {
        const Request& r = trace[next++];
        const CValue v = (*enc)->Characterize(r, ctx);
        d.Insert(v, r);
        ref.Insert(v, r);
      }
      if (d.NeedsSwapForPop()) {
        auto batch = [&](std::span<const Request* const> reqs,
                         std::span<CValue> out) {
          (*enc)->CharacterizeBatch(reqs, ctx, out);
        };
        d.RekeyWaitingBatch(batch);
        ref.RekeyWaitingBatch(batch);
      }
      events.pop_promotions.clear();
      const std::optional<Request> a = d.Pop();
      const std::optional<Request> b = ref.Pop();
      ASSERT_TRUE(a.has_value());
      ASSERT_TRUE(b.has_value());
      ASSERT_EQ(a->id, b->id);
      ASSERT_NO_FATAL_FAILURE(
          ExpectPromotionsInServiceOrder(events.pop_promotions));
      ASSERT_NO_FATAL_FAILURE(ExpectObservablesMatch(d, ref, tally));
      ctx.head = a->cylinder;
      ctx.now += MsToSim(6.0);
    }
    EXPECT_GT(d.promotions(), 0u);
    EXPECT_GT(d.preemptions(), 0u);
  }
}

}  // namespace
}  // namespace csfc
