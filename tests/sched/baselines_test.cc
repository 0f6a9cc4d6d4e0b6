// Semantics of every baseline scheduling policy on crafted scenarios.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "disk/disk_model.h"
#include "reference_fd_scan.h"
#include "sched/bucket.h"
#include "sched/dds.h"
#include "sched/edf.h"
#include "sched/fcfs.h"
#include "sched/fd_scan.h"
#include "sched/multi_queue.h"
#include "sched/scan_edf.h"
#include "sched/scan_family.h"
#include "sched/scan_rt.h"
#include "sched/ssed.h"
#include "sched/sstf.h"
#include "workload/generator.h"

namespace csfc {
namespace {

Request Req(RequestId id, Cylinder cyl, SimTime deadline = kNoDeadline,
            PriorityLevel pri = 0) {
  Request r;
  r.id = id;
  r.cylinder = cyl;
  r.deadline = deadline;
  r.priorities.push_back(pri);
  r.bytes = 64 * 1024;
  return r;
}

std::vector<RequestId> DrainIds(Scheduler& s, Cylinder head = 0,
                                SimTime now = 0) {
  std::vector<RequestId> ids;
  DispatchContext ctx{.now = now, .head = head};
  while (auto r = s.Dispatch(ctx)) {
    ids.push_back(r->id);
    ctx.head = r->cylinder;  // head follows the serviced request
  }
  return ids;
}

DiskModel* SharedDisk() {
  static DiskModel model = *DiskModel::Create(DiskParams::PanaVissDisk());
  return &model;
}

// --- FCFS --------------------------------------------------------------------

TEST(FcfsTest, ServesInArrivalOrder) {
  FcfsScheduler s;
  DispatchContext ctx;
  s.Enqueue(Req(1, 3000), ctx);
  s.Enqueue(Req(2, 10), ctx);
  s.Enqueue(Req(3, 2000), ctx);
  EXPECT_EQ(DrainIds(s), (std::vector<RequestId>{1, 2, 3}));
}

TEST(FcfsTest, QueueSizeAndForEach) {
  FcfsScheduler s;
  DispatchContext ctx;
  s.Enqueue(Req(1, 1), ctx);
  s.Enqueue(Req(2, 2), ctx);
  EXPECT_EQ(s.queue_size(), 2u);
  EXPECT_EQ(s.Dispatch(ctx)->id, 1u);
  EXPECT_EQ(s.queue_size(), 1u);
  EXPECT_EQ(DrainIds(s), (std::vector<RequestId>{2}));
  EXPECT_EQ(s.queue_size(), 0u);
}

TEST(FcfsTest, EmptyDispatchReturnsNullopt) {
  FcfsScheduler s;
  DispatchContext ctx;
  EXPECT_FALSE(s.Dispatch(ctx).has_value());
}

// --- SSTF --------------------------------------------------------------------

TEST(SstfTest, ServesNearestFirst) {
  SstfScheduler s;
  DispatchContext ctx;
  s.Enqueue(Req(1, 1000), ctx);
  s.Enqueue(Req(2, 90), ctx);
  s.Enqueue(Req(3, 2500), ctx);
  // head 0: 90 first, then from 90: 1000, then 2500.
  EXPECT_EQ(DrainIds(s, 0), (std::vector<RequestId>{2, 1, 3}));
}

TEST(SstfTest, GreedyCanReverseDirection) {
  SstfScheduler s;
  DispatchContext ctx{.now = 0, .head = 100};
  s.Enqueue(Req(1, 110), ctx);
  s.Enqueue(Req(2, 80), ctx);
  s.Enqueue(Req(3, 140), ctx);
  // 110 (d=10), then 80 (d=30 from 110... but 140 is d=30 too; below wins
  // only if strictly closer). From 110: |80-110|=30, |140-110|=30 ->
  // above (140) is chosen because below must be strictly closer.
  EXPECT_EQ(DrainIds(s, 100), (std::vector<RequestId>{1, 3, 2}));
}

TEST(SstfTest, SameCylinderFifo) {
  SstfScheduler s;
  DispatchContext ctx;
  s.Enqueue(Req(1, 50), ctx);
  s.Enqueue(Req(2, 50), ctx);
  EXPECT_EQ(DrainIds(s, 50), (std::vector<RequestId>{1, 2}));
}

// --- SCAN family ---------------------------------------------------------------

TEST(ScanTest, SweepsUpThenDown) {
  ScanScheduler s(ScanVariant::kScan, 3832);
  DispatchContext ctx{.now = 0, .head = 100};
  s.Enqueue(Req(1, 50), ctx);
  s.Enqueue(Req(2, 150), ctx);
  s.Enqueue(Req(3, 300), ctx);
  s.Enqueue(Req(4, 20), ctx);
  EXPECT_EQ(DrainIds(s, 100), (std::vector<RequestId>{2, 3, 1, 4}));
}

TEST(ScanTest, ReversesWhenNothingAhead) {
  ScanScheduler s(ScanVariant::kScan, 3832);
  DispatchContext ctx{.now = 0, .head = 500};
  s.Enqueue(Req(1, 100), ctx);
  EXPECT_EQ(DrainIds(s, 500), (std::vector<RequestId>{1}));
  EXPECT_EQ(s.direction(), -1);
}

TEST(CScanTest, WrapsToLowestAfterTop) {
  ScanScheduler s(ScanVariant::kCScan, 3832);
  DispatchContext ctx{.now = 0, .head = 100};
  s.Enqueue(Req(1, 50), ctx);
  s.Enqueue(Req(2, 150), ctx);
  s.Enqueue(Req(3, 300), ctx);
  s.Enqueue(Req(4, 20), ctx);
  // Upward from 100: 150, 300; wrap: 20, 50.
  EXPECT_EQ(DrainIds(s, 100), (std::vector<RequestId>{2, 3, 4, 1}));
}

TEST(ScanFamilyTest, Names) {
  EXPECT_EQ(ScanScheduler(ScanVariant::kScan, 100).name(), "scan");
  EXPECT_EQ(ScanScheduler(ScanVariant::kLook, 100).name(), "look");
  EXPECT_EQ(ScanScheduler(ScanVariant::kCScan, 100).name(), "cscan");
  EXPECT_EQ(ScanScheduler(ScanVariant::kCLook, 100).name(), "clook");
}

// --- EDF ----------------------------------------------------------------------

TEST(EdfTest, ServesByDeadline) {
  EdfScheduler s;
  DispatchContext ctx;
  s.Enqueue(Req(1, 10, 300 * kMillisecond), ctx);
  s.Enqueue(Req(2, 20, 100 * kMillisecond), ctx);
  s.Enqueue(Req(3, 30, 200 * kMillisecond), ctx);
  EXPECT_EQ(DrainIds(s), (std::vector<RequestId>{2, 3, 1}));
}

TEST(EdfTest, RelaxedDeadlinesSortLast) {
  EdfScheduler s;
  DispatchContext ctx;
  s.Enqueue(Req(1, 10), ctx);  // no deadline
  s.Enqueue(Req(2, 20, 500 * kMillisecond), ctx);
  EXPECT_EQ(DrainIds(s), (std::vector<RequestId>{2, 1}));
}

TEST(EdfTest, TiesBreakByArrival) {
  EdfScheduler s;
  DispatchContext ctx;
  Request a = Req(1, 10, 100 * kMillisecond);
  Request b = Req(2, 20, 100 * kMillisecond);
  a.arrival = 5;
  b.arrival = 3;
  s.Enqueue(a, ctx);
  s.Enqueue(b, ctx);
  EXPECT_EQ(DrainIds(s), (std::vector<RequestId>{2, 1}));
}

// --- SCAN-EDF -------------------------------------------------------------------

TEST(ScanEdfTest, DeadlineFirstThenSweep) {
  ScanEdfScheduler s;
  DispatchContext ctx{.now = 0, .head = 100};
  const SimTime dl = 500 * kMillisecond;
  s.Enqueue(Req(1, 3000, dl), ctx);
  s.Enqueue(Req(2, 200, dl), ctx);
  s.Enqueue(Req(3, 10, 100 * kMillisecond), ctx);
  // id 3 has the earliest deadline; ids 1,2 share one and go in sweep
  // order from the head.
  EXPECT_EQ(DrainIds(s, 100), (std::vector<RequestId>{3, 2, 1}));
}

TEST(ScanEdfTest, GranularityGroupsNearbyDeadlines) {
  ScanEdfScheduler s(/*deadline_granularity=*/100 * kMillisecond);
  DispatchContext ctx{.now = 0, .head = 0};
  s.Enqueue(Req(1, 3000, 50 * kMillisecond), ctx);
  s.Enqueue(Req(2, 200, 80 * kMillisecond), ctx);
  // Same 100 ms bucket: sweep order wins (200 before 3000) even though
  // id 1 has the earlier deadline.
  EXPECT_EQ(DrainIds(s, 0), (std::vector<RequestId>{2, 1}));
}

// --- FD-SCAN --------------------------------------------------------------------

TEST(FdScanTest, MovesTowardEarliestFeasibleDeadline) {
  FdScanScheduler s(SharedDisk());
  DispatchContext ctx{.now = 0, .head = 2000};
  s.Enqueue(Req(1, 3500, 1000 * kMillisecond), ctx);  // feasible, earliest
  s.Enqueue(Req(2, 2500, 2000 * kMillisecond), ctx);  // en route
  s.Enqueue(Req(3, 100, 3000 * kMillisecond), ctx);   // opposite direction
  auto r = s.Dispatch(ctx);
  ASSERT_TRUE(r.has_value());
  // Target is id 1 (cyl 3500, up); nearest pending at/above head is id 2.
  EXPECT_EQ(r->id, 2u);
}

TEST(FdScanTest, InfeasibleDeadlinesFallBackToNearest) {
  FdScanScheduler s(SharedDisk());
  DispatchContext ctx{.now = 0, .head = 2000};
  s.Enqueue(Req(1, 3500, 1), ctx);   // deadline already hopeless
  s.Enqueue(Req(2, 1900, 2), ctx);   // also hopeless, but nearest
  auto r = s.Dispatch(ctx);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->id, 2u);
}

TEST(FdScanTest, DrainsCompletely) {
  FdScanScheduler s(SharedDisk());
  DispatchContext ctx{.now = 0, .head = 0};
  for (RequestId i = 0; i < 20; ++i) {
    s.Enqueue(Req(i, static_cast<Cylinder>(191 * (i + 1)),
                  (100 + 40 * static_cast<SimTime>(i)) * kMillisecond),
              ctx);
  }
  EXPECT_EQ(DrainIds(s, 0).size(), 20u);
  EXPECT_EQ(s.queue_size(), 0u);
}

// Replays a generated workload through the indexed FD-SCAN and the
// original linear scan (reference_fd_scan.h), serving each request with
// the disk's average-latency service time, and checks both dispatch the
// same request at every step. Deadlines are cut to a 10 ms grid so many requests share
// one, and every fifth request has none. Returns the dispatch count.
uint64_t ReplayAgainstLinearScan(const WorkloadConfig& wc) {
  auto gen = SyntheticGenerator::Create(wc);
  EXPECT_TRUE(gen.ok()) << gen.status().ToString();
  if (!gen.ok()) return 0;
  const DiskModel& disk = *SharedDisk();
  FdScanScheduler indexed(&disk);
  ReferenceFdScanScheduler reference(&disk);
  auto next = [&] {
    std::optional<Request> r = (*gen)->Next();
    if (r && r->id % 5 == 0) {
      r->deadline = kNoDeadline;
    } else if (r) {
      r->deadline -= r->deadline % (10 * kMillisecond);
    }
    return r;
  };

  DispatchContext ctx{.now = 0, .head = 0};
  std::optional<Request> pending = next();
  uint64_t dispatched = 0;
  while (pending || indexed.queue_size() > 0) {
    // An idle disk waits for the next arrival.
    if (indexed.queue_size() == 0) {
      ctx.now = std::max(ctx.now, pending->arrival);
    }
    for (; pending && pending->arrival <= ctx.now; pending = next()) {
      indexed.Enqueue(*pending, ctx);
      reference.Enqueue(*pending, ctx);
    }
    std::optional<Request> got = indexed.Dispatch(ctx);
    std::optional<Request> want = reference.Dispatch(ctx);
    if (!got || !want || got->id != want->id) {
      ADD_FAILURE() << "dispatch " << dispatched << ": indexed "
                    << (got ? std::to_string(got->id) : "none")
                    << ", reference "
                    << (want ? std::to_string(want->id) : "none");
      return dispatched;
    }
    ++dispatched;
    ctx.now += MsToSim(disk.ServiceTimeMs(ctx.head, got->cylinder, got->bytes,
                                          /*rng=*/nullptr));
    ctx.head = got->cylinder;
  }
  EXPECT_EQ(reference.queue_size(), 0u);
  return dispatched;
}

// Steady overload: the backlog, and its missed deadlines, grow all run.
TEST(FdScanTest, MatchesLinearScanReferenceUnderOverload) {
  WorkloadConfig wc;
  wc.seed = 11;
  wc.count = 1000;
  wc.mean_interarrival_ms = 2.0;
  EXPECT_EQ(ReplayAgainstLinearScan(wc), wc.count);
}

// Bursts of 100 requests at one instant: each builds a backlog whose
// tail misses its deadlines, then drains before the next burst. Transfers
// of 4-64 KB put feasible deadlines closer to the scan's starting point.
TEST(FdScanTest, MatchesLinearScanReferenceAcrossBursts) {
  WorkloadConfig wc;
  wc.seed = 12;
  wc.count = 3000;
  wc.burst_size = 100;
  wc.mean_interarrival_ms = 20.0;
  wc.bytes_lo = 4 * 1024;
  EXPECT_EQ(ReplayAgainstLinearScan(wc), wc.count);
}

// --- SSEDO / SSEDV ----------------------------------------------------------------

TEST(SsedTest, AlphaOneActsLikeEdf) {
  SsedScheduler s(SsedVariant::kValue, 3832, /*alpha=*/1.0);
  DispatchContext ctx;
  s.Enqueue(Req(1, 10, 300 * kMillisecond), ctx);
  s.Enqueue(Req(2, 3800, 100 * kMillisecond), ctx);
  s.Enqueue(Req(3, 30, 200 * kMillisecond), ctx);
  EXPECT_EQ(DrainIds(s), (std::vector<RequestId>{2, 3, 1}));
}

TEST(SsedTest, AlphaZeroActsLikeSstf) {
  SsedScheduler s(SsedVariant::kOrdering, 3832, /*alpha=*/0.0);
  DispatchContext ctx{.now = 0, .head = 0};
  s.Enqueue(Req(1, 1000, 1 * kMillisecond), ctx);
  s.Enqueue(Req(2, 90, 900 * kMillisecond), ctx);
  auto r = s.Dispatch(ctx);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->id, 2u);  // nearest wins despite the later deadline
}

TEST(SsedTest, CloseRequestCanJumpAhead) {
  // The defining SSEDV behavior: a later deadline right under the arm
  // beats an earlier deadline far away.
  SsedScheduler s(SsedVariant::kValue, 3832, /*alpha=*/0.3);
  DispatchContext ctx{.now = 0, .head = 500};
  s.Enqueue(Req(1, 3700, 100 * kMillisecond), ctx);  // urgent but far
  s.Enqueue(Req(2, 505, 150 * kMillisecond), ctx);   // less urgent, adjacent
  auto r = s.Dispatch(ctx);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->id, 2u);
}

TEST(SsedTest, Names) {
  EXPECT_EQ(SsedScheduler(SsedVariant::kOrdering, 100).name(), "ssedo");
  EXPECT_EQ(SsedScheduler(SsedVariant::kValue, 100).name(), "ssedv");
}

// --- Multi-queue -------------------------------------------------------------------

TEST(MultiQueueTest, HigherPriorityLevelAlwaysFirst) {
  MultiQueueScheduler s(8);
  DispatchContext ctx{.now = 0, .head = 0};
  s.Enqueue(Req(1, 100, kNoDeadline, 3), ctx);
  s.Enqueue(Req(2, 200, kNoDeadline, 0), ctx);
  s.Enqueue(Req(3, 300, kNoDeadline, 1), ctx);
  EXPECT_EQ(DrainIds(s, 0), (std::vector<RequestId>{2, 3, 1}));
}

TEST(MultiQueueTest, SweepOrderWithinLevel) {
  MultiQueueScheduler s(4);
  DispatchContext ctx{.now = 0, .head = 150};
  s.Enqueue(Req(1, 100, kNoDeadline, 2), ctx);
  s.Enqueue(Req(2, 200, kNoDeadline, 2), ctx);
  s.Enqueue(Req(3, 3000, kNoDeadline, 2), ctx);
  // Upward from 150: 200, 3000, wrap to 100.
  EXPECT_EQ(DrainIds(s, 150), (std::vector<RequestId>{2, 3, 1}));
}

TEST(MultiQueueTest, OutOfRangeLevelClampsToLowest) {
  MultiQueueScheduler s(4);
  DispatchContext ctx;
  s.Enqueue(Req(1, 100, kNoDeadline, 99), ctx);
  s.Enqueue(Req(2, 200, kNoDeadline, 3), ctx);
  const auto ids = DrainIds(s);
  EXPECT_EQ(ids.size(), 2u);  // both land in the lowest queue and drain
}

// --- BUCKET ----------------------------------------------------------------------

TEST(BucketTest, HigherValueBucketFirstThenEdf) {
  BucketScheduler s(/*levels=*/8, /*buckets=*/4);
  DispatchContext ctx;
  s.Enqueue(Req(1, 10, 100 * kMillisecond, 7), ctx);  // lowest value
  s.Enqueue(Req(2, 20, 300 * kMillisecond, 0), ctx);  // top value, late dl
  s.Enqueue(Req(3, 30, 100 * kMillisecond, 1), ctx);  // top bucket, early dl
  EXPECT_EQ(DrainIds(s), (std::vector<RequestId>{3, 2, 1}));
}

TEST(BucketTest, SingleBucketDegeneratesToEdf) {
  BucketScheduler s(/*levels=*/8, /*buckets=*/1);
  DispatchContext ctx;
  s.Enqueue(Req(1, 10, 300 * kMillisecond, 0), ctx);
  s.Enqueue(Req(2, 20, 100 * kMillisecond, 7), ctx);
  EXPECT_EQ(DrainIds(s), (std::vector<RequestId>{2, 1}));
}

// --- SCAN-RT --------------------------------------------------------------------

TEST(ScanRtTest, InsertsInScanOrderWhenFeasible) {
  ScanRtScheduler s(SharedDisk());
  DispatchContext ctx{.now = 0, .head = 0};
  s.Enqueue(Req(1, 2000, 10000 * kMillisecond), ctx);
  s.Enqueue(Req(2, 1000, 10000 * kMillisecond), ctx);  // slots in before 1
  EXPECT_EQ(DrainIds(s, 0), (std::vector<RequestId>{2, 1}));
}

TEST(ScanRtTest, AppendsWhenInsertionWouldViolateDeadline) {
  ScanRtScheduler s(SharedDisk());
  DispatchContext ctx{.now = 0, .head = 0};
  // id 1 has a deadline with almost no slack: anything inserted before it
  // would push it past the deadline.
  s.Enqueue(Req(1, 2000, 25 * kMillisecond), ctx);
  s.Enqueue(Req(2, 1000, 10000 * kMillisecond), ctx);
  EXPECT_EQ(DrainIds(s, 0), (std::vector<RequestId>{1, 2}));
}

// --- DDS ------------------------------------------------------------------------

TEST(DdsTest, ScanOrderWhenDeadlinesAreLoose) {
  DdsScheduler s(SharedDisk());
  DispatchContext ctx{.now = 0, .head = 0};
  s.Enqueue(Req(1, 2000, 10000 * kMillisecond, 0), ctx);
  s.Enqueue(Req(2, 1000, 10000 * kMillisecond, 0), ctx);
  EXPECT_EQ(DrainIds(s, 0), (std::vector<RequestId>{2, 1}));
}

TEST(DdsTest, DemotesLowestPriorityOnConflict) {
  DdsScheduler s(SharedDisk());
  DispatchContext ctx{.now = 0, .head = 0};
  // Low-priority (level 7) request with a loose deadline sits early in the
  // sweep; a tight-deadline high-priority request arrives behind it.
  s.Enqueue(Req(1, 1000, 10000 * kMillisecond, 7), ctx);
  // With id 1 in front, id 2 (at cyl 2000, deadline ~26 ms, priority 0)
  // cannot make it: serving 1000 first costs ~seek+latency+transfer
  // ~20 ms, then 2000 adds ~17 ms more. DDS must demote id 1.
  s.Enqueue(Req(2, 2000, 30 * kMillisecond, 0), ctx);
  EXPECT_EQ(DrainIds(s, 0), (std::vector<RequestId>{2, 1}));
}

TEST(DdsTest, KeepsHighPriorityInPlace) {
  DdsScheduler s(SharedDisk());
  DispatchContext ctx{.now = 0, .head = 0};
  s.Enqueue(Req(1, 1000, 10000 * kMillisecond, 0), ctx);   // high priority
  s.Enqueue(Req(2, 500, 10000 * kMillisecond, 5), ctx);    // ahead in sweep
  // Loose deadlines: pure sweep order, no demotion.
  EXPECT_EQ(DrainIds(s, 0), (std::vector<RequestId>{2, 1}));
}

}  // namespace
}  // namespace csfc
