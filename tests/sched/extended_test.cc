// Section 4.3 extension schedulers: DDS with an SFC1 front end and BUCKET
// with an SFC3 sweep stage.

#include "sched/extended.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "sched/bucket.h"

namespace csfc {
namespace {

DiskModel* SharedDisk() {
  static DiskModel model = *DiskModel::Create(DiskParams::PanaVissDisk());
  return &model;
}

Request Req(RequestId id, Cylinder cyl, SimTime deadline,
            std::initializer_list<PriorityLevel> pris) {
  Request r;
  r.id = id;
  r.cylinder = cyl;
  r.deadline = deadline;
  for (PriorityLevel p : pris) r.priorities.push_back(p);
  r.bytes = 64 * 1024;
  return r;
}

std::vector<RequestId> DrainIds(Scheduler& s) {
  std::vector<RequestId> ids;
  DispatchContext ctx{.now = 0, .head = 0};
  while (auto r = s.Dispatch(ctx)) {
    ids.push_back(r->id);
    ctx.head = r->cylinder;
  }
  return ids;
}

// --- SfcDdsScheduler -----------------------------------------------------

TEST(SfcDdsTest, CreateValidation) {
  EXPECT_FALSE(SfcDdsScheduler::Create(nullptr, "hilbert", 3, 4).ok());
  EXPECT_FALSE(SfcDdsScheduler::Create(SharedDisk(), "bogus", 3, 4).ok());
  EXPECT_TRUE(SfcDdsScheduler::Create(SharedDisk(), "hilbert", 3, 4).ok());
}

TEST(SfcDdsTest, AbsolutePriorityRespectsCurveOrder) {
  auto s = SfcDdsScheduler::Create(SharedDisk(), "cscan", 2, 4);
  ASSERT_TRUE(s.ok());
  // cscan is dimension-0-major: (0,15) must rank more important than
  // (1,0), and (0,0) is the most important of all.
  const PriorityLevel best =
      (*s)->AbsolutePriority(Req(0, 0, kNoDeadline, {0, 0}));
  const PriorityLevel mid =
      (*s)->AbsolutePriority(Req(1, 0, kNoDeadline, {0, 15}));
  const PriorityLevel low =
      (*s)->AbsolutePriority(Req(2, 0, kNoDeadline, {1, 0}));
  EXPECT_LT(best, mid);
  EXPECT_LT(mid, low);
}

TEST(SfcDdsTest, DemotesByCurvePositionOnConflict) {
  auto s = SfcDdsScheduler::Create(SharedDisk(), "cscan", 2, 3);
  ASSERT_TRUE(s.ok());
  DispatchContext ctx{.now = 0, .head = 0};
  // Low multi-priority (7,7) request sits early in the sweep; a tight
  // high multi-priority (0,0) request behind it forces its demotion —
  // DDS alone could not have compared the two-dimensional priorities.
  (*s)->Enqueue(Req(1, 1000, MsToSim(10000), {7, 7}), ctx);
  (*s)->Enqueue(Req(2, 2000, MsToSim(30), {0, 0}), ctx);
  EXPECT_EQ(DrainIds(**s), (std::vector<RequestId>{2, 1}));
}

TEST(SfcDdsTest, RestoresOriginalPriorities) {
  auto s = SfcDdsScheduler::Create(SharedDisk(), "hilbert", 3, 4);
  ASSERT_TRUE(s.ok());
  DispatchContext ctx{.now = 0, .head = 0};
  (*s)->Enqueue(Req(1, 500, MsToSim(1000), {3, 7, 11}), ctx);
  auto r = (*s)->Dispatch(ctx);
  ASSERT_TRUE(r.has_value());
  ASSERT_EQ(r->priorities.size(), 3u);
  EXPECT_EQ(r->priorities[0], 3u);
  EXPECT_EQ(r->priorities[1], 7u);
  EXPECT_EQ(r->priorities[2], 11u);
}

TEST(SfcDdsTest, RepeatedIdsKeepTheirOwnPriorities) {
  // Traces may repeat request ids; each request must still leave with the
  // vector it arrived with, whichever of a same-id pair dispatches first.
  auto s = SfcDdsScheduler::Create(SharedDisk(), "hilbert", 3, 4);
  ASSERT_TRUE(s.ok());
  DispatchContext ctx{.now = 0, .head = 0};
  (*s)->Enqueue(Req(7, 500, MsToSim(1000), {1, 2, 3}), ctx);
  (*s)->Enqueue(Req(7, 900, MsToSim(1000), {12, 13, 14}), ctx);
  std::map<Cylinder, PriorityVec> served;
  while (auto r = (*s)->Dispatch(ctx)) served[r->cylinder] = r->priorities;
  ASSERT_EQ(served.size(), 2u);
  EXPECT_EQ(served[500], (PriorityVec{1, 2, 3}));
  EXPECT_EQ(served[900], (PriorityVec{12, 13, 14}));
}

// --- SfcBucketScheduler ----------------------------------------------------

TEST(SfcBucketTest, BucketOrderStillDominates) {
  SfcBucketScheduler s(8, 4, /*urgency_band=*/MsToSim(100));
  DispatchContext ctx;
  s.Enqueue(Req(1, 10, MsToSim(50), {7}), ctx);   // low value
  s.Enqueue(Req(2, 3800, MsToSim(950), {0}), ctx);  // top value
  EXPECT_EQ(DrainIds(s), (std::vector<RequestId>{2, 1}));
}

TEST(SfcBucketTest, SweepWithinUrgencyBand) {
  SfcBucketScheduler s(8, 1, /*urgency_band=*/MsToSim(100));
  DispatchContext ctx{.now = 0, .head = 100};
  // Same band (deadlines within 100 ms of each other): cylinder sweep.
  s.Enqueue(Req(1, 3000, MsToSim(510), {0}), ctx);
  s.Enqueue(Req(2, 200, MsToSim(560), {0}), ctx);
  s.Enqueue(Req(3, 1500, MsToSim(530), {0}), ctx);
  EXPECT_EQ(DrainIds(s), (std::vector<RequestId>{2, 3, 1}));
}

TEST(SfcBucketTest, EarlierBandBeatsSweepOrder) {
  SfcBucketScheduler s(8, 1, /*urgency_band=*/MsToSim(100));
  DispatchContext ctx{.now = 0, .head = 100};
  s.Enqueue(Req(1, 150, MsToSim(950), {0}), ctx);  // near, but relaxed
  s.Enqueue(Req(2, 3500, MsToSim(50), {0}), ctx);  // far, urgent band
  EXPECT_EQ(DrainIds(s), (std::vector<RequestId>{2, 1}));
}

TEST(SfcBucketTest, ZeroBandDegeneratesToPlainBucket) {
  SfcBucketScheduler s(8, 4, /*urgency_band=*/0);
  DispatchContext ctx;
  s.Enqueue(Req(1, 10, MsToSim(300), {0}), ctx);
  s.Enqueue(Req(2, 3800, MsToSim(100), {1}), ctx);  // same bucket, earlier
  EXPECT_EQ(DrainIds(s), (std::vector<RequestId>{2, 1}));
}

TEST(SfcBucketTest, QueueSizeAndForEach) {
  SfcBucketScheduler s(8, 4, MsToSim(100));
  DispatchContext ctx;
  s.Enqueue(Req(1, 10, MsToSim(100), {0}), ctx);
  s.Enqueue(Req(2, 20, MsToSim(200), {7}), ctx);
  EXPECT_EQ(s.queue_size(), 2u);
  EXPECT_EQ(DrainIds(s), (std::vector<RequestId>{1, 2}));
  EXPECT_EQ(s.queue_size(), 0u);
}

TEST(SfcBucketTest, SeekBeatsPlainBucketOnBandedWorkload) {
  // Quantitative version of Section 4.3: on a batch of equal-value
  // requests with similar deadlines, sweeping inside the band visits
  // cylinders in order while plain BUCKET jumps deadline-to-deadline.
  SfcBucketScheduler swept(8, 4, MsToSim(1000));
  BucketScheduler plain(8, 4);
  DispatchContext ctx{.now = 0, .head = 0};
  uint64_t x = 77;
  std::vector<Request> batch;
  for (RequestId i = 0; i < 100; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    batch.push_back(Req(i, static_cast<Cylinder>((x >> 33) % 3832),
                        MsToSim(500 + static_cast<double>(i)), {2}));
  }
  for (const Request& r : batch) {
    swept.Enqueue(r, ctx);
    plain.Enqueue(r, ctx);
  }
  auto total_travel = [](Scheduler& s) {
    DispatchContext c{.now = 0, .head = 0};
    uint64_t travel = 0;
    Cylinder head = 0;
    while (auto r = s.Dispatch(c)) {
      travel += head > r->cylinder ? head - r->cylinder : r->cylinder - head;
      head = r->cylinder;
      c.head = head;
    }
    return travel;
  };
  EXPECT_LT(total_travel(swept), total_travel(plain) / 4);
}

}  // namespace
}  // namespace csfc
