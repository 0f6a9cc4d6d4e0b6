// Randomized property tests on the dispatcher and encapsulator invariants
// that every experiment relies on:
//  * conservation — every inserted request is popped exactly once, under
//    every discipline and any interleaving of inserts and pops;
//  * batch order — requests popped between two queue swaps come out in
//    nondecreasing v_c order (within a batch the dispatcher is a priority
//    queue);
//  * encapsulator monotonicity — with the other coordinates fixed, v_c is
//    nondecreasing in each input the active stages consume.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "core/dispatcher.h"
#include "core/encapsulator.h"

namespace csfc {
namespace {

using DisciplineParam = std::tuple<QueueDiscipline, double, bool, bool>;

class DispatcherPropertyTest
    : public ::testing::TestWithParam<DisciplineParam> {
 protected:
  Dispatcher Make() {
    const auto& [discipline, window, sp, er] = GetParam();
    DispatcherConfig c;
    c.discipline = discipline;
    c.window = window;
    c.serve_promote = sp;
    c.expand_reset = er;
    c.expansion_factor = 2.0;
    auto d = Dispatcher::Create(c);
    EXPECT_TRUE(d.ok());
    return *d;
  }
};

TEST_P(DispatcherPropertyTest, ConservationUnderRandomInterleaving) {
  Dispatcher d = Make();
  Rng rng(2024);
  std::map<RequestId, int> popped;
  RequestId next_id = 0;
  uint64_t outstanding = 0;
  for (int step = 0; step < 5000; ++step) {
    const bool insert = outstanding == 0 || rng.Bernoulli(0.55);
    if (insert) {
      Request r;
      r.id = next_id++;
      d.Insert(rng.NextDouble(), r);
      ++outstanding;
    } else {
      auto r = d.Pop();
      ASSERT_TRUE(r.has_value());
      ++popped[r->id];
      --outstanding;
    }
  }
  while (auto r = d.Pop()) ++popped[r->id];
  EXPECT_EQ(popped.size(), static_cast<size_t>(next_id));
  for (const auto& [id, count] : popped) {
    EXPECT_EQ(count, 1) << "request " << id;
  }
}

TEST_P(DispatcherPropertyTest, SizeIsConsistent) {
  Dispatcher d = Make();
  Rng rng(7);
  size_t expected = 0;
  for (int step = 0; step < 2000; ++step) {
    if (expected == 0 || rng.Bernoulli(0.6)) {
      Request r;
      r.id = static_cast<RequestId>(step);
      d.Insert(rng.NextDouble(), r);
      ++expected;
    } else {
      ASSERT_TRUE(d.Pop().has_value());
      --expected;
    }
    EXPECT_EQ(d.size(), expected);
    EXPECT_EQ(d.empty(), expected == 0);
  }
}

TEST_P(DispatcherPropertyTest, ForEachVisitsExactlyThePending) {
  Dispatcher d = Make();
  Rng rng(11);
  std::map<RequestId, bool> pending;
  for (int step = 0; step < 500; ++step) {
    if (pending.empty() || rng.Bernoulli(0.6)) {
      Request r;
      r.id = static_cast<RequestId>(step);
      d.Insert(rng.NextDouble(), r);
      pending[r.id] = true;
    } else {
      auto r = d.Pop();
      ASSERT_TRUE(r.has_value());
      pending.erase(r->id);
    }
  }
  std::map<RequestId, int> seen;
  while (auto r = d.Pop()) ++seen[r->id];
  EXPECT_EQ(seen.size(), pending.size());
  for (const auto& [id, count] : seen) {
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(pending.count(id)) << id;
  }
}

std::string DisciplineName(
    const ::testing::TestParamInfo<DisciplineParam>& info) {
  const auto& [discipline, window, sp, er] = info.param;
  std::string name;
  switch (discipline) {
    case QueueDiscipline::kNonPreemptive:
      name = "nonpre";
      break;
    case QueueDiscipline::kFullyPreemptive:
      name = "full";
      break;
    case QueueDiscipline::kConditionallyPreemptive:
      name = "cond";
      break;
  }
  name += "_w" + std::to_string(static_cast<int>(window * 100));
  if (sp) name += "_sp";
  if (er) name += "_er";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllDisciplines, DispatcherPropertyTest,
    ::testing::Values(
        DisciplineParam{QueueDiscipline::kFullyPreemptive, 0.0, false, false},
        DisciplineParam{QueueDiscipline::kNonPreemptive, 0.0, false, false},
        DisciplineParam{QueueDiscipline::kConditionallyPreemptive, 0.0, true,
                        false},
        DisciplineParam{QueueDiscipline::kConditionallyPreemptive, 0.05, true,
                        false},
        DisciplineParam{QueueDiscipline::kConditionallyPreemptive, 0.05,
                        false, false},
        DisciplineParam{QueueDiscipline::kConditionallyPreemptive, 0.05, true,
                        true},
        DisciplineParam{QueueDiscipline::kConditionallyPreemptive, 0.5, true,
                        true}),
    DisciplineName);

TEST(DispatcherBatchOrderTest, NonPreemptiveBatchesAreSorted) {
  DispatcherConfig c;
  c.discipline = QueueDiscipline::kNonPreemptive;
  auto d = Dispatcher::Create(c);
  ASSERT_TRUE(d.ok());
  Rng rng(5);
  std::vector<CValue> values;
  for (RequestId i = 0; i < 200; ++i) {
    Request r;
    r.id = i;
    const CValue v = rng.NextDouble();
    values.push_back(v);
    d->Insert(v, r);
  }
  // One batch: popped order must be ascending v_c.
  CValue prev = -1.0;
  for (int i = 0; i < 200; ++i) {
    auto r = d->Pop();
    ASSERT_TRUE(r.has_value());
    EXPECT_GE(values[r->id], prev);
    prev = values[r->id];
  }
}

// ---------------------------------------------------------------------------

class EncapsulatorMonotonicityTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(EncapsulatorMonotonicityTest, Stage2FormulaMonotoneInDeadline) {
  EncapsulatorConfig c;
  c.sfc1 = GetParam();
  c.priority_dims = 2;
  c.priority_bits = 3;
  c.stage2_mode = Stage2Mode::kFormula;
  c.f = 1.0;
  c.stage2_tie = Stage2TieBreak::kNone;
  c.deadline_horizon_ms = 1000.0;
  c.stage3_mode = Stage3Mode::kDisabled;
  auto e = Encapsulator::Create(c);
  ASSERT_TRUE(e.ok());
  DispatchContext ctx;
  Request r;
  r.priorities = PriorityVec{3, 5};
  CValue prev = -1.0;
  for (double dl = 0; dl <= 1200; dl += 50) {
    r.deadline = MsToSim(dl);
    const CValue v = (*e)->Characterize(r, ctx);
    EXPECT_GE(v, prev) << "deadline " << dl;
    prev = v;
  }
}

TEST_P(EncapsulatorMonotonicityTest, Stage3MonotoneInSweepDistance) {
  EncapsulatorConfig c;
  c.stage1_enabled = false;
  c.priority_dims = 1;
  c.priority_bits = 3;
  c.stage2_mode = Stage2Mode::kDisabled;
  c.stage3_mode = Stage3Mode::kPartitionedCScan;
  c.partitions_r = 1;
  c.stage3_bits = 4;
  c.cylinders = 1000;
  auto e = Encapsulator::Create(c);
  ASSERT_TRUE(e.ok());
  (void)GetParam();  // stage 1 is off; run once per curve anyway
  DispatchContext ctx{.now = 0, .head = 700};
  Request r;
  r.priorities = PriorityVec{4};
  CValue prev = -1.0;
  for (uint32_t dist = 0; dist < 1000; dist += 37) {
    r.cylinder = static_cast<Cylinder>((700 + dist) % 1000);
    const CValue v = (*e)->Characterize(r, ctx);
    EXPECT_GT(v, prev) << "distance " << dist;
    prev = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Curves, EncapsulatorMonotonicityTest,
                         ::testing::Values("scan", "cscan", "peano", "gray",
                                           "hilbert", "spiral", "diagonal"));

}  // namespace
}  // namespace csfc
