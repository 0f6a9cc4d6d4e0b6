// Bit-identity of Encapsulator::CharacterizeBatch with the per-request
// scalar path. The fused kernel hoists every per-call invariant (stage-mode
// branches, LUT base pointer, quantization scales, the head-position and
// partition terms of SFC3) out of a tight loop, and every other
// configuration loops Characterize — but the batch path must perform the
// exact same floating-point operation sequence per request, so
// batch-rekeyed queue keys match per-request Characterize to the last bit
// and a batch rekey schedules exactly as a per-request one. EXPECT_EQ on
// doubles below is deliberate: approximate agreement would hide a
// reordered FP operation.
//
// SimdCharacterizeTest pins the fused kernel (FusedScalarOne: formula
// stage 2 + partitioned stage 3) on random configs inside its gate and on
// inputs outside any real disk's envelope: more than 2^30 cylinders, a
// head at or past `cylinders`, and cylinders >= 2^30 in the batch.
// Nothing upstream forbids them, so the batch path must still agree with
// Characterize there. The suite and its case names date from when a
// lane-parallel copy of the kernel ran these inputs at several widths and
// fell back to FusedScalarOne on the out-of-envelope ones; FusedScalarOne
// is now the only kernel, and the cases check it against Characterize.

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "core/encapsulator.h"

namespace csfc {
namespace {

Request RandomRequest(Rng& rng, const EncapsulatorConfig& cfg,
                      RequestId id, SimTime now) {
  Request r;
  r.id = id;
  r.arrival = now;
  // Mix relaxed, past-due, due-now, near and far deadlines around `now`.
  switch (rng.Uniform(5)) {
    case 0:
      r.deadline = kNoDeadline;
      break;
    case 1:
      r.deadline = now - static_cast<SimTime>(rng.Uniform(50 * kMillisecond));
      break;
    case 2:
      r.deadline = now;  // deadline <= now is the overdue edge
      break;
    default:
      r.deadline = now + static_cast<SimTime>(rng.Uniform(2 * kSecond));
      break;
  }
  r.cylinder = static_cast<Cylinder>(rng.Uniform(cfg.cylinders));
  // Vary the dimension count so requests with fewer priorities than the
  // configured D (priority(k) fallback) are exercised too.
  const uint32_t dims = static_cast<uint32_t>(rng.Uniform(cfg.priority_dims + 1));
  const uint32_t levels = 1u << cfg.priority_bits;
  for (uint32_t k = 0; k < dims; ++k) {
    r.priorities.push_back(static_cast<PriorityLevel>(rng.Uniform(levels)));
  }
  return r;
}

std::vector<Request> MakeBatch(Rng& rng, const EncapsulatorConfig& cfg,
                               SimTime now) {
  std::vector<Request> reqs;
  for (RequestId id = 0; id < 257; ++id) {
    reqs.push_back(RandomRequest(rng, cfg, id, now));
  }
  return reqs;
}

void ExpectBatchMatchesScalar(const EncapsulatorConfig& cfg,
                              const std::vector<Request>& reqs,
                              const DispatchContext& ctx) {
  auto created = Encapsulator::Create(cfg);
  ASSERT_TRUE(created.ok()) << created.status().message();
  const Encapsulator& enc = **created;

  std::vector<const Request*> ptrs;
  for (const Request& r : reqs) ptrs.push_back(&r);

  std::vector<CValue> batch(reqs.size());
  enc.CharacterizeBatch(ptrs, ctx, batch);

  for (size_t i = 0; i < reqs.size(); ++i) {
    const CValue scalar = enc.Characterize(reqs[i], ctx);
    EXPECT_EQ(batch[i], scalar) << "request " << i;
    // The traced paths emit CharacterizeStages' values; its vc must be
    // the key the untraced paths insert.
    EXPECT_EQ(enc.CharacterizeStages(reqs[i], ctx).vc, scalar)
        << "request " << i;
  }
}

// 257 random requests around t = 500 ms, under a random head.
void ExpectBatchMatchesScalar(const EncapsulatorConfig& cfg, uint64_t seed) {
  Rng rng(seed);
  const SimTime now = MsToSim(500.0);
  const DispatchContext ctx{
      .now = now, .head = static_cast<Cylinder>(rng.Uniform(cfg.cylinders))};
  ExpectBatchMatchesScalar(cfg, MakeBatch(rng, cfg, now), ctx);
}

// One randomized configuration per seed, sweeping every stage-mode
// combination; each is checked with and without lookup tables.
EncapsulatorConfig RandomConfig(uint64_t seed) {
  Rng rng(seed);
  EncapsulatorConfig cfg;
  cfg.stage1_enabled = rng.Uniform(4) != 0;  // passthrough path too
  cfg.sfc1 = rng.Uniform(2) == 0 ? "hilbert" : "zorder";
  cfg.priority_dims = static_cast<uint32_t>(1 + rng.Uniform(3));
  cfg.priority_bits = static_cast<uint32_t>(2 + rng.Uniform(3));
  switch (rng.Uniform(3)) {
    case 0: cfg.stage2_mode = Stage2Mode::kDisabled; break;
    case 1: cfg.stage2_mode = Stage2Mode::kFormula; break;
    default: cfg.stage2_mode = Stage2Mode::kCurve; break;
  }
  cfg.f = 0.25 * static_cast<double>(1 + rng.Uniform(8));
  switch (rng.Uniform(3)) {
    case 0: cfg.stage2_tie = Stage2TieBreak::kNone; break;
    case 1: cfg.stage2_tie = Stage2TieBreak::kEarliestDeadline; break;
    default: cfg.stage2_tie = Stage2TieBreak::kHighestPriority; break;
  }
  cfg.sfc2 = rng.Uniform(2) == 0 ? "hilbert" : "diagonal";
  cfg.stage2_bits = static_cast<uint32_t>(4 + rng.Uniform(5));
  cfg.stage2_deadline_major = rng.Uniform(2) == 0;
  cfg.deadline_horizon_ms = 200.0 * static_cast<double>(1 + rng.Uniform(10));
  switch (rng.Uniform(3)) {
    case 0: cfg.stage3_mode = Stage3Mode::kDisabled; break;
    case 1: cfg.stage3_mode = Stage3Mode::kPartitionedCScan; break;
    default: cfg.stage3_mode = Stage3Mode::kCurve; break;
  }
  cfg.partitions_r = static_cast<uint32_t>(1 + rng.Uniform(8));
  cfg.sfc3 = rng.Uniform(2) == 0 ? "cscan" : "hilbert";
  cfg.stage3_bits = static_cast<uint32_t>(4 + rng.Uniform(5));
  cfg.cylinders = static_cast<uint32_t>(100 + rng.Uniform(4000));
  return cfg;
}

// A random config inside the fused kernel's gate, cycling the tie-break
// by seed. Every fourth seed sets R = 2^stage3_bits, so the partition
// width p_s is 1 and the kernel's multiply-shift runs with magic = 2^32.
EncapsulatorConfig RandomFusedConfig(uint64_t seed) {
  Rng rng(seed);
  EncapsulatorConfig cfg;
  cfg.stage1_enabled = rng.Uniform(4) != 0;
  cfg.sfc1 = rng.Uniform(2) == 0 ? "hilbert" : "zorder";
  cfg.priority_dims = static_cast<uint32_t>(1 + rng.Uniform(3));
  cfg.priority_bits = static_cast<uint32_t>(2 + rng.Uniform(3));
  cfg.stage2_mode = Stage2Mode::kFormula;
  cfg.f = 0.25 * static_cast<double>(1 + rng.Uniform(8));
  constexpr Stage2TieBreak kTies[] = {Stage2TieBreak::kNone,
                                      Stage2TieBreak::kEarliestDeadline,
                                      Stage2TieBreak::kHighestPriority};
  cfg.stage2_tie = kTies[seed % 3];
  cfg.deadline_horizon_ms = 200.0 * static_cast<double>(1 + rng.Uniform(10));
  cfg.stage3_mode = Stage3Mode::kPartitionedCScan;
  cfg.stage3_bits = static_cast<uint32_t>(1 + rng.Uniform(8));
  cfg.partitions_r = seed % 4 == 0 ? 1u << cfg.stage3_bits
                                   : static_cast<uint32_t>(1 + rng.Uniform(8));
  cfg.cylinders = static_cast<uint32_t>(100 + rng.Uniform(4000));
  return cfg;
}

TEST(BatchCharacterizeTest, MatchesScalarAcrossRandomConfigs) {
  for (uint64_t seed = 0; seed < 24; ++seed) {
    EncapsulatorConfig cfg = RandomConfig(seed);
    ExpectBatchMatchesScalar(cfg, seed * 977 + 13);
    cfg.lut_max_cells = 0;
    ExpectBatchMatchesScalar(cfg, seed * 977 + 13);
  }
}

TEST(SimdCharacterizeTest, AllLevelsMatchScalarAcrossRandomConfigs) {
  for (uint64_t seed = 0; seed < 16; ++seed) {
    EncapsulatorConfig cfg = RandomFusedConfig(seed);
    ExpectBatchMatchesScalar(cfg, seed * 7919 + 3);
    cfg.lut_max_cells = 0;
    ExpectBatchMatchesScalar(cfg, seed * 7919 + 3);
  }
}

TEST(SimdCharacterizeTest, HugeDiskFallsBackToScalarPath) {
  // A disk past 2^30 cylinders, with partitions up to p_n = 7 so that
  // p_n * cylinders passes 2^32.
  EncapsulatorConfig cfg = RandomFusedConfig(11);
  cfg.cylinders = (uint32_t{1} << 30) + 12345;
  cfg.stage3_bits = 8;
  cfg.partitions_r = 8;
  ExpectBatchMatchesScalar(cfg, 42);
}

TEST(SimdCharacterizeTest, OutOfRangeHeadFallsBackToScalarPath) {
  // A head at and past the last cylinder: the C-SCAN distance must wrap
  // as Characterize's does.
  const EncapsulatorConfig cfg = RandomFusedConfig(12);
  Rng rng(43);
  const SimTime now = MsToSim(500.0);
  const std::vector<Request> reqs = MakeBatch(rng, cfg, now);
  for (const uint32_t past : {0u, 7u}) {
    ExpectBatchMatchesScalar(
        cfg, reqs,
        DispatchContext{.now = now,
                        .head = static_cast<Cylinder>(cfg.cylinders + past)});
  }
}

TEST(SimdCharacterizeTest, RogueCylinderBlocksFallBackPerChunk) {
  // Every 17th request carries a cylinder >= 2^30, out of range for any
  // plausible config but not forbidden by Characterize.
  const EncapsulatorConfig cfg = RandomFusedConfig(13);
  Rng rng(44);
  const SimTime now = MsToSim(500.0);
  std::vector<Request> reqs = MakeBatch(rng, cfg, now);
  for (size_t i = 0; i < reqs.size(); i += 17) {
    reqs[i].cylinder =
        static_cast<Cylinder>((uint32_t{1} << 30) + rng.Uniform(1u << 20));
  }
  const Cylinder head = static_cast<Cylinder>(rng.Uniform(cfg.cylinders));
  ExpectBatchMatchesScalar(cfg, reqs, DispatchContext{.now = now, .head = head});
}

// Pin each stage-mode combination explicitly (the random sweep could in
// principle miss one), with and without lookup tables.
TEST(BatchCharacterizeTest, MatchesScalarOnEveryStageModeCombination) {
  const Stage2Mode s2[] = {Stage2Mode::kDisabled, Stage2Mode::kFormula,
                           Stage2Mode::kCurve};
  const Stage3Mode s3[] = {Stage3Mode::kDisabled,
                           Stage3Mode::kPartitionedCScan, Stage3Mode::kCurve};
  uint64_t seed = 1000;
  for (const bool stage1 : {true, false}) {
    for (const Stage2Mode m2 : s2) {
      for (const Stage3Mode m3 : s3) {
        EncapsulatorConfig cfg;
        cfg.stage1_enabled = stage1;
        cfg.stage2_mode = m2;
        cfg.stage3_mode = m3;
        for (const uint64_t lut_max_cells : {cfg.lut_max_cells, uint64_t{0}}) {
          cfg.lut_max_cells = lut_max_cells;
          ExpectBatchMatchesScalar(cfg, ++seed);
        }
      }
    }
  }
}

// Degenerate batch shapes the loop bounds must handle.
TEST(BatchCharacterizeTest, EmptyAndSingletonBatches) {
  EncapsulatorConfig cfg;
  auto created = Encapsulator::Create(cfg);
  ASSERT_TRUE(created.ok());
  const Encapsulator& enc = **created;
  const DispatchContext ctx{.now = MsToSim(1.0), .head = 7};

  enc.CharacterizeBatch({}, ctx, {});

  Request r;
  r.id = 42;
  r.deadline = MsToSim(30.0);
  r.cylinder = 1234;
  r.priorities.push_back(3);
  const Request* p = &r;
  CValue one = -1.0;
  enc.CharacterizeBatch({&p, 1}, ctx, {&one, 1});
  EXPECT_EQ(one, enc.Characterize(r, ctx));
}

}  // namespace
}  // namespace csfc
