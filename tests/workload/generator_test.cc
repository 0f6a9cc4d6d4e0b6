#include "workload/generator.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>

#include "workload/trace.h"

namespace csfc {
namespace {

WorkloadConfig BaseConfig() {
  WorkloadConfig c;
  c.seed = 42;
  c.count = 2000;
  c.mean_interarrival_ms = 25.0;
  c.priority_dims = 3;
  c.priority_levels = 16;
  return c;
}

std::vector<Request> Generate(const WorkloadConfig& c) {
  auto gen = SyntheticGenerator::Create(c);
  EXPECT_TRUE(gen.ok()) << gen.status().ToString();
  return DrainGenerator(**gen);
}

TEST(WorkloadConfigTest, ValidationCatchesBadValues) {
  WorkloadConfig c = BaseConfig();
  c.count = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = BaseConfig();
  c.mean_interarrival_ms = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = BaseConfig();
  c.burst_size = 0;
  EXPECT_FALSE(c.Validate().ok());
  c = BaseConfig();
  c.priority_dims = 13;
  EXPECT_FALSE(c.Validate().ok());
  c = BaseConfig();
  c.priority_levels = 1;
  EXPECT_FALSE(c.Validate().ok());
  c = BaseConfig();
  c.deadline_lo_ms = 700;
  c.deadline_hi_ms = 500;
  EXPECT_FALSE(c.Validate().ok());
  c = BaseConfig();
  c.deadline_lo_ms = std::numeric_limits<double>::infinity();
  c.deadline_hi_ms = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(c.Validate().ok());
  c = BaseConfig();
  c.bytes_lo = 100;
  c.bytes_hi = 50;
  EXPECT_FALSE(c.Validate().ok());
  c = BaseConfig();
  c.write_fraction = 1.5;
  EXPECT_FALSE(c.Validate().ok());
  EXPECT_TRUE(BaseConfig().Validate().ok());
}

TEST(SyntheticGeneratorTest, ProducesExactlyCountRequests) {
  const auto reqs = Generate(BaseConfig());
  EXPECT_EQ(reqs.size(), 2000u);
}

TEST(SyntheticGeneratorTest, IdsAreSequential) {
  const auto reqs = Generate(BaseConfig());
  for (size_t i = 0; i < reqs.size(); ++i) EXPECT_EQ(reqs[i].id, i);
}

TEST(SyntheticGeneratorTest, ArrivalsAreNondecreasing) {
  const auto reqs = Generate(BaseConfig());
  for (size_t i = 1; i < reqs.size(); ++i) {
    EXPECT_GE(reqs[i].arrival, reqs[i - 1].arrival);
  }
}

TEST(SyntheticGeneratorTest, MeanInterarrivalMatches) {
  WorkloadConfig c = BaseConfig();
  c.count = 50000;
  const auto reqs = Generate(c);
  const double total_ms = SimToMs(reqs.back().arrival);
  EXPECT_NEAR(total_ms / static_cast<double>(reqs.size()), 25.0, 1.0);
}

TEST(SyntheticGeneratorTest, DeterministicForSeed) {
  const auto a = Generate(BaseConfig());
  const auto b = Generate(BaseConfig());
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].arrival, b[i].arrival);
    EXPECT_EQ(a[i].cylinder, b[i].cylinder);
    EXPECT_EQ(a[i].deadline, b[i].deadline);
    EXPECT_TRUE(a[i].priorities == b[i].priorities);
  }
}

TEST(SyntheticGeneratorTest, SeedsChangeTheStream) {
  WorkloadConfig c = BaseConfig();
  c.seed = 43;
  const auto a = Generate(BaseConfig());
  const auto b = Generate(c);
  int diffs = 0;
  for (size_t i = 0; i < 100; ++i) diffs += a[i].cylinder != b[i].cylinder;
  EXPECT_GT(diffs, 50);
}

TEST(SyntheticGeneratorTest, PrioritiesWithinLevels) {
  const auto reqs = Generate(BaseConfig());
  for (const Request& r : reqs) {
    ASSERT_EQ(r.priorities.size(), 3u);
    for (PriorityLevel p : r.priorities) EXPECT_LT(p, 16u);
  }
}

TEST(SyntheticGeneratorTest, UniformPrioritiesCoverAllLevels) {
  const auto reqs = Generate(BaseConfig());
  std::vector<int> seen(16, 0);
  for (const Request& r : reqs) ++seen[r.priorities[0]];
  for (int count : seen) EXPECT_GT(count, 0);
}

TEST(SyntheticGeneratorTest, NormalPrioritiesConcentrateMidScale) {
  WorkloadConfig c = BaseConfig();
  c.priority_distribution = PriorityDistribution::kNormal;
  c.priority_levels = 8;
  c.count = 10000;
  const auto reqs = Generate(c);
  uint64_t mid = 0;
  for (const Request& r : reqs) {
    EXPECT_LT(r.priorities[0], 8u);
    mid += r.priorities[0] >= 2 && r.priorities[0] <= 5;
  }
  EXPECT_GT(static_cast<double>(mid) / static_cast<double>(reqs.size()), 0.6);
}

TEST(SyntheticGeneratorTest, DeadlinesInRange) {
  const auto reqs = Generate(BaseConfig());
  for (const Request& r : reqs) {
    ASSERT_TRUE(r.has_deadline());
    const double rel = SimToMs(r.deadline - r.arrival);
    EXPECT_GE(rel, 500.0);
    EXPECT_LE(rel, 700.0);
  }
}

// A negative relative deadline would make requests that are born past
// their deadlines: rejected with a message that names the range, unless
// relaxed deadlines make the range moot.
TEST(WorkloadConfigTest, NegativeDeadlinesAreRejected) {
  for (const auto& [lo, hi] : {std::pair{-50.0, 100.0}, {-50.0, -10.0},
                               {-0.001, 0.0}}) {
    WorkloadConfig c = BaseConfig();
    c.deadline_lo_ms = lo;
    c.deadline_hi_ms = hi;
    const Status s = c.Validate();
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << lo << ":" << hi;
    EXPECT_NE(s.message().find("deadline range"), std::string::npos)
        << s.ToString();
    EXPECT_NE(s.message().find("--deadline"), std::string::npos)
        << s.ToString();
    EXPECT_FALSE(SyntheticGenerator::Create(c).ok());
    c.relaxed_deadlines = true;
    EXPECT_TRUE(c.Validate().ok()) << lo << ":" << hi;
  }
  WorkloadConfig zero = BaseConfig();
  zero.deadline_lo_ms = 0.0;
  zero.deadline_hi_ms = 0.0;
  EXPECT_TRUE(zero.Validate().ok());
}

TEST(SyntheticGeneratorTest, RelaxedDeadlines) {
  WorkloadConfig c = BaseConfig();
  c.relaxed_deadlines = true;
  const auto reqs = Generate(c);
  for (const Request& r : reqs) EXPECT_FALSE(r.has_deadline());
}

TEST(SyntheticGeneratorTest, CylindersWithinDisk) {
  const auto reqs = Generate(BaseConfig());
  for (const Request& r : reqs) EXPECT_LT(r.cylinder, 3832u);
}

TEST(SyntheticGeneratorTest, SizeCoupledToPriority) {
  WorkloadConfig c = BaseConfig();
  c.couple_size_to_priority = true;
  c.bytes_lo = 8 * 1024;
  c.bytes_hi = 256 * 1024;
  const auto reqs = Generate(c);
  for (const Request& r : reqs) {
    if (r.priorities[0] == 0) {
      EXPECT_EQ(r.bytes, 8u * 1024);
    }
    if (r.priorities[0] == 15) {
      EXPECT_EQ(r.bytes, 256u * 1024);
    }
    EXPECT_GE(r.bytes, 8u * 1024);
    EXPECT_LE(r.bytes, 256u * 1024);
  }
}

TEST(SyntheticGeneratorTest, UniformSizesWithinRange) {
  WorkloadConfig c = BaseConfig();
  c.bytes_lo = 1000;
  c.bytes_hi = 2000;
  const auto reqs = Generate(c);
  bool varied = false;
  for (const Request& r : reqs) {
    EXPECT_GE(r.bytes, 1000u);
    EXPECT_LE(r.bytes, 2000u);
    varied |= r.bytes != reqs[0].bytes;
  }
  EXPECT_TRUE(varied);
}

TEST(SyntheticGeneratorTest, BurstsShareArrivalInstant) {
  WorkloadConfig c = BaseConfig();
  c.burst_size = 10;
  c.count = 200;
  const auto reqs = Generate(c);
  for (size_t i = 0; i < reqs.size(); i += 10) {
    for (size_t k = 1; k < 10; ++k) {
      EXPECT_EQ(reqs[i + k].arrival, reqs[i].arrival);
    }
  }
}

TEST(SyntheticGeneratorTest, BurstsPreserveOfferedLoad) {
  WorkloadConfig c = BaseConfig();
  c.burst_size = 10;
  c.count = 50000;
  const auto reqs = Generate(c);
  const double total_ms = SimToMs(reqs.back().arrival);
  EXPECT_NEAR(total_ms / static_cast<double>(reqs.size()), 25.0, 1.5);
}

TEST(SyntheticGeneratorTest, WriteFraction) {
  WorkloadConfig c = BaseConfig();
  c.write_fraction = 0.25;
  c.count = 20000;
  const auto reqs = Generate(c);
  uint64_t writes = 0;
  for (const Request& r : reqs) writes += r.is_write;
  EXPECT_NEAR(static_cast<double>(writes) / static_cast<double>(reqs.size()),
              0.25, 0.02);
}

TEST(SyntheticGeneratorTest, ZeroPriorityDims) {
  WorkloadConfig c = BaseConfig();
  c.priority_dims = 0;
  const auto reqs = Generate(c);
  for (const Request& r : reqs) EXPECT_TRUE(r.priorities.empty());
}

TEST(SyntheticGeneratorTest, ZipfCylindersSkewLow) {
  WorkloadConfig c = BaseConfig();
  c.cylinder_distribution = CylinderDistribution::kZipf;
  c.zipf_theta = 0.9;
  c.count = 20000;
  const auto reqs = Generate(c);
  uint64_t low = 0;
  for (const Request& r : reqs) {
    EXPECT_LT(r.cylinder, 3832u);
    low += r.cylinder < 383;  // first 10% of the disk
  }
  EXPECT_GT(static_cast<double>(low) / static_cast<double>(reqs.size()), 0.4);
}

TEST(SyntheticGeneratorTest, ZipfThetaValidated) {
  WorkloadConfig c = BaseConfig();
  c.cylinder_distribution = CylinderDistribution::kZipf;
  c.zipf_theta = 1.5;
  EXPECT_FALSE(c.Validate().ok());
  c.zipf_theta = 0.0;
  EXPECT_FALSE(c.Validate().ok());
  c.zipf_theta = 0.5;
  EXPECT_TRUE(c.Validate().ok());
}

TEST(RequestTest, DebugStringContainsFields) {
  Request r;
  r.id = 3;
  r.cylinder = 77;
  r.priorities = PriorityVec{1, 0, 4};
  const std::string s = r.DebugString();
  EXPECT_NE(s.find("id=3"), std::string::npos);
  EXPECT_NE(s.find("cyl=77"), std::string::npos);
  EXPECT_NE(s.find("[1,0,4]"), std::string::npos);
}

TEST(RequestTest, PriorityAccessorPadsWithZero) {
  Request r;
  r.priorities = PriorityVec{5};
  EXPECT_EQ(r.priority(0), 5u);
  EXPECT_EQ(r.priority(1), 0u);
  EXPECT_EQ(r.priority(11), 0u);
}

}  // namespace
}  // namespace csfc
