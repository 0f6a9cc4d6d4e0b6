#include "disk/disk_model.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>

namespace csfc {
namespace {

DiskModel MakeDefault() {
  auto m = DiskModel::Create(DiskParams::PanaVissDisk());
  EXPECT_TRUE(m.ok());
  return *m;
}

TEST(SeekModelTest, ZeroDistanceIsFree) {
  SeekModel s;
  EXPECT_DOUBLE_EQ(s.SeekMs(0), 0.0);
}

TEST(SeekModelTest, SingleCylinderSeek) {
  SeekModel s;
  EXPECT_NEAR(s.SeekMs(1), 2.5, 0.01);
}

TEST(SeekModelTest, ContinuousAtRegimeBoundary) {
  SeekModel s;
  const double below = s.SeekMs(s.cutoff - 1);
  const double at = s.SeekMs(s.cutoff);
  EXPECT_NEAR(below, at, 0.05);
}

TEST(SeekModelTest, MonotoneNondecreasing) {
  SeekModel s;
  double prev = 0.0;
  for (uint32_t d = 1; d < 3832; d += 7) {
    const double v = s.SeekMs(d);
    EXPECT_GE(v, prev) << "at distance " << d;
    prev = v;
  }
}

TEST(DiskModelTest, CalibrationMatchesTable1) {
  // Table 1: average seek 8.5 ms, max seek 18 ms.
  DiskModel m = MakeDefault();
  EXPECT_NEAR(m.MeanRandomSeekMs(), 8.5, 0.1);
  EXPECT_NEAR(m.MaxSeekMs(), 18.0, 0.1);
}

TEST(DiskModelTest, RotationAt7200Rpm) {
  DiskModel m = MakeDefault();
  EXPECT_NEAR(m.RotationMs(), 8.333, 0.01);
  EXPECT_NEAR(m.AvgRotationalLatencyMs(), 4.167, 0.01);
}

TEST(DiskModelTest, SampledLatencyWithinRotation) {
  DiskModel m = MakeDefault();
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double l = m.SampleRotationalLatencyMs(rng);
    EXPECT_GE(l, 0.0);
    EXPECT_LT(l, m.RotationMs());
  }
}

TEST(DiskModelTest, SeekTimeIsSymmetric) {
  DiskModel m = MakeDefault();
  EXPECT_DOUBLE_EQ(m.SeekTimeMs(100, 900), m.SeekTimeMs(900, 100));
}

TEST(DiskModelTest, SixteenZonesCoverAllCylinders) {
  DiskModel m = MakeDefault();
  EXPECT_EQ(m.ZoneOf(0), 0u);
  EXPECT_EQ(m.ZoneOf(3831), 15u);
  uint32_t prev = 0;
  for (Cylinder c = 0; c < 3832; ++c) {
    const uint32_t z = m.ZoneOf(c);
    EXPECT_LT(z, 16u);
    EXPECT_GE(z, prev);  // zones are contiguous outward-in
    prev = z;
  }
}

TEST(DiskModelTest, OuterZoneIsFaster) {
  DiskModel m = MakeDefault();
  EXPECT_DOUBLE_EQ(m.ZoneRateMBps(0), 7.5);
  EXPECT_DOUBLE_EQ(m.ZoneRateMBps(15), 4.5);
  EXPECT_GT(m.TransferTimeMs(3831, 64 * 1024),
            m.TransferTimeMs(0, 64 * 1024));
}

TEST(DiskModelTest, TransferTimeOf64KBlock) {
  DiskModel m = MakeDefault();
  // 64 KB at 7.5 MB/s = 8.74 ms.
  EXPECT_NEAR(m.TransferTimeMs(0, 64 * 1024), 65536.0 / 7500.0, 0.01);
}

TEST(DiskModelTest, ServiceTimeComposes) {
  DiskModel m = MakeDefault();
  const double expected = m.SeekTimeMs(0, 1000) + m.AvgRotationalLatencyMs() +
                          m.TransferTimeMs(1000, 64 * 1024);
  EXPECT_DOUBLE_EQ(m.ServiceTimeMs(0, 1000, 64 * 1024), expected);
}

TEST(DiskModelTest, ServiceTimeWithRngStaysInBounds) {
  DiskModel m = MakeDefault();
  Rng rng(1);
  const double base =
      m.SeekTimeMs(0, 1000) + m.TransferTimeMs(1000, 64 * 1024);
  for (int i = 0; i < 100; ++i) {
    const double t = m.ServiceTimeMs(0, 1000, 64 * 1024, &rng);
    EXPECT_GE(t, base);
    EXPECT_LT(t, base + m.RotationMs());
  }
}

TEST(DiskParamsTest, ValidationCatchesBadConfigs) {
  DiskParams p;
  p.cylinders = 1;
  EXPECT_FALSE(p.Validate().ok());
  p = DiskParams();
  p.zones = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = DiskParams();
  p.zones = 10000;
  EXPECT_FALSE(p.Validate().ok());
  p = DiskParams();
  p.rpm = 0;
  EXPECT_FALSE(p.Validate().ok());
  p = DiskParams();
  p.inner_rate_mbps = 9.0;  // faster than outer
  EXPECT_FALSE(p.Validate().ok());
  p = DiskParams();
  p.block_bytes = 0;
  EXPECT_FALSE(p.Validate().ok());
  EXPECT_TRUE(DiskParams().Validate().ok());
}

TEST(DiskParamsTest, ZonesAreBounded) {
  // The bound keeps DiskModel's per-zone rate table small, even on a disk
  // with enough cylinders for more zones.
  DiskParams p;
  p.cylinders = 1000000;
  p.zones = DiskParams::kMaxZones;
  EXPECT_TRUE(p.Validate().ok());
  p.zones = DiskParams::kMaxZones + 1;
  EXPECT_FALSE(p.Validate().ok());
  EXPECT_FALSE(DiskModel::Create(p).ok());
}

/// The per-call expressions DiskModel evaluated before it precomputed its
/// constants: zone of the cylinder, that zone's MB/s interpolated between
/// the outer and inner rate, converted to bytes/ms.
double FormulaTransferMs(const DiskParams& p, Cylinder cyl, uint64_t bytes) {
  const uint64_t z = uint64_t{cyl} * p.zones / p.cylinders;
  const uint32_t zone = static_cast<uint32_t>(z >= p.zones ? p.zones - 1 : z);
  double rate_mbps = p.outer_rate_mbps;
  if (p.zones != 1) {
    const double frac =
        static_cast<double>(zone) / static_cast<double>(p.zones - 1);
    rate_mbps =
        p.outer_rate_mbps + frac * (p.inner_rate_mbps - p.outer_rate_mbps);
  }
  return static_cast<double>(bytes) / (rate_mbps * 1e6 / 1000.0);
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

TEST(DiskModelTest, PrecomputedConstantsMatchTheFormulaBitForBit) {
  DiskParams one_zone;
  one_zone.zones = 1;
  DiskParams zone_per_cylinder;
  zone_per_cylinder.zones = zone_per_cylinder.cylinders;  // 3,832
  for (const DiskParams& p :
       {DiskParams::PanaVissDisk(), one_zone, zone_per_cylinder}) {
    SCOPED_TRACE(p.zones);
    auto m = DiskModel::Create(p);
    ASSERT_TRUE(m.ok());
    const double rotation = 60.0 * 1000.0 / static_cast<double>(p.rpm);
    const double avg_latency = rotation / 2.0;
    ASSERT_EQ(Bits(m->RotationMs()), Bits(rotation));
    ASSERT_EQ(Bits(m->AvgRotationalLatencyMs()), Bits(avg_latency));
    const Cylinder from = p.cylinders / 3;
    for (Cylinder cyl = 0; cyl < p.cylinders; ++cyl) {
      for (const uint64_t bytes :
           {uint64_t{0}, uint64_t{1}, uint64_t{64 * 1024},
            std::numeric_limits<uint64_t>::max()}) {
        const double transfer = FormulaTransferMs(p, cyl, bytes);
        ASSERT_EQ(Bits(m->TransferTimeMs(cyl, bytes)), Bits(transfer))
            << "cylinder " << cyl << ", " << bytes << " bytes";
        const uint32_t distance = from > cyl ? from - cyl : cyl - from;
        const double service =
            p.seek.SeekMs(distance) + avg_latency + transfer;
        ASSERT_EQ(Bits(m->ServiceTimeMs(from, cyl, bytes)), Bits(service))
            << "cylinder " << cyl << ", " << bytes << " bytes";
      }
    }
  }
}

TEST(DiskModelTest, CreateRejectsInvalidParams) {
  DiskParams p;
  p.rpm = 0;
  auto m = DiskModel::Create(p);
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kInvalidArgument);
}

TEST(DiskModelTest, SingleZoneDiskUsesOuterRate) {
  DiskParams p;
  p.zones = 1;
  auto m = DiskModel::Create(p);
  ASSERT_TRUE(m.ok());
  EXPECT_DOUBLE_EQ(m->ZoneRateMBps(0), p.outer_rate_mbps);
}

}  // namespace
}  // namespace csfc
