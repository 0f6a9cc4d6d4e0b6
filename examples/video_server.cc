// Video-on-demand server example: a PanaViss-style RAID-5 array (Table 1:
// five disks, 4 data + 1 parity) streaming MPEG-1 to prioritized viewers.
// Streams are placed through the RAID-5 layout so consecutive blocks of a
// stream rotate across member disks; each disk runs its own Cascaded-SFC
// scheduler; the example reports per-priority deadline losses per disk and
// for the whole array.
//
//   $ ./video_server [num_users]

#include <cstdio>
#include <vector>

#include "common/parse.h"
#include "core/presets.h"
#include "disk/raid.h"
#include "exp/runner.h"
#include "workload/mpeg.h"
#include "workload/trace.h"

using namespace csfc;

int main(int argc, char** argv) {
  uint32_t users = 40;
  if (argc > 2 || (argc == 2 && !ParseToken(argv[1], &users))) {
    std::fprintf(stderr, "usage: video_server [num_users]\n");
    return 2;
  }

  // The array: 5 disks, 64 KB blocks, 10 blocks per cylinder per disk.
  const DiskParams disk = DiskParams::PanaVissDisk();
  auto layout = Raid5Layout::Create(5, uint64_t{10} * disk.cylinders, disk);
  if (!layout.ok()) {
    std::fprintf(stderr, "%s\n", layout.status().ToString().c_str());
    return 1;
  }
  std::printf("RAID-5 array: %u disks, %llu data blocks (%.1f GB)\n\n",
              layout->num_disks(),
              static_cast<unsigned long long>(layout->data_blocks()),
              static_cast<double>(layout->data_blocks()) * 64 / (1024.0 * 1024.0));

  // Generate the user streams once, then split requests across member
  // disks through the RAID layout: stream `s` block `k` lives at logical
  // block (s * stride + k).
  MpegWorkloadConfig mc;
  mc.seed = 7;
  mc.num_users = users;
  mc.user_phase_spread_ms = mc.PeriodMs() - mc.batch_jitter_ms;
  mc.duration_ms = 20000.0;
  auto gen = MpegStreamGenerator::Create(mc);
  if (!gen.ok()) {
    std::fprintf(stderr, "%s\n", gen.status().ToString().c_str());
    return 1;
  }
  const auto all = DrainGenerator(**gen);

  std::vector<std::vector<Request>> per_disk(layout->num_disks());
  std::vector<uint64_t> stream_block(users, 0);
  const uint64_t stride = layout->data_blocks() / users;
  for (Request r : all) {
    const uint64_t lbn =
        (r.stream * stride + stream_block[r.stream]++) % layout->data_blocks();
    const RaidLocation loc = layout->Map(lbn);
    r.cylinder = loc.cylinder;
    per_disk[loc.disk].push_back(r);
    if (r.is_write) {
      // RAID-5 small write: the parity block is written too.
      const RaidLocation par = layout->ParityOf(lbn);
      Request parity = r;
      parity.cylinder = par.cylinder;
      per_disk[par.disk].push_back(parity);
    }
  }

  SimulatorConfig sc;
  sc.metrics.dims = 1;
  sc.metrics.levels = 8;
  const CascadedConfig sched_config = PresetStage2Curve(
      "hilbert", /*deadline_major=*/false, 3, 0.05, 150.0);

  std::printf("%-6s %-10s %-10s %-10s %-12s\n", "disk", "requests", "misses",
              "miss %", "wcost(11:1)");
  uint64_t total_reqs = 0;
  uint64_t total_misses = 0;
  double total_cost = 0.0;
  for (uint32_t d = 0; d < layout->num_disks(); ++d) {
    auto m = RunSchedulerOnTrace(sc, per_disk[d], [&] {
      auto s = CascadedSfcScheduler::Create(sched_config);
      return std::move(*s);
    });
    if (!m.ok()) {
      std::fprintf(stderr, "%s\n", m.status().ToString().c_str());
      return 1;
    }
    total_reqs += m->completions;
    total_misses += m->deadline_misses;
    total_cost += m->WeightedLossCost();
    std::printf("%-6u %-10llu %-10llu %-10.2f %-12.3f\n", d,
                static_cast<unsigned long long>(m->completions),
                static_cast<unsigned long long>(m->deadline_misses),
                100.0 * static_cast<double>(m->deadline_misses) /
                    static_cast<double>(m->deadline_total ? m->deadline_total
                                                          : 1),
                m->WeightedLossCost());
  }
  std::printf("\narray total: %llu requests, %llu misses (%.2f%%), "
              "aggregate weighted cost %.3f\n",
              static_cast<unsigned long long>(total_reqs),
              static_cast<unsigned long long>(total_misses),
              100.0 * static_cast<double>(total_misses) /
                  static_cast<double>(total_reqs ? total_reqs : 1),
              total_cost);
  std::printf("\n(writes hit two member disks - data + rotating parity - "
              "which is why per-disk request counts exceed users/disks.)\n");
  return 0;
}
