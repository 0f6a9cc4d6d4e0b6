// csfc_curves: inspect the space-filling-curve library from the command
// line — draw a curve's traversal on a small 2-D grid, or print the
// locality / per-dimension-bias analysis for any grid.
//
// Usage:
//   csfc_curves draw <curve> [bits]          # ASCII traversal, 2-D
//   csfc_curves analyze <curve> <dims> <bits>
//   csfc_curves list

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/parse.h"
#include "sfc/locality.h"
#include "sfc/registry.h"

using namespace csfc;

namespace {

int Draw(const std::string& name, uint32_t bits) {
  GridSpec spec{.dims = 2, .bits = bits};
  auto curve = MakeCurve(name, spec);
  if (!curve.ok()) {
    std::fprintf(stderr, "%s\n", curve.status().ToString().c_str());
    return 1;
  }
  const uint64_t side = spec.side();
  std::vector<uint64_t> order(side * side);
  std::vector<uint32_t> p(2);
  for (uint64_t i = 0; i < spec.num_cells(); ++i) {
    (*curve)->Point(i, std::span<uint32_t>(p.data(), 2));
    order[p[0] * side + p[1]] = i;
  }
  std::printf("%s over a %llu x %llu grid (cell label = curve position):\n\n",
              name.c_str(), static_cast<unsigned long long>(side),
              static_cast<unsigned long long>(side));
  for (uint64_t x0 = 0; x0 < side; ++x0) {
    for (uint64_t x1 = 0; x1 < side; ++x1) {
      std::printf("%4llu",
                  static_cast<unsigned long long>(order[x0 * side + x1]));
    }
    std::printf("\n");
  }
  return 0;
}

int Analyze(const std::string& name, uint32_t dims, uint32_t bits) {
  auto curve = MakeCurve(name, GridSpec{.dims = dims, .bits = bits});
  if (!curve.ok()) {
    std::fprintf(stderr, "%s\n", curve.status().ToString().c_str());
    return 1;
  }
  auto stats = AnalyzeCurve(**curve);
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::printf("%s, %u dims x %u bits (%llu cells)\n", name.c_str(), dims,
              bits, static_cast<unsigned long long>((*curve)->num_cells()));
  std::printf("  contiguous steps: %llu\n",
              static_cast<unsigned long long>(stats->contiguous_steps));
  std::printf("  jumps:            %llu\n",
              static_cast<unsigned long long>(stats->jumps));
  std::printf("  mean step L1:     %.3f (max %llu)\n", stats->mean_step_l1,
              static_cast<unsigned long long>(stats->max_step_l1));
  std::printf("  per-dimension inversion rate (0.5 = no order carried):\n");
  for (size_t k = 0; k < stats->dim_inversion_rate.size(); ++k) {
    std::printf("    d%zu: %.3f\n", k, stats->dim_inversion_rate[k]);
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: csfc_curves draw <curve> [bits]\n"
               "       csfc_curves analyze <curve> <dims> <bits>\n"
               "       csfc_curves list\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  if (std::strcmp(argv[1], "list") == 0) {
    std::printf("curves:");
    for (auto n : AllCurveNames()) std::printf(" %s", std::string(n).c_str());
    std::printf("\n");
    return 0;
  }
  if (std::strcmp(argv[1], "draw") == 0 && (argc == 3 || argc == 4)) {
    uint32_t bits = 3;
    if (argc == 4 && !ParseToken(argv[3], &bits)) return Usage();
    return Draw(argv[2], bits);
  }
  if (std::strcmp(argv[1], "analyze") == 0 && argc == 5) {
    uint32_t dims = 0, bits = 0;
    if (!ParseToken(argv[3], &dims) || !ParseToken(argv[4], &bits)) {
      return Usage();
    }
    return Analyze(argv[2], dims, bits);
  }
  return Usage();
}
