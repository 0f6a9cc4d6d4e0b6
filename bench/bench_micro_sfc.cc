// Microbenchmarks (google-benchmark): curve mapping throughput, the full
// three-stage encapsulation, and dispatcher queue operations. These bound
// the per-request scheduling overhead the Cascaded-SFC design adds over a
// plain priority queue.

#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "core/cascaded_scheduler.h"
#include "core/presets.h"
#include "sched/registry.h"
#include "sfc/registry.h"

namespace csfc {
namespace {

void BM_CurveIndex(benchmark::State& state, const std::string& name,
                   uint32_t dims, uint32_t bits) {
  auto curve = MakeCurve(name, GridSpec{.dims = dims, .bits = bits});
  if (!curve.ok()) {
    state.SkipWithError("curve creation failed");
    return;
  }
  std::vector<uint32_t> p(dims);
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  const uint32_t mask = (uint32_t{1} << bits) - 1;
  for (auto _ : state) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    for (uint32_t i = 0; i < dims; ++i) {
      p[i] = static_cast<uint32_t>(x >> (8 * i)) & mask;
    }
    benchmark::DoNotOptimize(
        (*curve)->Index(std::span<const uint32_t>(p.data(), dims)));
  }
}

void BM_CurvePoint(benchmark::State& state, const std::string& name,
                   uint32_t dims, uint32_t bits) {
  auto curve = MakeCurve(name, GridSpec{.dims = dims, .bits = bits});
  if (!curve.ok()) {
    state.SkipWithError("curve creation failed");
    return;
  }
  std::vector<uint32_t> p(dims);
  uint64_t x = 1;
  const uint64_t cells = (*curve)->num_cells();
  for (auto _ : state) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    (*curve)->Point(x % cells, std::span<uint32_t>(p.data(), dims));
    benchmark::DoNotOptimize(p.data());
  }
}

// The forward lookup table Encapsulator::Create builds per stage curve.
// `point_walk` times the base class's one-Point()-per-cell walk, which
// curves without their own BuildIndexTable use anyway.
void BM_BuildIndexTable(benchmark::State& state, const std::string& name,
                        uint32_t dims, uint32_t bits, bool point_walk) {
  auto curve = MakeCurve(name, GridSpec{.dims = dims, .bits = bits});
  if (!curve.ok()) {
    state.SkipWithError("curve creation failed");
    return;
  }
  const SpaceFillingCurve& c = **curve;
  for (auto _ : state) {
    std::vector<uint64_t> table = point_walk
                                      ? c.SpaceFillingCurve::BuildIndexTable()
                                      : c.BuildIndexTable();
    benchmark::DoNotOptimize(table.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(c.num_cells()));
}

void BM_Characterize(benchmark::State& state) {
  auto sched = CascadedSfcScheduler::Create(
      PresetFull("hilbert", 3, 4, 1.0, 3, 3832, 0.05, 700.0));
  if (!sched.ok()) {
    state.SkipWithError("scheduler creation failed");
    return;
  }
  const Encapsulator& e = (*sched)->encapsulator();
  Request r;
  r.priorities = PriorityVec{3, 7, 12};
  r.deadline = MsToSim(350);
  r.cylinder = 1234;
  DispatchContext ctx{.now = MsToSim(10), .head = 2000};
  for (auto _ : state) {
    benchmark::DoNotOptimize(e.Characterize(r, ctx));
    ++r.cylinder;
  }
}

void BM_EnqueueDispatch(benchmark::State& state) {
  SchedulerRegistryContext rctx;
  rctx.cascaded = PresetFull("hilbert", 3, 4, 1.0, 3, 3832, 0.05, 700.0);
  auto factory = MakeSchedulerFactory("csfc", rctx);
  if (!factory.ok()) {
    state.SkipWithError("scheduler creation failed");
    return;
  }
  SchedulerPtr sched = (*factory)();
  DispatchContext ctx{.now = 0, .head = 0};
  Request r;
  r.priorities = PriorityVec{1, 2, 3};
  r.deadline = MsToSim(600);
  uint64_t x = 7;
  for (auto _ : state) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    r.cylinder = static_cast<Cylinder>((x >> 33) % 3832);
    sched->Enqueue(r, ctx);
    benchmark::DoNotOptimize(sched->Dispatch(ctx));
  }
}

void RegisterAll() {
  for (const char* name : {"scan", "cscan", "peano", "gray", "hilbert",
                           "spiral", "diagonal"}) {
    benchmark::RegisterBenchmark(
        (std::string("BM_CurveIndex/") + name + "/3d4b").c_str(),
        [name](benchmark::State& s) { BM_CurveIndex(s, name, 3, 4); });
    benchmark::RegisterBenchmark(
        (std::string("BM_CurveIndex/") + name + "/2d16b").c_str(),
        [name](benchmark::State& s) { BM_CurveIndex(s, name, 2, 16); });
    benchmark::RegisterBenchmark(
        (std::string("BM_CurvePoint/") + name + "/3d4b").c_str(),
        [name](benchmark::State& s) { BM_CurvePoint(s, name, 3, 4); });
    // The default SFC1 grid (3 dims x 4 bits) and a 2-D one of 2^16 cells.
    for (const auto& shape : {std::pair{3u, 4u}, std::pair{2u, 8u}}) {
      // Named locals: clang before 16 cannot capture structured bindings.
      const uint32_t dims = shape.first;
      const uint32_t bits = shape.second;
      const std::string grid =
          "/" + std::to_string(dims) + "d" + std::to_string(bits) + "b";
      benchmark::RegisterBenchmark(
          ("BM_BuildIndexTable/" + std::string(name) + grid).c_str(),
          [name, dims, bits](benchmark::State& s) {
            BM_BuildIndexTable(s, name, dims, bits, /*point_walk=*/false);
          });
      benchmark::RegisterBenchmark(
          ("BM_BuildIndexTable/" + std::string(name) + grid + "/point_walk")
              .c_str(),
          [name, dims, bits](benchmark::State& s) {
            BM_BuildIndexTable(s, name, dims, bits, /*point_walk=*/true);
          });
    }
  }
  benchmark::RegisterBenchmark("BM_Characterize", BM_Characterize);
  benchmark::RegisterBenchmark("BM_EnqueueDispatch", BM_EnqueueDispatch);
}

}  // namespace
}  // namespace csfc

int main(int argc, char** argv) {
  csfc::RegisterAll();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
