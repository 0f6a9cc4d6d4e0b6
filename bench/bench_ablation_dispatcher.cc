// Ablation: the dispatcher design space of Section 3 — the three queue
// disciplines, the SP policy on/off, and the ER expansion factor — on one
// fixed workload. Shows the trade-off the conditionally-preemptive
// scheduler navigates: fully-preemptive minimizes inversion but spikes the
// maximum response time (starvation), non-preemptive the reverse.

#include <cstdio>

#include "bench_util.h"

namespace csfc {
namespace {

struct Variant {
  const char* label;
  QueueDiscipline discipline;
  double window;
  bool sp;
  bool er;
  double e;
};

SchedulerFactory FactoryFor(const Variant& v) {
  CascadedConfig cfg = PresetStage1Only("diagonal", 3, 4, v.window, v.sp);
  cfg.dispatcher.discipline = v.discipline;
  cfg.dispatcher.expand_reset = v.er;
  cfg.dispatcher.expansion_factor = v.e;
  return bench::CascadedFactory(cfg);
}

void Run() {
  WorkloadConfig wc;
  wc.seed = 42;
  wc.count = 4000;
  wc.mean_interarrival_ms = 12.0;
  wc.priority_dims = 3;
  wc.priority_levels = 16;
  wc.relaxed_deadlines = true;
  const TracePtr trace = ShareTrace(bench::MustGenerate(wc));

  SimulatorConfig sc;
  sc.service_model = ServiceModel::kTransferOnly;
  sc.metrics.dims = 3;
  sc.metrics.levels = 16;

  std::vector<Variant> variants;
  variants.push_back({"fully-preemptive", QueueDiscipline::kFullyPreemptive,
                      0, false, false, 2});
  variants.push_back({"non-preemptive", QueueDiscipline::kNonPreemptive, 0,
                      false, false, 2});
  for (double w : {0.02, 0.05, 0.10, 0.25}) {
    variants.push_back({"conditional",
                        QueueDiscipline::kConditionallyPreemptive, w, true,
                        false, 2});
  }
  variants.push_back({"conditional-noSP",
                      QueueDiscipline::kConditionallyPreemptive, 0.05, false,
                      false, 2});
  for (double e : {1.5, 2.0, 4.0}) {
    variants.push_back({"conditional+ER",
                        QueueDiscipline::kConditionallyPreemptive, 0.05, true,
                        true, e});
  }

  std::vector<RunPoint> points;
  for (const Variant& v : variants) {
    points.push_back({sc, trace, FactoryFor(v)});
  }
  const std::vector<RunMetrics> results = bench::MustRunAll(points);

  TablePrinter t({"discipline", "window", "SP", "ER(e)",
                  "inversions", "mean resp ms", "max resp ms",
                  "max resp lvl15"});
  for (size_t i = 0; i < variants.size(); ++i) {
    const Variant& v = variants[i];
    const RunMetrics& m = results[i];
    // The lowest level's max response is the starvation indicator the ER
    // policy bounds: urgent streams can push level-15 waits sky-high under
    // a fully-preemptive dispatcher.
    const double worst_level_max =
        m.response_per_level.empty() ? 0.0 : m.response_per_level.back().max();
    t.AddRow({v.label, FormatDouble(v.window, 2), v.sp ? "on" : "off",
              v.er ? FormatDouble(v.e, 1) : "off",
              std::to_string(m.total_inversions()),
              FormatDouble(m.response_ms.mean(), 1),
              FormatDouble(m.response_ms.max(), 1),
              FormatDouble(worst_level_max, 1)});
  }

  std::printf("== Ablation: dispatcher disciplines and policies ==\n\n");
  bench::Emit(t, "ablation_dispatcher");
}

}  // namespace
}  // namespace csfc

int main() {
  csfc::Run();
  return 0;
}
