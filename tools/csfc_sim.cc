// csfc_sim: command-line front end to the simulator. Generates (or
// replays) a workload, runs it through any registered scheduler, and
// prints the full metric set — the quickest way to explore the design
// space without writing C++.
//
// A generated workload streams straight from its generator into the
// simulator (RunScheduler in exp/runner.h), so memory stays flat in the
// request count. The trace is materialized only when it is read
// (--trace-in) or written (--trace-out); the run then replays that one
// vector in place.
//
// Flags come from the shared table in cli_flags.h (same workload and
// scheduler flags as csfc_serve); run `csfc_sim --help` for the full
// generated list. Configuration flows through ServerConfig, the same
// surface the service front-end builds from, so an offline replay and a
// service run of the same flags cannot drift apart.
//
// --trace-jsonl streams every lifecycle event of the run to FILE in the
// JSONL schema of DESIGN.md section 10 (inspect with trace_inspect).
// --json replaces the human-readable summary with RunMetrics::ToJson();
// stdout then holds that document alone (file notices go to stderr).
//
// Examples:
//   csfc_sim --sched=edf --count=5000 --interarrival=20
//   csfc_sim --sched=csfc --sfc1=diagonal --f=1 --r=3 --window=0.05
//   csfc_sim --sched=csfc --count=200000 --interarrival=2
//   csfc_sim --trace-in=load.trace --sched=scan-rt
//   csfc_sim --sched=csfc --trace-jsonl=run.jsonl && trace_inspect run.jsonl

#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "exp/runner.h"
#include "obs/export.h"

using namespace csfc;

int main(int argc, char** argv) {
  tools::SimFlags args;
  args.workload.cfg.count = 5000;
  tools::FlagSet flags("csfc_sim");
  tools::AddSimFlags(flags, &args);
  if (int rc = flags.Parse(argc, argv); rc != 0) return rc;
  const tools::WorkloadFlags& wf = args.workload;
  const tools::SchedulerFlags& sf = args.sched;
  const std::string& trace_in = args.trace_in;
  const std::string& trace_out = args.trace_out;
  const std::string& trace_jsonl = args.trace_jsonl;
  const bool json = args.json;

  if (args.list) {
    std::printf("schedulers:");
    for (auto n : AllSchedulerNames()) std::printf(" %s", std::string(n).c_str());
    std::printf("\n");
    return 0;
  }

  ServerConfig config;
  if (Status s = tools::ApplySchedulerFlags(sf, wf, &config); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }

  // Workload: a generator streamed into the run, or a trace replayed.
  // `trace` is declared first so it outlives the replay that borrows it.
  std::vector<Request> trace;
  std::unique_ptr<RequestGenerator> arrivals;
  if (!trace_in.empty()) {
    auto loaded = LoadTrace(trace_in);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    trace = std::move(*loaded);
    // A replayed request must name a cylinder of the modeled disk: the seek
    // model would price any other one as a stroke past the edge.
    const uint32_t cylinders = config.sim.disk.cylinders;
    for (const Request& r : trace) {
      if (r.cylinder < cylinders) continue;
      const Status s = Status::InvalidArgument(
          "trace request id " + std::to_string(r.id) + ": cylinder " +
          std::to_string(r.cylinder) + " is not on the " +
          std::to_string(cylinders) + "-cylinder disk");
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  } else {
    auto gen = tools::MakeWorkloadGenerator(wf);
    if (!gen.ok()) {
      std::fprintf(stderr, "%s\n", gen.status().ToString().c_str());
      return 1;
    }
    arrivals = std::move(*gen);
    if (!trace_out.empty()) trace = DrainGenerator(*arrivals);
  }
  if (!trace_out.empty()) {
    if (Status s = SaveTrace(trace_out, trace); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "trace written: %s (%zu requests)\n",
                 trace_out.c_str(), trace.size());
  }
  if (!trace_in.empty() || !trace_out.empty()) {
    arrivals = std::make_unique<TraceReplayGenerator>(trace);
  }

  // Optional lifecycle trace, streamed to disk as the run progresses.
  std::optional<obs::FileWriter> trace_file;
  std::optional<obs::JsonlSink> trace_sink;
  if (!trace_jsonl.empty()) {
    auto opened = obs::FileWriter::Open(trace_jsonl);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    trace_file.emplace(std::move(*opened));
    trace_sink.emplace(*trace_file);
    config.WithTraceSink(&*trace_sink);
  }

  if (Status s = config.Validate(); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  auto disk = DiskModel::Create(config.sim.disk);
  if (!disk.ok()) {
    std::fprintf(stderr, "%s\n", disk.status().ToString().c_str());
    return 1;
  }
  auto factory = config.MakeFactory(*disk);
  if (!factory.ok()) {
    std::fprintf(stderr, "%s\n", factory.status().ToString().c_str());
    return 1;
  }

  auto metrics = RunScheduler(config.sim, *arrivals, *factory);
  if (!metrics.ok()) {
    std::fprintf(stderr, "%s\n", metrics.status().ToString().c_str());
    return 1;
  }
  const RunMetrics& m = *metrics;

  if (trace_sink) {
    if (!trace_sink->status().ok()) {
      std::fprintf(stderr, "trace write failed: %s\n",
                   trace_sink->status().ToString().c_str());
      return 1;
    }
    if (Status s = trace_file->Close(); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "trace written: %s (%llu events)\n",
                 trace_jsonl.c_str(),
                 static_cast<unsigned long long>(trace_sink->events_written()));
  }

  if (json) {
    std::printf("%s\n", m.ToJson().c_str());
    return 0;
  }
  std::printf("scheduler:        %s\n", config.scheduler.c_str());
  std::printf("requests:         %llu\n",
              static_cast<unsigned long long>(m.completions));
  std::printf("makespan:         %.1f ms\n", SimToMs(m.makespan));
  std::printf("mean response:    %.2f ms (max %.2f)\n", m.response_ms.mean(),
              m.response_ms.max());
  std::printf("total seek:       %.1f ms (mean %.3f ms/request)\n",
              m.total_seek_ms, m.mean_seek_ms());
  if (m.deadline_total > 0) {
    std::printf("deadline misses:  %llu / %llu (%.2f%%)\n",
                static_cast<unsigned long long>(m.deadline_misses),
                static_cast<unsigned long long>(m.deadline_total),
                100.0 * static_cast<double>(m.deadline_misses) /
                    static_cast<double>(m.deadline_total));
  }
  if (!m.inversions_per_dim.empty()) {
    std::printf("priority inversions:");
    for (size_t k = 0; k < m.inversions_per_dim.size(); ++k) {
      std::printf(" d%zu=%llu", k,
                  static_cast<unsigned long long>(m.inversions_per_dim[k]));
    }
    std::printf(" (total %llu, stddev %.1f)\n",
                static_cast<unsigned long long>(m.total_inversions()),
                m.inversion_stddev());
  }
  return 0;
}
