// csfc_serve: the real-time service front-end CLI (DESIGN.md section 12).
//
// Generates a workload with the same shared flags as csfc_sim, then
// offers it to a svc::ServiceServer — admission gates, bounded MPSC
// ingest ring, dispatcher pump over any registered scheduler — and
// reports the enqueue-to-dispatch latency tail (p50/p99/p999) plus the
// admission accounting.
//
// Modes:
//   --virtual         deterministic virtual-time run on the main thread,
//                     streamed from the generator (memory stays flat in
//                     --count); dispatch order is bit-identical to csfc_sim
//                     fed the same admitted set, and traces are stable
//                     run-to-run.
//   (default)         wall-clock mode: --producers threads offer the
//                     workload open-loop (--pace scales the generated
//                     arrival times; 0 = offer as fast as possible, the
//                     soak configuration), the pump serves with
//                     --time-scale pacing.
//
// Observability:
//   --trace-jsonl=F   stream every lifecycle event (ingest/admit/reject/
//                     enqueue/dispatch/drain/completion) as JSONL. Events
//                     in wall-clock mode are stamped on their producing
//                     thread, so timestamps may interleave within a
//                     millisecond; --virtual traces are strictly ordered
//                     (what trace_inspect expects).
//   --windows=MS      windowed SLO metrics (obs::SloMetrics): per-window
//                     offered/admitted/shed and wait-latency percentiles,
//                     exported as CSV to --windows-out (default stdout).
//   --json            machine-readable run summary on stdout.
//
// Examples:
//   csfc_serve --virtual --count=20000 --interarrival=2 --slo=50
//   csfc_serve --producers=8 --count=100000 --stream-rate=200 --windows=100
//   csfc_serve --virtual --trace-jsonl=run.jsonl && trace_inspect run.jsonl

#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cli_flags.h"
#include "obs/export.h"
#include "obs/slo.h"

using namespace csfc;

namespace {

/// Forwards each event to every registered sink. The server serializes
/// emissions through its internal lock, so the fan-out itself needs none.
struct FanoutSink final : obs::EventSink {
  std::vector<obs::EventSink*> sinks;
  void OnEvent(const obs::TraceEvent& event) override {
    for (obs::EventSink* s : sinks) s->OnEvent(event);
  }
};

/// Writes straight to stdout, so a long window series streams out instead
/// of being held in memory first.
struct StdoutWriter final : obs::Writer {
  Status Append(std::string_view data) override {
    if (std::fwrite(data.data(), 1, data.size(), stdout) != data.size()) {
      return Status::IoError("write to stdout failed");
    }
    return Status::OK();
  }
};

struct ServeArgs {
  size_t producers = 4;
  bool run_virtual = false;
  double pace = 0.0;  ///< wall-clock seconds per generated arrival second
  double time_scale = 0.0;
  double slo_ms = 0.0;
  double stream_rate = 0.0;
  double stream_burst = 0.0;
  uint32_t max_streams = 64;
  size_t ring = 1024;
  size_t drain_batch = 64;
  double windows_ms = 0.0;
  std::string windows_out;
  std::string trace_jsonl;
  bool json = false;
  bool list = false;
};

void AddServeFlags(tools::FlagSet& flags, ServeArgs* a) {
  flags.AddBool("virtual", "deterministic virtual-time run", &a->run_virtual);
  flags.AddSize("producers", "producer threads (wall-clock mode)",
                &a->producers);
  flags.AddDouble("pace",
                  "arrival pacing: wall seconds per workload second (0 = "
                  "offer as fast as possible)",
                  &a->pace);
  flags.AddDouble("time-scale",
                  "service pacing: wall fraction of modeled service time "
                  "(0 = no pacing)",
                  &a->time_scale);
  flags.AddDouble("slo", "admission wait SLO in ms (0 = no load gate)",
                  &a->slo_ms);
  flags.AddDouble("stream-rate",
                  "per-stream token rate in req/s (0 = no rate gate)",
                  &a->stream_rate);
  flags.AddDouble("stream-burst", "token bucket depth (0 = derive from rate)",
                  &a->stream_burst);
  flags.AddUint32("max-streams", "token bucket count", &a->max_streams);
  flags.AddSize("ring", "ingest ring capacity (rounded to power of two)",
                &a->ring);
  flags.AddSize("drain-batch",
                "requests per EnqueueBatch span; a pass drains at most one "
                "ring",
                &a->drain_batch);
  flags.AddDouble("windows", "SLO window width in ms (0 = off)",
                  &a->windows_ms);
  flags.AddString("windows-out", "FILE", "write the SLO window CSV here",
                  &a->windows_out);
  flags.AddString("trace-jsonl", "FILE",
                  "stream lifecycle events as JSONL (DESIGN.md section 10)",
                  &a->trace_jsonl);
  flags.AddBool("json", "print the run summary as JSON", &a->json);
  flags.AddBool("list", "list registered schedulers and exit", &a->list);
}

/// Offers this producer's round-robin share in arrival order, pacing
/// against the wall clock when `pace` > 0 (due = start + arrival * pace,
/// start = this thread's first observation of its own clock).
void ProducerLoop(svc::ServiceServer* server, const std::vector<Request>* all,
                  size_t producer, size_t stride, double pace) {
  MonotonicClock clock;
  const int64_t start_us = clock.NowUs();
  for (size_t i = producer; i < all->size(); i += stride) {
    Request r = (*all)[i];
    if (pace > 0.0) {
      const int64_t due_us =
          start_us + static_cast<int64_t>(SimToMs(r.arrival) * 1000.0 * pace);
      const int64_t wait_us = due_us - clock.NowUs();
      if (wait_us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(wait_us));
      }
    }
    server->Offer(std::move(r));
  }
}

void PrintSummary(const svc::ServiceStats& stats, const std::string& sched,
                  bool run_virtual, bool json) {
  const auto& a = stats.admission;
  if (json) {
    std::printf(
        "{\"scheduler\":\"%s\",\"mode\":\"%s\",\"offered\":%llu,"
        "\"admitted\":%llu,\"rejected_rate\":%llu,\"rejected_load\":%llu,"
        "\"rejected_ring_full\":%llu,\"enqueued\":%llu,\"dispatched\":%llu,"
        "\"completions\":%llu,\"wait_ms\":{\"p50\":%.6f,\"p99\":%.6f,"
        "\"p999\":%.6f,\"max\":%.6f,\"mean\":%.6f}}\n",
        sched.c_str(), run_virtual ? "virtual" : "realtime",
        static_cast<unsigned long long>(a.offered),
        static_cast<unsigned long long>(a.admitted),
        static_cast<unsigned long long>(a.rejected_rate),
        static_cast<unsigned long long>(a.rejected_load),
        static_cast<unsigned long long>(a.rejected_ring_full),
        static_cast<unsigned long long>(stats.enqueued),
        static_cast<unsigned long long>(stats.dispatched),
        static_cast<unsigned long long>(stats.completions),
        stats.p50_wait_ms, stats.p99_wait_ms, stats.p999_wait_ms,
        stats.max_wait_ms, stats.mean_wait_ms);
    return;
  }
  std::printf("scheduler:        %s (%s mode)\n", sched.c_str(),
              run_virtual ? "virtual" : "realtime");
  std::printf("offered:          %llu\n",
              static_cast<unsigned long long>(a.offered));
  std::printf("admitted:         %llu\n",
              static_cast<unsigned long long>(a.admitted));
  std::printf("rejected:         %llu (rate %llu, load %llu, ring_full %llu)\n",
              static_cast<unsigned long long>(a.rejected()),
              static_cast<unsigned long long>(a.rejected_rate),
              static_cast<unsigned long long>(a.rejected_load),
              static_cast<unsigned long long>(a.rejected_ring_full));
  std::printf("served:           %llu enqueued, %llu dispatched, %llu done\n",
              static_cast<unsigned long long>(stats.enqueued),
              static_cast<unsigned long long>(stats.dispatched),
              static_cast<unsigned long long>(stats.completions));
  std::printf("wait latency:     p50 %.3f ms  p99 %.3f ms  p999 %.3f ms"
              "  max %.3f ms  mean %.3f ms\n",
              stats.p50_wait_ms, stats.p99_wait_ms, stats.p999_wait_ms,
              stats.max_wait_ms, stats.mean_wait_ms);
}

}  // namespace

int main(int argc, char** argv) {
  tools::WorkloadFlags wf;
  wf.cfg.count = 20000;
  tools::SchedulerFlags sf;
  ServeArgs args;

  tools::FlagSet flags("csfc_serve");
  AddServeFlags(flags, &args);
  tools::AddSchedulerFlags(flags, &sf);
  tools::AddWorkloadFlags(flags, &wf);
  if (int rc = flags.Parse(argc, argv); rc != 0) return rc;

  if (args.list) {
    std::printf("schedulers:");
    for (auto n : AllSchedulerNames()) std::printf(" %s", std::string(n).c_str());
    std::printf("\n");
    return 0;
  }

  auto arrivals = tools::MakeWorkloadGenerator(wf);
  if (!arrivals.ok()) {
    std::fprintf(stderr, "%s\n", arrivals.status().ToString().c_str());
    return 1;
  }

  ServerConfig config;
  if (Status s = tools::ApplySchedulerFlags(sf, wf, &config); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 2;
  }
  config.WithSlo(args.slo_ms)
      .WithStreamRate(args.stream_rate, args.stream_burst)
      .WithIngest(args.ring, args.drain_batch)
      .WithTimeScale(args.time_scale);
  config.admission.max_streams = args.max_streams;

  // Observability: optional JSONL stream and/or windowed SLO metrics,
  // fanned out behind the server's serializing lock.
  std::optional<obs::FileWriter> trace_file;
  std::optional<obs::JsonlSink> trace_sink;
  std::optional<obs::SloMetrics> slo;
  FanoutSink fanout;
  if (!args.trace_jsonl.empty()) {
    auto opened = obs::FileWriter::Open(args.trace_jsonl);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    trace_file.emplace(std::move(*opened));
    trace_sink.emplace(*trace_file);
    fanout.sinks.push_back(&*trace_sink);
  }
  if (args.windows_ms > 0.0) {
    slo.emplace(args.windows_ms);
    fanout.sinks.push_back(&*slo);
  }
  if (!fanout.sinks.empty()) config.WithTraceSink(&fanout);

  auto handle = MakeServer(config);
  if (!handle.ok()) {
    std::fprintf(stderr, "%s\n", handle.status().ToString().c_str());
    return 1;
  }
  svc::ServiceServer& server = *handle->server;

  svc::ServiceStats stats;
  if (args.run_virtual) {
    stats = server.RunVirtual(**arrivals);
  } else {
    // The producers split the workload round-robin, so it is drained
    // first.
    const std::vector<Request> offered = DrainGenerator(**arrivals);
    if (args.producers == 0) args.producers = 1;
    if (Status s = server.Start(); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::vector<std::thread> producers;
    producers.reserve(args.producers);
    for (size_t p = 0; p < args.producers; ++p) {
      producers.emplace_back(ProducerLoop, &server, &offered, p,
                             args.producers, args.pace);
    }
    for (std::thread& t : producers) t.join();
    server.Stop();
    stats = server.Stats();
  }

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
                 args.trace_jsonl.c_str(),
                 static_cast<unsigned long long>(trace_sink->events_written()));
  }

  if (slo) {
    Status written = Status::OK();
    if (!args.windows_out.empty()) {
      auto opened = obs::FileWriter::Open(args.windows_out);
      if (!opened.ok()) {
        std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
        return 1;
      }
      written = obs::Export(*slo, *opened, obs::ExportFormat::kCsv);
      if (written.ok()) written = opened->Close();
    } else if (!args.json) {
      // Keep stdout parseable in --json mode; the windows go to a file
      // there or not at all.
      StdoutWriter w;
      written = obs::Export(*slo, w, obs::ExportFormat::kCsv);
    }
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
  }

  PrintSummary(stats, config.scheduler, args.run_virtual, args.json);
  return 0;
}
