// Hot-path microbenchmark: the two per-request costs the scheduler pays on
// every arrival — Characterize (encapsulation) and dispatcher queue ops:
//
//  * Characterize: direct per-request curve evaluation (lut_max_cells=0)
//    vs. the precomputed lookup-table path (the default cap), in
//    requests/sec. Values are verified identical before timing.
//  * Dispatcher: steady-state insert+pop pairs against the calendar-queue
//    Dispatcher at queue depths 10^2 through 10^6, in ops/sec (one op =
//    one insert + one pop).
//  * Service front-end: closed-loop soak of the MPSC ingest ring +
//    dispatcher pump (src/svc) with oversubscribed producers — offer and
//    dispatch throughput plus the enqueue-to-dispatch wait tail.
//  * Metrics: the MetricsCollector's per-request cost (one arrival, one
//    dispatch with its priority-inversion count, one completion) at 3
//    dimensions of 16 and of 4,096 levels, in requests/sec.
//
// Results go to stdout and to BENCH_hotpath.json (in CSFC_BENCH_JSON_DIR
// or the working directory) — the perf baseline future PRs compare
// against.
//
// Flags: --depths=CSV overrides the dispatcher depth sweep, --quick cuts
// op counts and reps for CI smoke runs (the JSON keeps its full schema
// either way; quick numbers are not baselines).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/cascaded_scheduler.h"
#include "core/dispatcher.h"
#include "core/presets.h"
#include "exp/server_config.h"
#include "exp/table.h"
#include "obs/export.h"
#include "obs/json.h"
#include "stats/metrics.h"

namespace csfc {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Deterministic 64-bit mix for input generation.
uint64_t Mix(uint64_t x) {
  x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  x ^= x >> 29;
  return x;
}

std::vector<Request> MakeRequests(size_t n, uint32_t levels,
                                  uint32_t cylinders) {
  std::vector<Request> reqs(n);
  uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (size_t i = 0; i < n; ++i) {
    Request& r = reqs[i];
    r.id = i;
    x = Mix(x);
    r.priorities = PriorityVec{
        static_cast<PriorityLevel>(x % levels),
        static_cast<PriorityLevel>((x >> 8) % levels),
        static_cast<PriorityLevel>((x >> 16) % levels)};
    r.deadline = MsToSim(50.0 + static_cast<double>((x >> 24) % 900));
    r.cylinder = static_cast<Cylinder>((x >> 40) % cylinders);
  }
  return reqs;
}

std::unique_ptr<Encapsulator> MustCreate(EncapsulatorConfig cfg,
                                         bool with_lut) {
  if (!with_lut) cfg.lut_max_cells = 0;
  auto e = Encapsulator::Create(cfg);
  if (!e.ok()) {
    std::fprintf(stderr, "encapsulator create failed: %s\n",
                 e.status().ToString().c_str());
    std::abort();
  }
  return std::move(*e);
}

double TimeCharacterize(const Encapsulator& e,
                        const std::vector<Request>& reqs, int rounds) {
  const DispatchContext ctx{.now = MsToSim(10), .head = 2000};
  volatile double sink = 0.0;
  const auto start = Clock::now();
  for (int round = 0; round < rounds; ++round) {
    double acc = 0.0;
    for (const Request& r : reqs) acc += e.Characterize(r, ctx);
    sink = sink + acc;
  }
  const double secs = SecondsSince(start);
  return static_cast<double>(reqs.size()) * rounds / secs;
}

/// Run shape (see the flag comments at the top of the file).
struct BenchOptions {
  std::vector<size_t> depths = {100, 1000, 10000, 100000, 1000000};
  bool quick = false;
};

struct CharacterizeResult {
  std::string config;
  double direct_rps;
  double lut_rps;
};

CharacterizeResult BenchCharacterize(const std::string& label,
                                     const EncapsulatorConfig& cfg,
                                     int rounds) {
  const auto direct = MustCreate(cfg, /*with_lut=*/false);
  const auto lut = MustCreate(cfg, /*with_lut=*/true);
  const uint32_t levels = uint32_t{1} << cfg.priority_bits;
  const auto reqs = MakeRequests(1 << 14, levels, cfg.cylinders);

  // The LUT path must be a pure optimization: identical v_c on every input.
  const DispatchContext ctx{.now = MsToSim(10), .head = 2000};
  for (const Request& r : reqs) {
    if (direct->Characterize(r, ctx) != lut->Characterize(r, ctx)) {
      std::fprintf(stderr, "LUT mismatch on request %llu (%s)\n",
                   static_cast<unsigned long long>(r.id), label.c_str());
      std::abort();
    }
  }

  // Warmup, then measure.
  TimeCharacterize(*direct, reqs, 2);
  TimeCharacterize(*lut, reqs, 2);
  return CharacterizeResult{label, TimeCharacterize(*direct, reqs, rounds),
                            TimeCharacterize(*lut, reqs, rounds)};
}

double TimeInsertPop(Dispatcher& d, const std::vector<Request>& reqs,
                     size_t depth, size_t ops) {
  // Prefill to the target depth, then run steady-state insert+pop pairs so
  // the queues stay at that depth throughout.
  uint64_t x = 1;
  auto value_of = [&x] {
    x = Mix(x);
    return static_cast<double>(x % (1 << 20)) / static_cast<double>(1 << 20);
  };
  for (size_t i = 0; i < depth; ++i) d.Insert(value_of(), reqs[i % reqs.size()]);
  const auto start = Clock::now();
  for (size_t i = 0; i < ops; ++i) {
    d.Insert(value_of(), reqs[i % reqs.size()]);
    if (!d.Pop().has_value()) std::abort();
  }
  const double secs = SecondsSince(start);
  while (d.Pop().has_value()) {
  }
  return static_cast<double>(ops) / secs;
}

struct DispatcherResult {
  size_t depth;
  double ops;
};

struct RekeyResult {
  size_t depth;
  double scalar_rps;  // per-request Characterize inside the batch hook
  double batch_rps;   // RekeyWaitingBatch + CharacterizeBatch
};

/// Swap-time re-characterization: the whole waiting queue is rekeyed
/// against a fresh context, per-request vs. batched characterization. Keys
/// are verified identical between the two arms before timing (the batch
/// path must be bit-identical, not just close).
RekeyResult BenchRekeyBatch(size_t depth) {
  const CascadedConfig ccfg =
      PresetFull("hilbert", 3, 4, 1.0, 3, 3832, 0.05, 700.0);
  const auto enc = MustCreate(ccfg.encapsulator, /*with_lut=*/true);
  DispatcherConfig cfg;
  cfg.discipline = QueueDiscipline::kNonPreemptive;  // all inserts land in q'
  auto created = Dispatcher::Create(cfg);
  if (!created.ok()) std::abort();
  Dispatcher d = *std::move(created);

  const auto reqs = MakeRequests(depth, 16, 3832);
  uint64_t x = 7;
  for (const Request& r : reqs) {
    x = Mix(x);
    d.Insert(static_cast<double>(x % (1 << 20)) / (1 << 20), r);
  }

  // The per-request arm is the path CharacterizeBatch replaced: one full
  // Characterize per waiting request, through the same batch hook.
  const auto rekey_scalar = [&](const DispatchContext& ctx) {
    d.RekeyWaitingBatch([&](std::span<const Request* const> batch,
                            std::span<CValue> out) {
      for (size_t i = 0; i < batch.size(); ++i) {
        out[i] = enc->Characterize(*batch[i], ctx);
      }
    });
  };
  const auto rekey_batch = [&](const DispatchContext& ctx) {
    d.RekeyWaitingBatch([&](std::span<const Request* const> batch,
                            std::span<CValue> out) {
      enc->CharacterizeBatch(batch, ctx, out);
    });
  };

  // Identity check: after rekeying with either arm under the same
  // context, a drained copy of the queue serves the same (v_c, seq) order.
  const DispatchContext check_ctx{.now = MsToSim(10), .head = 2000};
  const auto drain_order = [](Dispatcher copy) {
    std::vector<RequestId> order;
    while (std::optional<Request> r = copy.Pop()) order.push_back(r->id);
    return order;
  };
  rekey_scalar(check_ctx);
  const std::vector<RequestId> scalar_order = drain_order(d);
  rekey_batch(check_ctx);
  if (drain_order(d) != scalar_order) {
    std::fprintf(stderr, "batch rekey order mismatch at depth %zu\n", depth);
    std::abort();
  }

  // Each round rekeys the whole queue under a shifting context (as queue
  // swaps would); throughput is rekeyed requests/sec.
  const int rounds = static_cast<int>(4000000 / depth) + 1;
  const auto time_rekey = [&](const auto& rekey) {
    const auto start = Clock::now();
    for (int round = 0; round < rounds; ++round) {
      const DispatchContext ctx{
          .now = MsToSim(10.0 + round),
          .head = static_cast<Cylinder>((2000 + 37 * round) % 3832)};
      rekey(ctx);
    }
    return static_cast<double>(depth) * rounds / SecondsSince(start);
  };

  time_rekey(rekey_scalar);  // warmup
  time_rekey(rekey_batch);
  // Best of several interleaved reps: the least-interrupted run of each
  // arm, measured under the same thermal/scheduling conditions.
  double scalar_rps = 0.0, batch_rps = 0.0;
  for (int rep = 0; rep < 7; ++rep) {
    scalar_rps = std::max(scalar_rps, time_rekey(rekey_scalar));
    batch_rps = std::max(batch_rps, time_rekey(rekey_batch));
  }
  return RekeyResult{depth, scalar_rps, batch_rps};
}

DispatcherResult BenchDispatcher(size_t depth, bool quick) {
  const DispatcherConfig cfg;  // conditionally-preemptive, w = 0.05, SP on
  const auto reqs = MakeRequests(1 << 12, 16, 3832);
  size_t ops = depth >= 10000 ? 200000 : 1000000;
  if (quick) ops = std::min<size_t>(ops, 50000);
  // Prefill+drain dominate past 10^5 (each timing call pays 2*depth
  // untimed queue ops); two reps keep the full sweep in budget.
  const int reps = (quick || depth >= 100000) ? 2 : 3;

  auto d = Dispatcher::Create(cfg);
  if (!d.ok()) std::abort();

  TimeInsertPop(*d, reqs, depth, ops / 4);  // warmup
  // Best of several reps (same rationale as BenchRekeyBatch).
  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    best = std::max(best, TimeInsertPop(*d, reqs, depth, ops));
  }
  return DispatcherResult{depth, best};
}

struct MetricsResult {
  uint32_t dims;
  uint32_t levels;
  size_t depth;
  double rps;
};

/// The collector as an untraced simulator run drives it: each request
/// arrives, is dispatched (FIFO) with `depth` others still waiting, and
/// completes. Best of several reps.
MetricsResult BenchMetrics(uint32_t levels, bool quick) {
  constexpr uint32_t kDims = 3;  // MakeRequests' priority vector
  constexpr size_t kDepth = 4;   // about sim-paper's shallow queue
  constexpr size_t kMask = (1 << 12) - 1;
  const auto reqs = MakeRequests(kMask + 1, levels, 3832);
  const size_t ops = quick ? 200000 : 2000000;
  double best = 0.0;
  for (int rep = 0; rep < (quick ? 2 : 5); ++rep) {
    MetricsCollector c(MetricsConfig{.dims = kDims, .levels = levels});
    for (size_t i = 0; i < kDepth; ++i) c.OnArrival(reqs[i]);
    const auto start = Clock::now();
    for (size_t i = 0; i < ops; ++i) {
      c.OnArrival(reqs[(i + kDepth) & kMask]);
      const Request& r = reqs[i & kMask];
      c.OnDispatch(r, kDepth);
      c.OnCompletion(r, MsToSim(500.0), 1.0, 10.0);
    }
    const double secs = SecondsSince(start);
    if (c.metrics().total_inversions() == 0) std::abort();  // keeps the work
    best = std::max(best, static_cast<double>(ops) / secs);
  }
  return MetricsResult{kDims, levels, kDepth, best};
}

struct ServiceResult {
  size_t producers;
  uint64_t offered;
  uint64_t admitted;
  double offers_per_sec;
  double dispatch_per_sec;
  double p50_wait_ms;
  double p99_wait_ms;
  double p999_wait_ms;
  double max_wait_ms;
};

/// Closed-loop soak of the service front-end: `producers` threads blast
/// the MPSC ring as fast as it accepts (ring-full backpressure closes the
/// loop — a full ring parks the producer on a yield-retry instead of
/// shedding), one pump drains into the cascaded scheduler and serves with
/// no pacing. Oversubscribed by construction, so the enqueue-to-dispatch
/// wait percentiles are real queueing delay, not zeros.
ServiceResult BenchServiceFrontend(size_t producers, bool quick) {
  ServerConfig cfg;
  cfg.WithIngest(/*ring_capacity=*/4096, /*drain_batch=*/64);
  // No admission gates: this section measures the pure front-end cost.
  auto handle = MakeServer(cfg);
  if (!handle.ok()) {
    std::fprintf(stderr, "service frontend setup failed: %s\n",
                 handle.status().ToString().c_str());
    std::abort();
  }
  svc::ServiceServer& server = *handle->server;

  const size_t per_producer = quick ? 20000 : 200000;
  const auto reqs = MakeRequests(1 << 12, 16, 3832);
  if (Status s = server.Start(); !s.ok()) std::abort();

  const auto start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&server, &reqs, p, per_producer, producers] {
      for (size_t i = 0; i < per_producer; ++i) {
        Request r = reqs[(i * producers + p) % reqs.size()];
        r.id = static_cast<RequestId>(p * per_producer + i);
        r.stream = static_cast<uint32_t>(p);
        while (!server.Offer(r)) std::this_thread::yield();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  server.Stop();
  const double secs = SecondsSince(start);

  const svc::ServiceStats stats = server.Stats();
  return ServiceResult{
      producers,
      stats.admission.offered,
      stats.admission.admitted,
      static_cast<double>(stats.admission.offered) / secs,
      static_cast<double>(stats.dispatched) / secs,
      stats.p50_wait_ms,
      stats.p99_wait_ms,
      stats.p999_wait_ms,
      stats.max_wait_ms,
  };
}

void WriteJson(const std::vector<CharacterizeResult>& chars,
               const std::vector<DispatcherResult>& disps,
               const std::vector<RekeyResult>& rekeys,
               const std::vector<MetricsResult>& metrics,
               const std::vector<ServiceResult>& services) {
  std::string path = "BENCH_hotpath.json";
  if (const char* dir = std::getenv("CSFC_BENCH_JSON_DIR")) {
    path = std::string(dir) + "/" + path;
  }
  obs::JsonWriter json;
  json.BeginObject();
  json.Key("characterize");
  json.BeginArray();
  for (const CharacterizeResult& c : chars) {
    json.BeginObject();
    json.Field("config", c.config);
    json.Field("direct_rps", c.direct_rps);
    json.Field("lut_rps", c.lut_rps);
    json.Field("speedup", c.lut_rps / c.direct_rps);
    json.EndObject();
  }
  json.EndArray();
  json.Key("dispatcher");
  json.BeginArray();
  for (const DispatcherResult& d : disps) {
    json.BeginObject();
    json.Field("depth", static_cast<uint64_t>(d.depth));
    json.Field("ops_per_sec", d.ops);
    json.EndObject();
  }
  json.EndArray();
  json.Key("rekey_batch");
  json.BeginArray();
  for (const RekeyResult& r : rekeys) {
    json.BeginObject();
    json.Field("depth", static_cast<uint64_t>(r.depth));
    json.Field("scalar_rps", r.scalar_rps);
    json.Field("batch_rps", r.batch_rps);
    json.Field("speedup", r.batch_rps / r.scalar_rps);
    json.EndObject();
  }
  json.EndArray();
  json.Key("metrics");
  json.BeginArray();
  for (const MetricsResult& m : metrics) {
    json.BeginObject();
    json.Field("dims", uint64_t{m.dims});
    json.Field("levels", uint64_t{m.levels});
    json.Field("depth", static_cast<uint64_t>(m.depth));
    json.Field("requests_per_sec", m.rps);
    json.EndObject();
  }
  json.EndArray();
  json.Key("service_frontend");
  json.BeginArray();
  for (const ServiceResult& s : services) {
    json.BeginObject();
    json.Field("producers", static_cast<uint64_t>(s.producers));
    json.Field("offered", s.offered);
    json.Field("admitted", s.admitted);
    json.Field("offers_per_sec", s.offers_per_sec);
    json.Field("dispatch_per_sec", s.dispatch_per_sec);
    json.Field("p50_wait_ms", s.p50_wait_ms);
    json.Field("p99_wait_ms", s.p99_wait_ms);
    json.Field("p999_wait_ms", s.p999_wait_ms);
    json.Field("max_wait_ms", s.max_wait_ms);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  auto out = obs::FileWriter::Open(path);
  Status s = out.ok() ? out->Append(json.str()) : out.status();
  if (s.ok()) s = out->Append("\n");
  if (s.ok()) s = out->Close();
  if (!s.ok()) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 s.ToString().c_str());
    return;
  }
  std::printf("(json: %s)\n", path.c_str());
}

void Run(const BenchOptions& opts) {
  const int char_rounds = opts.quick ? 8 : 32;
  std::vector<CharacterizeResult> chars;
  {
    // The default full cascade: hilbert SFC1, stage-2 formula, R-partition
    // stage 3 — only stage 1 runs curve math.
    CascadedConfig cfg =
        PresetFull("hilbert", 3, 4, 1.0, 3, 3832, 0.05, 700.0);
    chars.push_back(
        BenchCharacterize("full-formula-R3", cfg.encapsulator, char_rounds));
  }
  {
    // All-curve cascade: hilbert at every stage (the Figure 9/11 variants)
    // — every stage runs curve math, so the LUT win compounds.
    CascadedConfig cfg =
        PresetFull("hilbert", 3, 4, 1.0, 3, 3832, 0.05, 700.0);
    cfg.encapsulator.stage2_mode = Stage2Mode::kCurve;
    cfg.encapsulator.sfc2 = "hilbert";
    cfg.encapsulator.stage2_bits = 8;
    cfg.encapsulator.stage3_mode = Stage3Mode::kCurve;
    cfg.encapsulator.sfc3 = "hilbert";
    cfg.encapsulator.stage3_bits = 8;
    chars.push_back(BenchCharacterize("all-hilbert-curves", cfg.encapsulator,
                                      char_rounds));
  }

  std::printf("== Characterize throughput (requests/sec) ==\n\n");
  TablePrinter ct({"config", "direct", "LUT", "speedup"});
  for (const CharacterizeResult& c : chars) {
    ct.AddRow({c.config, FormatDouble(c.direct_rps / 1e6, 2) + "M",
               FormatDouble(c.lut_rps / 1e6, 2) + "M",
               FormatDouble(c.lut_rps / c.direct_rps, 2) + "x"});
  }
  ct.Print();

  std::vector<DispatcherResult> disps;
  for (size_t depth : opts.depths) {
    disps.push_back(BenchDispatcher(depth, opts.quick));
  }
  std::printf(
      "\n== Dispatcher insert+pop throughput (pairs/sec) ==\n\n");
  TablePrinter dt({"depth", "insert+pop"});
  for (const DispatcherResult& d : disps) {
    dt.AddRow({std::to_string(d.depth), FormatDouble(d.ops / 1e6, 2) + "M"});
  }
  dt.Print();

  std::vector<RekeyResult> rekeys;
  for (size_t depth : {100, 1000, 10000}) {
    rekeys.push_back(BenchRekeyBatch(depth));
  }
  std::printf("\n== Waiting-queue rekey throughput (requests/sec) ==\n\n");
  TablePrinter rt({"depth", "per-request", "batched", "speedup"});
  for (const RekeyResult& r : rekeys) {
    rt.AddRow({std::to_string(r.depth),
               FormatDouble(r.scalar_rps / 1e6, 2) + "M",
               FormatDouble(r.batch_rps / 1e6, 2) + "M",
               FormatDouble(r.batch_rps / r.scalar_rps, 2) + "x"});
  }
  rt.Print();

  std::vector<MetricsResult> metrics;
  for (uint32_t levels : {16u, 4096u}) {
    metrics.push_back(BenchMetrics(levels, opts.quick));
  }
  std::printf(
      "\n== Metrics collector: arrival + dispatch + completion "
      "(requests/sec) ==\n\n");
  TablePrinter mt({"dims", "levels", "waiting", "requests/s"});
  for (const MetricsResult& m : metrics) {
    mt.AddRow({std::to_string(m.dims), std::to_string(m.levels),
               std::to_string(m.depth), FormatDouble(m.rps / 1e6, 2) + "M"});
  }
  mt.Print();

  std::vector<ServiceResult> services;
  for (size_t producers : std::vector<size_t>{4, 8}) {
    services.push_back(BenchServiceFrontend(producers, opts.quick));
    if (opts.quick) break;  // one soak point is enough for CI smoke
  }
  std::printf(
      "\n== Service front-end soak (closed-loop, no pacing) ==\n\n");
  TablePrinter st({"producers", "offers/s", "dispatch/s", "p50 ms", "p99 ms",
                   "p999 ms", "max ms"});
  for (const ServiceResult& s : services) {
    st.AddRow({std::to_string(s.producers),
               FormatDouble(s.offers_per_sec / 1e6, 2) + "M",
               FormatDouble(s.dispatch_per_sec / 1e6, 2) + "M",
               FormatDouble(s.p50_wait_ms, 3), FormatDouble(s.p99_wait_ms, 3),
               FormatDouble(s.p999_wait_ms, 3),
               FormatDouble(s.max_wait_ms, 3)});
  }
  st.Print();
  std::printf("\n");

  WriteJson(chars, disps, rekeys, metrics, services);
}

bool ParseDepths(const std::string& csv, std::vector<size_t>* out) {
  out->clear();
  size_t pos = 0;
  while (pos <= csv.size()) {
    const size_t comma = std::min(csv.find(',', pos), csv.size());
    const std::string tok = csv.substr(pos, comma - pos);
    if (tok.empty()) return false;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || v == 0) return false;
    out->push_back(static_cast<size_t>(v));
    pos = comma + 1;
  }
  return !out->empty();
}

}  // namespace
}  // namespace csfc

int main(int argc, char** argv) {
  csfc::BenchOptions opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      opts.quick = true;
    } else if (arg.rfind("--depths=", 0) == 0 &&
               csfc::ParseDepths(arg.substr(9), &opts.depths)) {
      // parsed in the condition
    } else {
      std::fprintf(stderr,
                   "usage: bench_micro_hotpath [--quick] [--depths=CSV]\n");
      return 2;
    }
  }
  csfc::Run(opts);
  return 0;
}
