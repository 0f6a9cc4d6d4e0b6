// csfc_golden: the cross-build golden-output ledger — the dynamic half of
// the determinism contract (csfc_analyze's determinism-taint / fp-contract
// / rng-seed-flow families are the static half; DESIGN.md section 14).
//
// A pinned matrix of simulator, service (RunVirtual), characterization and
// curve-encode configurations runs to completion; every byte each entry
// exports (the JSONL lifecycle trace, the final metrics document, the
// characterization values, the curve index tables) streams through an
// FNV-1a-64 HashWriter instead of a file. The resulting digests are
// checked against the committed tools/GOLDEN.json.
//
// CI runs `csfc_golden --verify` on three build flavors — default
// (RelWithDebInfo), Release, and UBSan — and all three must reproduce the
// committed digests bit for bit. That turns the repo's standing
// bit-identity claims (batch vs per-request characterization, RunVirtual
// vs the offline simulator, seeded RNG streams) from per-PR test
// assertions into a permanent cross-build gate: any codegen, libm, or
// ordering change that perturbs one exported byte fails the job.
//
// Usage:
//   csfc_golden --verify                  # default; exit 1 on any drift
//   csfc_golden --update                  # rewrite GOLDEN.json in place
//   csfc_golden --list                    # entry names, no runs
//   csfc_golden --only=sim/ --verify      # prefix-filter the matrix
//   csfc_golden --golden=FILE ...         # ledger path (default
//                                         # tools/GOLDEN.json, so running
//                                         # from the repo root just works)
//
// Regenerating after an intentional behavior change: run --update on the
// default build, commit the new GOLDEN.json, and say in the PR why the
// bytes moved. The three-flavor CI gate then re-proves the new bytes are
// build-invariant.

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cli_flags.h"
#include "core/encapsulator.h"
#include "exp/runner.h"
#include "obs/export.h"
#include "obs/json.h"
#include "sched/registry.h"
#include "sfc/registry.h"

using namespace csfc;

namespace {

// ---------------------------------------------------------------------
// HashWriter: an obs::Writer that folds every appended byte into an
// FNV-1a-64 digest. Entries export through it exactly as they would
// export through a FileWriter, so the hash covers the real byte stream.

class HashWriter : public obs::Writer {
 public:
  Status Append(std::string_view data) override {
    for (const char c : data) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001B3ULL;
    }
    bytes_ += data.size();
    return Status::OK();
  }

  /// "fnv1a64:<16 hex digits>:<byte count>" — the byte count makes
  /// "hash moved" failures diagnosable at a glance (did the stream grow,
  /// shrink, or merely change?).
  std::string Digest() const {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "fnv1a64:%016llx:%llu",
                  static_cast<unsigned long long>(hash_),
                  static_cast<unsigned long long>(bytes_));
    return buf;
  }

 private:
  uint64_t hash_ = 0xCBF29CE484222325ULL;
  uint64_t bytes_ = 0;
};

// ---------------------------------------------------------------------
// Matrix entries. Every entry is a pure function of its pinned config:
// no wall clocks, no environment, no entropy. Workload seeds are fixed
// here and nowhere else.

tools::WorkloadFlags PinnedWorkloadFlags(
    const std::string& kind, uint64_t seed, uint64_t count,
    std::optional<double> interarrival_ms = std::nullopt,
    std::optional<uint32_t> levels = std::nullopt) {
  tools::WorkloadFlags wf;
  wf.kind = kind;
  wf.cfg.seed = seed;
  wf.cfg.count = count;
  if (interarrival_ms) wf.cfg.mean_interarrival_ms = *interarrival_ms;
  if (levels) wf.cfg.priority_levels = *levels;
  wf.users = 6;              // mpeg streams / edl editors
  wf.duration_ms = 3000.0;   // mpeg horizon
  return wf;
}

/// Builds the ServerConfig the scheduler flags describe, the same path
/// csfc_sim and csfc_serve take, so the ledger pins the user-facing
/// configuration surface and not a hand-rolled twin of it. The metrics
/// and cascade shape (dims, levels, deadline horizon) follow `wf`.
Result<ServerConfig> PinnedConfig(const std::string& sched,
                                  const tools::WorkloadFlags& wf) {
  tools::SchedulerFlags sf;
  sf.sched = sched;
  ServerConfig config;
  if (Status s = tools::ApplySchedulerFlags(sf, wf, &config); !s.ok()) {
    return s;
  }
  return config;
}

/// Offline simulator run: hashes the full JSONL lifecycle trace plus the
/// final RunMetrics document. The workload streams from its generator,
/// as in csfc_sim; the committed digests were computed over a drained and
/// replayed trace, so verifying them also proves the two paths agree.
Result<std::string> SimDigest(const std::string& sched,
                              const std::string& workload, uint64_t seed,
                              uint64_t count,
                              std::optional<uint64_t> latency_seed,
                              std::optional<double> interarrival_ms,
                              std::optional<uint32_t> levels) {
  const tools::WorkloadFlags wf =
      PinnedWorkloadFlags(workload, seed, count, interarrival_ms, levels);
  auto gen = tools::MakeWorkloadGenerator(wf);
  if (!gen.ok()) return gen.status();
  auto config = PinnedConfig(sched, wf);
  if (!config.ok()) return config.status();
  config->sim.latency_seed = latency_seed;

  HashWriter hash;
  obs::JsonlSink sink(hash);
  config->WithTraceSink(&sink);
  if (Status s = config->Validate(); !s.ok()) return s;

  auto disk = DiskModel::Create(config->sim.disk);
  if (!disk.ok()) return disk.status();
  auto factory = config->MakeFactory(*disk);
  if (!factory.ok()) return factory.status();
  auto metrics = RunScheduler(config->sim, **gen, *factory);
  if (!metrics.ok()) return metrics.status();
  if (!sink.status().ok()) return sink.status();

  if (Status s = obs::Export(*metrics, hash, obs::ExportFormat::kJsonl);
      !s.ok()) {
    return s;
  }
  return hash.Digest();
}

/// Service front-end run in deterministic virtual time: hashes the event
/// stream RunVirtual emits plus the settled ServiceStats. The workload
/// streams from its generator, as in csfc_serve --virtual. A nonzero
/// `slo_ms` / `stream_rate_rps` turns the load / rate gate on.
Result<std::string> ServeDigest(const std::string& sched, double slo_ms,
                                double stream_rate_rps) {
  const tools::WorkloadFlags wf =
      PinnedWorkloadFlags("synthetic", /*seed=*/42, /*count=*/1500);
  auto gen = tools::MakeWorkloadGenerator(wf);
  if (!gen.ok()) return gen.status();
  auto config = PinnedConfig(sched, wf);
  if (!config.ok()) return config.status();
  config->WithSlo(slo_ms).WithStreamRate(stream_rate_rps);

  HashWriter hash;
  obs::JsonlSink sink(hash);
  config->WithTraceSink(&sink);
  if (Status s = config->Validate(); !s.ok()) return s;

  auto handle = MakeServer(*config);
  if (!handle.ok()) return handle.status();
  const svc::ServiceStats stats = handle->server->RunVirtual(**gen);
  if (!sink.status().ok()) return sink.status();

  obs::JsonWriter jw;
  jw.BeginObject()
      .Field("offered", stats.admission.offered)
      .Field("admitted", stats.admission.admitted)
      .Field("rejected_rate", stats.admission.rejected_rate)
      .Field("rejected_load", stats.admission.rejected_load)
      .Field("rejected_ring_full", stats.admission.rejected_ring_full)
      .Field("enqueued", stats.enqueued)
      .Field("dispatched", stats.dispatched)
      .Field("completions", stats.completions)
      .Field("p50_wait_ms", stats.p50_wait_ms)
      .Field("p99_wait_ms", stats.p99_wait_ms)
      .Field("p999_wait_ms", stats.p999_wait_ms)
      .Field("max_wait_ms", stats.max_wait_ms)
      .Field("mean_wait_ms", stats.mean_wait_ms)
      .EndObject();
  if (Status s = hash.Append(jw.str()); !s.ok()) return s;
  if (Status s = hash.Append("\n"); !s.ok()) return s;
  return hash.Digest();
}

/// Encapsulator characterization over a pinned request set under rolling
/// head positions: hashes one JSONL line per request. The batch kernel
/// is cross-checked against per-request Characterize request for
/// request, so every build flavor proves that bit-identity claim too.
Result<std::string> CharacterizeDigest() {
  auto trace = tools::BuildWorkload(
      PinnedWorkloadFlags("synthetic", /*seed=*/1234, /*count=*/1024));
  if (!trace.ok()) return trace.status();

  EncapsulatorConfig ec;  // hilbert, D=3, 4 bits, f=1, R=3, PanaViss-sized
  auto enc = Encapsulator::Create(ec);
  if (!enc.ok()) return enc.status();

  HashWriter hash;
  const size_t kBatch = 128;
  std::vector<const Request*> ptrs;
  std::vector<CValue> batch_v(kBatch);
  for (size_t base = 0; base < trace->size(); base += kBatch) {
    const size_t n = std::min(kBatch, trace->size() - base);
    ptrs.clear();
    for (size_t i = 0; i < n; ++i) ptrs.push_back(&(*trace)[base + i]);
    DispatchContext ctx;
    ctx.now = (*trace)[base].arrival;
    ctx.head = static_cast<Cylinder>((base * 97) % ec.cylinders);
    (*enc)->CharacterizeBatch({ptrs.data(), n}, ctx, {batch_v.data(), n});
    for (size_t i = 0; i < n; ++i) {
      const CValue scalar = (*enc)->Characterize(*ptrs[i], ctx);
      if (scalar != batch_v[i]) {
        return Status::Internal("characterize batch/scalar divergence at " +
                                std::to_string(base + i));
      }
      obs::JsonWriter jw;
      jw.BeginObject()
          .Field("i", static_cast<uint64_t>(base + i))
          .Field("vc", batch_v[i])
          .EndObject();
      if (Status s = hash.Append(jw.str()); !s.ok()) return s;
      if (Status s = hash.Append("\n"); !s.ok()) return s;
    }
  }
  return hash.Digest();
}

/// Full index tables of every registered curve over small 2-D and 3-D
/// grids, encoded through IndexBatch with a Point() round-trip check per
/// cell.
Result<std::string> CurvesDigest() {
  HashWriter hash;
  for (std::string_view name : AllCurveNames()) {
    for (const GridSpec spec : {GridSpec{2, 5}, GridSpec{3, 3}}) {
      char head[64];
      std::snprintf(head, sizeof(head), "%s d%u b%u:",
                    std::string(name).c_str(), spec.dims, spec.bits);
      if (Status s = hash.Append(head); !s.ok()) return s;
      auto curve = MakeCurve(name, spec);
      if (!curve.ok()) {
        // Some curves only support some shapes; pin the fact, not the
        // message (status text is free to improve without moving bytes).
        if (Status s = hash.Append(" unsupported\n"); !s.ok()) return s;
        continue;
      }
      const uint64_t cells = spec.num_cells();
      std::vector<uint32_t> flat;
      flat.reserve(cells * spec.dims);
      std::vector<uint32_t> point(spec.dims);
      for (uint64_t cell = 0; cell < cells; ++cell) {
        uint64_t rest = cell;
        for (uint32_t k = spec.dims; k-- > 0;) {
          point[k] = static_cast<uint32_t>(rest & (spec.side() - 1));
          rest >>= spec.bits;
        }
        flat.insert(flat.end(), point.begin(), point.end());
      }
      std::vector<uint64_t> idx(cells);
      (*curve)->IndexBatch({flat.data(), flat.size()},
                           {idx.data(), idx.size()});
      for (uint64_t cell = 0; cell < cells; ++cell) {
        (*curve)->Point(idx[cell], {point.data(), point.size()});
        uint64_t repacked = 0;
        for (uint32_t k = 0; k < spec.dims; ++k) {
          repacked = (repacked << spec.bits) | point[k];
        }
        if (repacked != cell) {
          return Status::Internal(std::string(name) +
                                  ": Point(Index) round-trip failed at cell " +
                                  std::to_string(cell));
        }
        char buf[32];
        std::snprintf(buf, sizeof(buf), " %llu",
                      static_cast<unsigned long long>(idx[cell]));
        if (Status s = hash.Append(buf); !s.ok()) return s;
      }
      if (Status s = hash.Append("\n"); !s.ok()) return s;
    }
  }
  return hash.Digest();
}

struct GoldenEntry {
  std::string name;
  Result<std::string> (*compute)(const GoldenEntry&);
  // SimDigest parameters (unused by the other entry kinds).
  std::string sched, workload;
  uint64_t seed = 42;
  std::optional<uint64_t> latency_seed;
  uint64_t count = 2000;
  /// Priority levels per dimension (workload, metrics and cascade shape);
  /// unset = the workload default of 16.
  std::optional<uint32_t> levels = std::nullopt;
};

Result<std::string> ComputeSim(const GoldenEntry& e) {
  return SimDigest(e.sched, e.workload, e.seed, e.count, e.latency_seed,
                   /*interarrival_ms=*/std::nullopt, e.levels);
}
// Overload: arrivals every 2 ms outpace service, so the backlog grows with
// the run and the inversion counts are pinned at queue depth, not only
// over the near-empty queues of the default load.
Result<std::string> ComputeSimOverload(const GoldenEntry& e) {
  return SimDigest(e.sched, e.workload, e.seed, e.count, e.latency_seed,
                   /*interarrival_ms=*/2.0, e.levels);
}
Result<std::string> ComputeServe(const GoldenEntry& e) {
  return ServeDigest(e.sched, /*slo_ms=*/0.0, /*stream_rate_rps=*/0.0);
}
// Both admission gates on: the pinned stream (one stream, 40 offers/s on
// average) sheds 227 offers at the 35/s token bucket and 228 at the 30 ms
// wait SLO, so the gates' decisions and the reject events are pinned.
Result<std::string> ComputeServeGated(const GoldenEntry& e) {
  return ServeDigest(e.sched, /*slo_ms=*/30.0, /*stream_rate_rps=*/35.0);
}
Result<std::string> ComputeCharacterize(const GoldenEntry&) {
  return CharacterizeDigest();
}
Result<std::string> ComputeCurves(const GoldenEntry&) {
  return CurvesDigest();
}

/// The pinned matrix. Names are stable identifiers — renaming one is a
/// ledger change and needs --update + review like any digest change.
std::vector<GoldenEntry> BuildMatrix() {
  std::vector<GoldenEntry> m;
  // Every registered scheduler at the default load, so a rewrite of any
  // of them is proven byte-identical in every build flavor. csfc follows
  // under its historic names.
  for (std::string_view name : AllSchedulerNames()) {
    if (name == "csfc") continue;
    const std::string sched(name);
    m.push_back({"sim/" + sched + "/synthetic", ComputeSim, sched,
                 "synthetic", 42, std::nullopt});
  }
  // The csfc entries keep their "-calendar" names from when the dispatcher
  // had two queue backends: renaming an entry is a ledger change.
  m.push_back({"sim/csfc-calendar/synthetic", ComputeSim, "csfc",
               "synthetic", 42, std::nullopt});
  m.push_back({"sim/csfc-calendar/mpeg", ComputeSim, "csfc", "mpeg", 42,
               std::nullopt});
  m.push_back({"sim/csfc-calendar/edl", ComputeSim, "csfc", "edl", 42,
               std::nullopt});
  // Seeded rotational latency: the one simulator path that draws from an
  // Rng at service time, pinning the xoshiro stream and the latency
  // distribution math across builds.
  m.push_back({"sim/csfc-calendar/synthetic-latency7", ComputeSim, "csfc",
               "synthetic", 42, uint64_t{7}});
  m.push_back({"sim/csfc-calendar/synthetic-overload", ComputeSimOverload,
               "csfc", "synthetic", 42, std::nullopt});
  // Deep overload: the backlog peaks near 36.5k requests, past the
  // dispatcher's refinement threshold (kScanInsertMax entries per starting
  // bucket, ~32.7k here), so the run and its traced rekeys cross from the
  // starting calendar geometry to the finest one.
  m.push_back({"sim/csfc-calendar/synthetic-deep", ComputeSimOverload,
               "csfc", "synthetic", 42, std::nullopt, 40000});
  // A large level grid under overload: deep queues whose waiting levels
  // spread over 4,096 levels per dimension pin the inversion count far
  // past the default 16-level grid.
  m.push_back({"sim/csfc/synthetic-overload-levels4096", ComputeSimOverload,
               "csfc", "synthetic", 42, std::nullopt, 2000, 4096});
  m.push_back({"serve/csfc/virtual", ComputeServe, "csfc", "", 42,
               std::nullopt});
  m.push_back({"serve/edf/virtual", ComputeServe, "edf", "", 42,
               std::nullopt});
  m.push_back({"serve/csfc/virtual-gated", ComputeServeGated, "csfc", "", 42,
               std::nullopt});
  m.push_back({"characterize/hilbert-f1-r3", ComputeCharacterize, "", "", 42,
               std::nullopt});
  m.push_back({"curves/index-tables", ComputeCurves, "", "", 42,
               std::nullopt});
  return m;
}

// ---------------------------------------------------------------------
// Ledger I/O. GOLDEN.json is one flat JSON object (entry name -> digest
// string), one entry per line — parseable by obs::ParseFlatJsonObject
// and diffable by humans.

Result<obs::JsonObject> LoadLedger(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::IoError("cannot open golden ledger: " + path);
  }
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) text.append(buf, n);
  std::fclose(f);
  return obs::ParseFlatJsonObject(text);
}

Status SaveLedger(const std::string& path,
                  const std::vector<std::pair<std::string, std::string>>&
                      digests) {
  auto w = obs::FileWriter::Open(path);
  if (!w.ok()) return w.status();
  if (Status s = w->Append("{\n"); !s.ok()) return s;
  for (size_t i = 0; i < digests.size(); ++i) {
    const std::string line = "  \"" + obs::JsonEscape(digests[i].first) +
                             "\": \"" + obs::JsonEscape(digests[i].second) +
                             (i + 1 < digests.size() ? "\",\n" : "\"\n");
    if (Status s = w->Append(line); !s.ok()) return s;
  }
  if (Status s = w->Append("}\n"); !s.ok()) return s;
  return w->Close();
}

}  // namespace

int main(int argc, char** argv) {
  std::string golden_path = "tools/GOLDEN.json";
  std::string only;
  bool verify = false, update = false, list = false;

  tools::FlagSet flags("csfc_golden");
  flags.AddString("golden", "FILE", "ledger path (default tools/GOLDEN.json)",
                  &golden_path);
  flags.AddString("only", "PREFIX", "run only entries whose name starts with "
                  "PREFIX", &only);
  flags.AddBool("verify", "check digests against the ledger (default)",
                &verify);
  flags.AddBool("update", "recompute and rewrite the ledger", &update);
  flags.AddBool("list", "print entry names without running", &list);
  if (int rc = flags.Parse(argc, argv); rc != 0) return rc;
  if (update && verify) {
    std::fprintf(stderr, "csfc_golden: --verify and --update conflict\n");
    return 2;
  }

  const std::vector<GoldenEntry> matrix = BuildMatrix();
  if (list) {
    for (const GoldenEntry& e : matrix) std::printf("%s\n", e.name.c_str());
    return 0;
  }

  std::vector<std::pair<std::string, std::string>> digests;
  for (const GoldenEntry& e : matrix) {
    if (!only.empty() && e.name.rfind(only, 0) != 0) continue;
    auto digest = e.compute(e);
    if (!digest.ok()) {
      std::fprintf(stderr, "csfc_golden: %s: %s\n", e.name.c_str(),
                   digest.status().ToString().c_str());
      return 1;
    }
    digests.emplace_back(e.name, *digest);
  }
  if (digests.empty()) {
    std::fprintf(stderr, "csfc_golden: no entries match --only=%s\n",
                 only.c_str());
    return 2;
  }

  if (update) {
    if (!only.empty()) {
      std::fprintf(stderr,
                   "csfc_golden: --update rewrites the whole ledger and "
                   "cannot be combined with --only\n");
      return 2;
    }
    if (Status s = SaveLedger(golden_path, digests); !s.ok()) {
      std::fprintf(stderr, "csfc_golden: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("csfc_golden: wrote %zu digests to %s\n", digests.size(),
                golden_path.c_str());
    return 0;
  }

  // Verify (the default action).
  auto ledger = LoadLedger(golden_path);
  if (!ledger.ok()) {
    std::fprintf(stderr, "csfc_golden: %s\n",
                 ledger.status().ToString().c_str());
    return 1;
  }
  int drift = 0;
  for (const auto& [name, digest] : digests) {
    auto it = ledger->find(name);
    if (it == ledger->end()) {
      std::fprintf(stderr, "csfc_golden: MISSING  %s (run --update)\n",
                   name.c_str());
      ++drift;
    } else if (!it->second.is_string() || it->second.str != digest) {
      std::fprintf(stderr, "csfc_golden: DRIFT    %s\n  ledger: %s\n  build:  %s\n",
                   name.c_str(),
                   it->second.is_string() ? it->second.str.c_str() : "<non-string>",
                   digest.c_str());
      ++drift;
    } else {
      std::printf("csfc_golden: ok       %s  %s\n", name.c_str(),
                  digest.c_str());
    }
  }
  // Stale ledger rows only matter on a full run (--only legitimately
  // skips entries).
  if (only.empty()) {
    for (const auto& [name, value] : *ledger) {
      (void)value;
      bool known = false;
      for (const auto& [n, d] : digests) {
        (void)d;
        if (n == name) { known = true; break; }
      }
      if (!known) {
        std::fprintf(stderr,
                     "csfc_golden: STALE    %s (in ledger, not in matrix)\n",
                     name.c_str());
        ++drift;
      }
    }
  }
  if (drift > 0) {
    std::fprintf(stderr, "csfc_golden: %d entr%s drifted\n", drift,
                 drift == 1 ? "y" : "ies");
    return 1;
  }
  std::printf("csfc_golden: all %zu digests match %s\n", digests.size(),
              golden_path.c_str());
  return 0;
}
