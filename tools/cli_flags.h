// One flag table per tool, driving BOTH the parser and the help text.
//
// csfc_sim's hand-rolled Usage() string had drifted from its if/else
// parser chain (flags that parsed but were missing from the help, and
// vice versa). Here a flag exists iff it was Add()ed: Parse() dispatches
// over the table and PrintUsage()/PrintHelp() render the same table, so
// the two cannot disagree. csfc_sim and csfc_serve both build their sets
// from these helpers, sharing the workload/trace/scheduler flags through
// AddWorkloadFlags/AddSchedulerFlags below.
//
// Syntax accepted: --name=VALUE for valued flags, bare --name for
// booleans, --help/-h for the generated help. A number is one whole token
// (common/parse.h's ParseToken). Unknown flags and malformed values print
// usage and fail.

#ifndef CSFC_TOOLS_CLI_FLAGS_H_
#define CSFC_TOOLS_CLI_FLAGS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse.h"
#include "core/presets.h"
#include "exp/server_config.h"
#include "workload/edl.h"
#include "workload/generator.h"
#include "workload/mpeg.h"
#include "workload/trace.h"

namespace csfc {
namespace tools {

class FlagSet {
 public:
  explicit FlagSet(std::string prog) : prog_(std::move(prog)) {}

  /// Valued flag: --name=METAVAR. `parse` returns false on a bad value.
  void Add(std::string name, std::string metavar, std::string help,
           std::function<bool(const std::string&)> parse) {
    flags_.push_back({std::move(name), std::move(metavar), std::move(help),
                      std::move(parse)});
  }

  /// Boolean flag: bare --name sets *out = true.
  void AddBool(std::string name, std::string help, bool* out) {
    flags_.push_back({std::move(name), "", std::move(help),
                      [out](const std::string&) {
                        *out = true;
                        return true;
                      }});
  }

  void AddString(std::string name, std::string metavar, std::string help,
                 std::string* out) {
    Add(std::move(name), std::move(metavar), std::move(help),
        [out](const std::string& v) {
          *out = v;
          return true;
        });
  }

  void AddDouble(std::string name, std::string help, double* out) {
    AddNumber(std::move(name), "X", std::move(help), out);
  }

  void AddUint32(std::string name, std::string help, uint32_t* out) {
    AddNumber(std::move(name), "N", std::move(help), out);
  }

  void AddUint64(std::string name, std::string help, uint64_t* out) {
    AddNumber(std::move(name), "N", std::move(help), out);
  }

  void AddSize(std::string name, std::string help, size_t* out) {
    AddNumber(std::move(name), "N", std::move(help), out);
  }

  /// "LO:HI" pair of numbers, each half parsed like AddNumber's value.
  /// Neither output changes unless both halves parse.
  template <typename T>
  void AddRange(std::string name, std::string help, T* lo, T* hi) {
    Add(std::move(name), "LO:HI", std::move(help),
        [lo, hi](const std::string& v) {
          const size_t colon = v.find(':');
          if (colon == std::string::npos) return false;
          const std::string_view text(v);
          T a{};
          T b{};
          if (!ParseToken(text.substr(0, colon), &a) ||
              !ParseToken(text.substr(colon + 1), &b)) {
            return false;
          }
          *lo = a;
          *hi = b;
          return true;
        });
  }

  /// Parses argv. Returns 0 on success; 2 on a usage error (usage already
  /// printed to stderr). --help/-h prints the full help to stdout and
  /// exits the process with 0.
  int Parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
        PrintHelp(stdout);
        std::exit(0);
      }
      if (std::strncmp(arg, "--", 2) != 0) {
        std::fprintf(stderr, "%s: unexpected argument '%s'\n", prog_.c_str(),
                     arg);
        PrintUsage(stderr);
        return 2;
      }
      const char* body = arg + 2;
      const char* eq = std::strchr(body, '=');
      const std::string name =
          eq != nullptr ? std::string(body, static_cast<size_t>(eq - body))
                        : std::string(body);
      const Flag* flag = FindFlag(name);
      if (flag == nullptr) {
        std::fprintf(stderr, "%s: unknown flag --%s\n", prog_.c_str(),
                     name.c_str());
        PrintUsage(stderr);
        return 2;
      }
      const bool boolean = flag->metavar.empty();
      if (boolean != (eq == nullptr)) {
        std::fprintf(stderr, "%s: flag --%s %s a value\n", prog_.c_str(),
                     name.c_str(), boolean ? "does not take" : "requires");
        PrintUsage(stderr);
        return 2;
      }
      if (!flag->parse(eq != nullptr ? std::string(eq + 1) : std::string())) {
        std::fprintf(stderr, "%s: bad value for --%s\n", prog_.c_str(),
                     name.c_str());
        PrintUsage(stderr);
        return 2;
      }
    }
    return 0;
  }

  /// Single-line usage synopsis, generated from the table.
  void PrintUsage(std::FILE* out) const {
    std::fprintf(out, "usage: %s", prog_.c_str());
    size_t col = prog_.size() + 7;
    for (const Flag& f : flags_) {
      std::string item = " [--" + f.name;
      if (!f.metavar.empty()) item += "=" + f.metavar;
      item += "]";
      if (col + item.size() > 78) {
        std::fprintf(out, "\n       ");
        col = 7;
      }
      std::fprintf(out, "%s", item.c_str());
      col += item.size();
    }
    std::fprintf(out, "\n");
  }

  /// Full help: usage plus one aligned line per flag.
  void PrintHelp(std::FILE* out) const {
    PrintUsage(out);
    size_t width = 0;
    for (const Flag& f : flags_) {
      size_t w = f.name.size();
      if (!f.metavar.empty()) w += 1 + f.metavar.size();
      width = width > w ? width : w;
    }
    for (const Flag& f : flags_) {
      std::string head = "--" + f.name;
      if (!f.metavar.empty()) head += "=" + f.metavar;
      std::fprintf(out, "  %-*s  %s\n", static_cast<int>(width + 2),
                   head.c_str(), f.help.c_str());
    }
  }

 private:
  struct Flag {
    std::string name;
    std::string metavar;  ///< empty = boolean
    std::string help;
    std::function<bool(const std::string&)> parse;
  };

  /// One whole-token number (common/parse.h): no sign on an unsigned
  /// type, no value outside T's range, and a finite double.
  template <typename T>
  void AddNumber(std::string name, std::string metavar, std::string help,
                 T* out) {
    Add(std::move(name), std::move(metavar), std::move(help),
        [out](const std::string& v) { return ParseToken(v, out); });
  }

  const Flag* FindFlag(const std::string& name) const {
    for (const Flag& f : flags_) {
      if (f.name == name) return &f;
    }
    return nullptr;
  }

  std::string prog_;
  std::vector<Flag> flags_;
};

// ---------------------------------------------------------------------
// Shared flag blocks. csfc_sim and csfc_serve register the workload and
// scheduler flags through these helpers, so a new knob lands in both
// tools (parser and help alike) from one edit here.

/// Workload selection and synthesis knobs.
struct WorkloadFlags {
  std::string kind = "synthetic";  ///< synthetic | mpeg | edl
  uint32_t users = 40;             ///< mpeg streams / edl editors
  double duration_ms = 20000.0;    ///< mpeg horizon
  WorkloadConfig cfg;              ///< synthetic knobs + shared seed/shape
};

inline void AddWorkloadFlags(FlagSet& flags, WorkloadFlags* w) {
  flags.AddString("workload", "KIND", "workload family: synthetic|mpeg|edl",
                  &w->kind);
  flags.AddUint32("users", "mpeg streams / edl editors", &w->users);
  flags.AddDouble("duration", "mpeg workload horizon in ms",
                  &w->duration_ms);
  flags.AddUint64("count", "synthetic request count", &w->cfg.count);
  flags.AddDouble("interarrival", "mean interarrival in ms",
                  &w->cfg.mean_interarrival_ms);
  flags.AddUint32("burst", "requests per arrival burst", &w->cfg.burst_size);
  flags.AddUint32("dims", "priority dimensions", &w->cfg.priority_dims);
  flags.AddUint32("levels", "priority levels per dimension",
                  &w->cfg.priority_levels);
  flags.AddRange("deadline", "relative deadline range in ms",
                 &w->cfg.deadline_lo_ms, &w->cfg.deadline_hi_ms);
  flags.AddRange("bytes", "request size range in bytes", &w->cfg.bytes_lo,
                 &w->cfg.bytes_hi);
  flags.AddUint64("seed", "workload RNG seed", &w->cfg.seed);
  flags.AddBool("relaxed", "relaxed (far-future) deadlines",
                &w->cfg.relaxed_deadlines);
}

/// The generator of the arrival stream the flags describe. csfc_sim and
/// csfc_serve --virtual run straight off it; BuildWorkload drains it for
/// callers that need the whole stream up front.
inline Result<std::unique_ptr<RequestGenerator>> MakeWorkloadGenerator(
    const WorkloadFlags& w) {
  if (w.kind == "mpeg") {
    MpegWorkloadConfig mc;
    mc.seed = w.cfg.seed;
    mc.num_users = w.users;
    mc.duration_ms = w.duration_ms;
    mc.user_phase_spread_ms = mc.PeriodMs() - mc.batch_jitter_ms;
    auto gen = MpegStreamGenerator::Create(mc);
    if (!gen.ok()) return gen.status();
    return std::unique_ptr<RequestGenerator>(std::move(*gen));
  }
  if (w.kind == "edl") {
    EdlWorkloadConfig ec;
    ec.seed = w.cfg.seed;
    ec.num_editors = w.users;
    auto gen = EdlWorkloadGenerator::Create(ec);
    if (!gen.ok()) return gen.status();
    return std::unique_ptr<RequestGenerator>(std::move(*gen));
  }
  if (w.kind == "synthetic") {
    auto gen = SyntheticGenerator::Create(w.cfg);
    if (!gen.ok()) return gen.status();
    return std::unique_ptr<RequestGenerator>(std::move(*gen));
  }
  return Status::InvalidArgument("unknown --workload=" + w.kind +
                                 " (synthetic|mpeg|edl)");
}

/// Generates the whole arrival stream the flags describe.
inline Result<std::vector<Request>> BuildWorkload(const WorkloadFlags& w) {
  auto gen = MakeWorkloadGenerator(w);
  if (!gen.ok()) return gen.status();
  return DrainGenerator(**gen);
}

/// Scheduler selection and cascaded-preset knobs.
struct SchedulerFlags {
  std::string sched = "csfc";
  std::string sfc1 = "hilbert";
  double f = 1.0;
  uint32_t r = 3;
  double window = 0.05;
  bool transfer_only = false;
};

inline void AddSchedulerFlags(FlagSet& flags, SchedulerFlags* s) {
  flags.AddString("sched", "NAME", "scheduler registry name (see --list)",
                  &s->sched);
  flags.AddString("sfc1", "CURVE", "stage-1 curve (hilbert|diagonal|...)",
                  &s->sfc1);
  flags.AddDouble("f", "stage-2 balance factor", &s->f);
  flags.AddUint32("r", "stage-3 partition count", &s->r);
  flags.AddDouble("window", "conditional-preemption window fraction",
                  &s->window);
  flags.AddBool("transfer-only", "service time = transfer only (no seek)",
                &s->transfer_only);
}

/// csfc_sim's whole flag table: its own trace and output flags, then the
/// shared scheduler and workload blocks.
struct SimFlags {
  std::string trace_in;
  std::string trace_out;
  std::string trace_jsonl;
  bool json = false;
  bool list = false;
  SchedulerFlags sched;
  WorkloadFlags workload;
};

inline void AddSimFlags(FlagSet& flags, SimFlags* s) {
  flags.AddString("trace-in", "FILE",
                  "replay a text trace file instead of generating",
                  &s->trace_in);
  flags.AddString("trace-out", "FILE",
                  "save the generated workload as a text trace file",
                  &s->trace_out);
  flags.AddString("trace-jsonl", "FILE",
                  "stream lifecycle events as JSONL (DESIGN.md section 10)",
                  &s->trace_jsonl);
  flags.AddBool("json", "print RunMetrics as JSON instead of the summary",
                &s->json);
  flags.AddBool("list", "list registered schedulers and exit", &s->list);
  AddSchedulerFlags(flags, &s->sched);
  AddWorkloadFlags(flags, &s->workload);
}

/// Folds the scheduler and workload flags into a ServerConfig: policy
/// name, service model, metrics shape, and the cascaded preset (shape
/// knobs reuse the workload's dims/levels/deadline horizon). Every flag
/// value the table parses is accepted here, so this returns OK today;
/// the Status is the callers' contract for a flag that needs checking.
inline Status ApplySchedulerFlags(const SchedulerFlags& s,
                                  const WorkloadFlags& w, ServerConfig* out) {
  out->WithScheduler(s.sched)
      .WithServiceModel(s.transfer_only ? ServiceModel::kTransferOnly
                                        : ServiceModel::kFullDisk)
      .WithMetricsShape(w.cfg.priority_dims, w.cfg.priority_levels)
      .WithCascaded(PresetFull(s.sfc1, w.cfg.priority_dims, /*bits=*/4, s.f,
                               s.r, out->sim.disk.cylinders, s.window,
                               w.cfg.deadline_hi_ms));
  return Status::OK();
}

}  // namespace tools
}  // namespace csfc

#endif  // CSFC_TOOLS_CLI_FLAGS_H_
