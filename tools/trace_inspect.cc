// trace_inspect: summarizes and validates a recorded JSONL trace (the
// obs::Export / JsonlSink schema, DESIGN.md section 10).
//
// Reads one JSON object per line from a file (or stdin with "-"),
// validates the schema — known event kinds, required fields per kind,
// per-request lifecycle ordering (arrival <= enqueue <= dispatch <=
// completion) — and prints:
//
//   * event totals per kind,
//   * per-level response-time percentiles (p50/p90/p99/max),
//   * an inversion/miss timeline: the trace replayed into time windows,
//     counting dimension-0 priority inversions at each dispatch against
//     the then-waiting set, plus per-window deadline misses.
//
// Exit code 0 when the trace is schema-clean, 1 on any violation, 2 on a
// usage error (an unknown flag, or a count that is not a whole number in
// range) — the CI smoke job pipes a traced bench run through this binary.
//
// Usage: trace_inspect [--windows=N] [--errors=N] FILE|-

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/parse.h"
#include "exp/table.h"
#include "obs/json.h"
#include "obs/trace_event.h"

using namespace csfc;

namespace {

struct ParsedEvent {
  obs::TraceEventKind kind;
  double t_ms = 0.0;
  std::optional<uint64_t> id;
  std::optional<double> level;
  std::optional<double> vc;
  std::optional<double> response_ms;
  std::optional<double> wait_ms;
  bool missed = false;
};

struct Lifecycle {
  std::optional<double> ingest_ms;
  std::optional<double> arrival_ms;
  std::optional<double> enqueue_ms;
  std::optional<double> dispatch_ms;
  std::optional<double> completion_ms;
  uint32_t level = 0;
  bool have_level = false;
  bool waiting = false;  // enqueued but not yet dispatched (for replay)
};

class SchemaErrors {
 public:
  explicit SchemaErrors(size_t max_shown) : max_shown_(max_shown) {}

  void Add(size_t line_no, const std::string& what) {
    ++count_;
    if (shown_.size() < max_shown_) {
      shown_.push_back("line " + std::to_string(line_no) + ": " + what);
    }
  }

  uint64_t count() const { return count_; }
  const std::vector<std::string>& shown() const { return shown_; }

 private:
  size_t max_shown_;
  uint64_t count_ = 0;
  std::vector<std::string> shown_;
};

const obs::JsonScalar* Find(const obs::JsonObject& obj, const char* key) {
  const auto it = obj.find(key);
  return it == obj.end() ? nullptr : &it->second;
}

bool RequireNumber(const obs::JsonObject& obj, const char* key,
                   size_t line_no, SchemaErrors* errors, double* out) {
  const obs::JsonScalar* v = Find(obj, key);
  if (v == nullptr || !v->is_number()) {
    errors->Add(line_no, std::string("missing/non-numeric field \"") + key +
                             "\" for this event kind");
    return false;
  }
  *out = v->num;
  return true;
}

/// Parses and schema-checks one line. Returns nullopt when the line is
/// unusable (already reported to `errors`).
std::optional<ParsedEvent> ParseLine(const std::string& line, size_t line_no,
                                     SchemaErrors* errors) {
  Result<obs::JsonObject> parsed = obs::ParseFlatJsonObject(line);
  if (!parsed.ok()) {
    errors->Add(line_no, parsed.status().message());
    return std::nullopt;
  }
  const obs::JsonObject& obj = *parsed;

  const obs::JsonScalar* ev = Find(obj, "ev");
  if (ev == nullptr || !ev->is_string()) {
    errors->Add(line_no, "missing \"ev\" field");
    return std::nullopt;
  }
  ParsedEvent out;
  if (!obs::ParseTraceEventKind(ev->str, &out.kind)) {
    errors->Add(line_no, "unknown event kind \"" + ev->str + "\"");
    return std::nullopt;
  }
  if (!RequireNumber(obj, "t_ms", line_no, errors, &out.t_ms)) {
    return std::nullopt;
  }

  using K = obs::TraceEventKind;
  const bool needs_id = out.kind != K::kQueueSwap && out.kind != K::kWindowReset;
  if (needs_id) {
    double id = 0;
    if (!RequireNumber(obj, "id", line_no, errors, &id)) return std::nullopt;
    out.id = static_cast<uint64_t>(id);
  }

  double tmp = 0;
  switch (out.kind) {
    case K::kArrival:
      if (!RequireNumber(obj, "cyl", line_no, errors, &tmp)) return std::nullopt;
      if (!RequireNumber(obj, "level", line_no, errors, &tmp)) {
        return std::nullopt;
      }
      out.level = tmp;
      break;
    case K::kCharacterize: {
      double v1, v2, vc;
      if (!RequireNumber(obj, "v1", line_no, errors, &v1) ||
          !RequireNumber(obj, "v2", line_no, errors, &v2) ||
          !RequireNumber(obj, "vc", line_no, errors, &vc)) {
        return std::nullopt;
      }
      out.vc = vc;
      for (double v : {v1, v2, vc}) {
        if (v < 0.0 || v >= 1.0) {
          errors->Add(line_no, "characterization value outside [0, 1)");
          return std::nullopt;
        }
      }
      break;
    }
    case K::kEnqueue:
    case K::kQueueSwap:
      if (!RequireNumber(obj, "qd", line_no, errors, &tmp)) return std::nullopt;
      break;
    case K::kPreempt:
    case K::kPromote:
      if (!RequireNumber(obj, "vc", line_no, errors, &tmp) ||
          !RequireNumber(obj, "window", line_no, errors, &tmp)) {
        return std::nullopt;
      }
      break;
    case K::kWindowReset:
      if (!RequireNumber(obj, "window", line_no, errors, &tmp)) {
        return std::nullopt;
      }
      break;
    case K::kDispatch:
      if (!RequireNumber(obj, "cyl", line_no, errors, &tmp) ||
          !RequireNumber(obj, "qd", line_no, errors, &tmp)) {
        return std::nullopt;
      }
      break;
    case K::kCompletion: {
      if (!RequireNumber(obj, "seek_ms", line_no, errors, &tmp) ||
          !RequireNumber(obj, "service_ms", line_no, errors, &tmp)) {
        return std::nullopt;
      }
      double response;
      if (!RequireNumber(obj, "response_ms", line_no, errors, &response)) {
        return std::nullopt;
      }
      out.response_ms = response;
      const obs::JsonScalar* missed = Find(obj, "missed");
      if (missed == nullptr || !missed->is_bool()) {
        errors->Add(line_no, "completion missing boolean \"missed\"");
        return std::nullopt;
      }
      out.missed = missed->boolean;
      break;
    }
    case K::kDeadlineMiss:
      break;
    case K::kIngest:
      if (!RequireNumber(obj, "stream", line_no, errors, &tmp)) {
        return std::nullopt;
      }
      break;
    case K::kAdmit:
      if (!RequireNumber(obj, "qd", line_no, errors, &tmp)) return std::nullopt;
      break;
    case K::kReject: {
      const obs::JsonScalar* reason = Find(obj, "reason");
      if (reason == nullptr || !reason->is_string()) {
        errors->Add(line_no, "reject missing string \"reason\"");
        return std::nullopt;
      }
      obs::RejectReason parsed_reason;
      if (!obs::ParseRejectReason(reason->str, &parsed_reason)) {
        errors->Add(line_no, "unknown reject reason \"" + reason->str + "\"");
        return std::nullopt;
      }
      break;
    }
    case K::kDrain: {
      double wait;
      if (!RequireNumber(obj, "wait_ms", line_no, errors, &wait) ||
          !RequireNumber(obj, "qd", line_no, errors, &tmp)) {
        return std::nullopt;
      }
      if (wait < 0.0) {
        errors->Add(line_no, "negative drain wait_ms");
        return std::nullopt;
      }
      out.wait_ms = wait;
      break;
    }
  }
  return out;
}

double Percentile(std::vector<double>& sorted_values, double q) {
  if (sorted_values.empty()) return 0.0;
  const double pos = q * static_cast<double>(sorted_values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted_values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted_values[lo] * (1.0 - frac) + sorted_values[hi] * frac;
}

/// The timeline keeps three counters per window.
constexpr size_t kMaxWindows = 1'000'000;

int Usage() {
  std::fprintf(stderr,
               "usage: trace_inspect [--windows=N (1..%zu)] [--errors=N] "
               "FILE|-\n",
               kMaxWindows);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  size_t timeline_windows = 10;
  size_t max_errors_shown = 10;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--windows=", 10) == 0) {
      if (!ParseToken(argv[i] + 10, &timeline_windows) ||
          timeline_windows == 0 || timeline_windows > kMaxWindows) {
        return Usage();
      }
    } else if (std::strncmp(argv[i], "--errors=", 9) == 0) {
      if (!ParseToken(argv[i] + 9, &max_errors_shown)) return Usage();
    } else if (argv[i][0] == '-' && std::strcmp(argv[i], "-") != 0) {
      return Usage();
    } else if (path.empty()) {
      path = argv[i];
    } else {
      return Usage();
    }
  }
  if (path.empty()) return Usage();

  std::ifstream file;
  std::istream* in = &std::cin;
  if (path != "-") {
    file.open(path);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 2;
    }
    in = &file;
  }

  SchemaErrors errors(max_errors_shown);
  std::vector<ParsedEvent> events;
  std::map<obs::TraceEventKind, uint64_t> kind_counts;
  std::string line;
  size_t line_no = 0;
  double prev_t = -1.0;
  while (std::getline(*in, line)) {
    ++line_no;
    if (line.empty()) continue;
    std::optional<ParsedEvent> e = ParseLine(line, line_no, &errors);
    if (!e) continue;
    if (e->t_ms < prev_t) {
      errors.Add(line_no, "events not in time order");
    }
    prev_t = e->t_ms;
    ++kind_counts[e->kind];
    events.push_back(*e);
  }
  if (line_no == 0) {
    std::fprintf(stderr, "empty trace\n");
    return 1;
  }

  // Per-request lifecycle validation + join of level onto completions.
  using K = obs::TraceEventKind;
  std::map<uint64_t, Lifecycle> lifecycles;
  const auto check_order = [&](const char* before, std::optional<double> a,
                               const char* after, double b) {
    if (a && *a > b) {
      errors.Add(0, std::string(before) + " after " + after + " (t=" +
                        std::to_string(*a) + " > " + std::to_string(b) + ")");
    }
  };
  double makespan_ms = 0.0;
  for (const ParsedEvent& e : events) {
    makespan_ms = std::max(makespan_ms, e.t_ms);
    if (!e.id) continue;
    Lifecycle& lc = lifecycles[*e.id];
    switch (e.kind) {
      case K::kArrival:
        if (lc.arrival_ms) errors.Add(0, "duplicate arrival for request " +
                                             std::to_string(*e.id));
        lc.arrival_ms = e.t_ms;
        lc.level = static_cast<uint32_t>(e.level.value_or(0));
        lc.have_level = true;
        break;
      case K::kIngest:
        if (lc.ingest_ms) errors.Add(0, "duplicate ingest for request " +
                                            std::to_string(*e.id));
        lc.ingest_ms = e.t_ms;
        break;
      case K::kAdmit:
      case K::kReject:
        check_order("ingest", lc.ingest_ms,
                    e.kind == K::kAdmit ? "admit" : "reject", e.t_ms);
        break;
      case K::kDrain:
        check_order("ingest", lc.ingest_ms, "drain", e.t_ms);
        check_order("enqueue", lc.enqueue_ms, "drain", e.t_ms);
        break;
      case K::kEnqueue:
        check_order("arrival", lc.arrival_ms, "enqueue", e.t_ms);
        check_order("ingest", lc.ingest_ms, "enqueue", e.t_ms);
        lc.enqueue_ms = e.t_ms;
        break;
      case K::kDispatch:
        if (lc.dispatch_ms) errors.Add(0, "duplicate dispatch for request " +
                                              std::to_string(*e.id));
        check_order("arrival", lc.arrival_ms, "dispatch", e.t_ms);
        check_order("enqueue", lc.enqueue_ms, "dispatch", e.t_ms);
        lc.dispatch_ms = e.t_ms;
        break;
      case K::kCompletion:
        if (lc.completion_ms) {
          errors.Add(0,
                     "duplicate completion for request " + std::to_string(*e.id));
        }
        check_order("arrival", lc.arrival_ms, "completion", e.t_ms);
        check_order("enqueue", lc.enqueue_ms, "completion", e.t_ms);
        check_order("dispatch", lc.dispatch_ms, "completion", e.t_ms);
        lc.completion_ms = e.t_ms;
        break;
      default:
        break;
    }
  }

  // Aggregates: per-level response percentiles.
  std::map<uint32_t, std::vector<double>> responses_per_level;
  uint64_t completions = 0;
  uint64_t misses = 0;
  double response_sum = 0.0;
  for (const ParsedEvent& e : events) {
    if (e.kind != K::kCompletion || !e.id) continue;
    ++completions;
    if (e.missed) ++misses;
    const double response = e.response_ms.value_or(0.0);
    response_sum += response;
    const auto it = lifecycles.find(*e.id);
    const uint32_t level =
        it != lifecycles.end() && it->second.have_level ? it->second.level : 0;
    responses_per_level[level].push_back(response);
  }

  // Inversion/miss timeline: replay enqueue/dispatch to reconstruct the
  // waiting set, count dim-0 inversions at each dispatch, and bucket by
  // time window.
  const double window_ms =
      makespan_ms > 0.0 ? makespan_ms / static_cast<double>(timeline_windows)
                        : 1.0;
  std::vector<uint64_t> inversions(timeline_windows, 0);
  std::vector<uint64_t> window_misses(timeline_windows, 0);
  std::vector<uint64_t> window_promotions(timeline_windows, 0);
  const auto window_of = [&](double t_ms) {
    const auto w = static_cast<size_t>(t_ms / window_ms);
    return std::min(w, timeline_windows - 1);
  };
  std::map<uint64_t, uint32_t> waiting;  // id -> level
  for (const ParsedEvent& e : events) {
    if (e.kind == K::kEnqueue && e.id) {
      const auto it = lifecycles.find(*e.id);
      if (it != lifecycles.end() && it->second.have_level) {
        waiting[*e.id] = it->second.level;
      }
    } else if (e.kind == K::kDispatch && e.id) {
      const auto self = waiting.find(*e.id);
      uint32_t level = 0;
      const auto it = lifecycles.find(*e.id);
      if (it != lifecycles.end()) level = it->second.level;
      if (self != waiting.end()) waiting.erase(self);
      uint64_t inv = 0;
      for (const auto& [wid, wlevel] : waiting) {
        if (wlevel < level) ++inv;
      }
      inversions[window_of(e.t_ms)] += inv;
    } else if (e.kind == K::kDeadlineMiss) {
      window_misses[window_of(e.t_ms)] += 1;
    } else if (e.kind == K::kPromote) {
      window_promotions[window_of(e.t_ms)] += 1;
    }
  }

  // ---- Report ----
  std::printf("trace: %s\n", path == "-" ? "<stdin>" : path.c_str());
  std::printf("events: %zu  requests: %zu  makespan: %.1f ms\n\n",
              events.size(), lifecycles.size(), makespan_ms);

  TablePrinter kinds({"event", "count"});
  for (const auto& [kind, count] : kind_counts) {
    kinds.AddRow({std::string(obs::TraceEventKindName(kind)),
                  std::to_string(count)});
  }
  kinds.Print();
  std::printf("\n");

  if (completions > 0) {
    std::printf("completions: %llu  misses: %llu (%.2f%%)  mean response: "
                "%.2f ms\n\n",
                static_cast<unsigned long long>(completions),
                static_cast<unsigned long long>(misses),
                100.0 * static_cast<double>(misses) /
                    static_cast<double>(completions),
                response_sum / static_cast<double>(completions));
    TablePrinter levels({"level", "count", "p50 ms", "p90 ms", "p99 ms",
                         "max ms"});
    for (auto& [level, values] : responses_per_level) {
      std::sort(values.begin(), values.end());
      levels.AddRow({std::to_string(level), std::to_string(values.size()),
                     FormatDouble(Percentile(values, 0.50)),
                     FormatDouble(Percentile(values, 0.90)),
                     FormatDouble(Percentile(values, 0.99)),
                     FormatDouble(values.back())});
    }
    levels.Print();
    std::printf("\n");
  }

  // Service-mode summary: offer-to-dispatch wait percentiles from the
  // drain events, when the trace came from the front-end.
  std::vector<double> waits;
  for (const ParsedEvent& e : events) {
    if (e.kind == K::kDrain && e.wait_ms) waits.push_back(*e.wait_ms);
  }
  if (!waits.empty()) {
    std::sort(waits.begin(), waits.end());
    std::printf("drain waits: %zu  p50: %.3f ms  p99: %.3f ms  p999: %.3f ms"
                "  max: %.3f ms\n\n",
                waits.size(), Percentile(waits, 0.50),
                Percentile(waits, 0.99), Percentile(waits, 0.999),
                waits.back());
  }

  TablePrinter timeline({"window start ms", "inversions", "misses",
                         "promotions"});
  for (size_t wnd = 0; wnd < timeline_windows; ++wnd) {
    timeline.AddRow({FormatDouble(static_cast<double>(wnd) * window_ms, 1),
                     std::to_string(inversions[wnd]),
                     std::to_string(window_misses[wnd]),
                     std::to_string(window_promotions[wnd])});
  }
  timeline.Print();
  std::printf("\n");

  if (errors.count() > 0) {
    std::printf("schema errors: %llu\n",
                static_cast<unsigned long long>(errors.count()));
    for (const std::string& e : errors.shown()) {
      std::printf("  %s\n", e.c_str());
    }
    if (errors.count() > errors.shown().size()) {
      std::printf("  ... and %llu more\n",
                  static_cast<unsigned long long>(errors.count() -
                                                  errors.shown().size()));
    }
    return 1;
  }
  std::printf("schema: OK\n");
  return 0;
}
