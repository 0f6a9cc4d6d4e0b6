// bench_check: schema validator for BENCH_hotpath.json.
//
// CI's perf-smoke step runs bench_micro_hotpath and then this tool, so a
// refactor that silently drops a section, renames a field, or starts
// emitting NaN/zero throughput fails the build rather than producing a
// BENCH file that looks plausible until someone reads it. Row objects are
// flat, so each one is handed to obs::ParseFlatJsonObject — the same
// parser the observability export path trusts; only the section slicing
// is local.
//
// Usage: bench_check [path]   (default: BENCH_hotpath.json)
// Exit:  0 schema ok, 1 violation, 2 usage/IO error.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace {

using csfc::obs::JsonObject;
using csfc::obs::JsonScalar;

struct SectionSpec {
  const char* name;
  std::vector<const char*> number_fields;
  std::vector<const char*> string_fields;
};

// One spec per section bench_micro_hotpath emits. Adding a section to the
// bench without adding it here is intentional friction: the spec is the
// contract downstream dashboards parse against.
const std::vector<SectionSpec>& Specs() {
  static const std::vector<SectionSpec> specs = {
      {"characterize", {"direct_rps", "lut_rps", "speedup"}, {"config"}},
      {"dispatcher", {"depth", "ops_per_sec"}, {}},
      {"rekey_batch", {"depth", "scalar_rps", "batch_rps", "speedup"}, {}},
      {"metrics", {"dims", "levels", "depth", "requests_per_sec"}, {}},
      {"service_frontend",
       {"producers", "offered", "admitted", "offers_per_sec",
        "dispatch_per_sec", "p50_wait_ms", "p99_wait_ms", "p999_wait_ms",
        "max_wait_ms"},
       {}},
  };
  return specs;
}

// Extracts the flat row objects of `"name": [ {...}, {...} ]`. Returns
// false if the section key is missing or its array is malformed.
bool SliceSection(std::string_view text, std::string_view name,
                  std::vector<std::string>* rows) {
  // Built piecewise: GCC 12's -Wrestrict false-positives on
  // `"literal" + std::string(view)` once this call gets inlined.
  std::string key;
  key.reserve(name.size() + 2);
  key.push_back('"');
  key.append(name);
  key.push_back('"');
  size_t pos = text.find(key);
  if (pos == std::string_view::npos) return false;
  pos = text.find('[', pos + key.size());
  if (pos == std::string_view::npos) return false;
  size_t i = pos + 1;
  while (i < text.size()) {
    if (text[i] == ']') return true;
    if (text[i] == '{') {
      int depth = 0;
      const size_t start = i;
      for (; i < text.size(); ++i) {
        // Row objects are flat by construction; braces inside strings do
        // not occur in the bench's field names or config labels.
        if (text[i] == '{') ++depth;
        if (text[i] == '}' && --depth == 0) {
          ++i;
          break;
        }
      }
      if (depth != 0) return false;
      rows->emplace_back(text.substr(start, i - start));
      continue;
    }
    ++i;
  }
  return false;  // ran off the end before the closing ']'
}

int Fail(const char* section, const std::string& detail) {
  std::fprintf(stderr, "bench_check: [%s] %s\n", section, detail.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path = argc > 1 ? argv[1] : "BENCH_hotpath.json";
  if (argc > 2) {
    std::fprintf(stderr, "usage: bench_check [path]\n");
    return 2;
  }
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_check: cannot open %s\n", path.c_str());
    return 2;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();

  int violations = 0;
  size_t total_rows = 0;
  for (const SectionSpec& spec : Specs()) {
    std::vector<std::string> rows;
    if (!SliceSection(text, spec.name, &rows)) {
      violations += Fail(spec.name, "section missing or malformed");
      continue;
    }
    if (rows.empty()) {
      violations += Fail(spec.name, "section is empty");
      continue;
    }
    for (const std::string& row : rows) {
      auto parsed = csfc::obs::ParseFlatJsonObject(row);
      if (!parsed.ok()) {
        violations += Fail(spec.name,
                           "row is not a flat JSON object: " +
                               parsed.status().ToString());
        continue;
      }
      const JsonObject& obj = *parsed;
      for (const char* field : spec.number_fields) {
        auto it = obj.find(field);
        if (it == obj.end() || !it->second.is_number()) {
          violations += Fail(spec.name, std::string("missing numeric field `") +
                                            field + "` in " + row);
          continue;
        }
        const double v = it->second.num;
        if (!std::isfinite(v) || v <= 0.0) {
          violations += Fail(
              spec.name, std::string("field `") + field +
                             "` must be finite and positive, got " + row);
        }
      }
      for (const char* field : spec.string_fields) {
        auto it = obj.find(field);
        if (it == obj.end() || !it->second.is_string() ||
            it->second.str.empty()) {
          violations +=
              Fail(spec.name, std::string("missing non-empty string field `") +
                                  field + "` in " + row);
        }
      }
      ++total_rows;
    }
  }

  if (violations > 0) {
    std::fprintf(stderr, "bench_check: %d violation(s) in %s\n", violations,
                 path.c_str());
    return 1;
  }
  std::printf("bench_check: OK (%zu rows, %zu sections, %s)\n", total_rows,
              Specs().size(), path.c_str());
  return 0;
}
