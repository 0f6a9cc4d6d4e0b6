// Seeded mutation fuzzing of the text parsers that read outside input:
// ParseTraceLine (--trace-in files), obs::ParseFlatJsonObject (JSONL
// traces, BENCH_hotpath.json rows, the golden ledger) and the CLIs'
// FlagSet (argv, over csfc_sim's table).
//
// Each case starts from valid lines, applies 1-4 random edits (byte flips,
// truncations, duplicated fields, signs, digit runs past 2^64, stray
// whitespace, spliced tokens) and feeds 10^5 such inputs to the parser.
// Every input must come back as an error or as a value that survives a
// format/parse round trip unchanged. The seed is fixed, so a failure
// reproduces exactly; run under the asan preset, the same inputs also
// check memory safety.

#include <gtest/gtest.h>

#include <unistd.h>

#include <charconv>
#include <cstdio>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "cli_flags.h"
#include "common/random.h"
#include "obs/json.h"
#include "workload/trace.h"

namespace csfc {
namespace {

constexpr int kInputs = 100000;

// Copies the delimiter-bounded field at a random index, with its trailing
// delimiter, in front of itself.
void DuplicateField(Rng& rng, std::string& s, char delim) {
  std::vector<size_t> starts{0};
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == delim) starts.push_back(i + 1);
  }
  const size_t k = rng.Uniform(starts.size());
  const size_t begin = starts[k];
  const size_t end = k + 1 < starts.size() ? starts[k + 1] : s.size();
  s.insert(begin, s.substr(begin, end - begin));
}

// Spellings the parsers give meaning to, spliced in whole (a byte flip
// almost never assembles one).
constexpr std::string_view kTokens[] = {"nan", "inf",  "null", "true", "e",
                                        ".",   "\\u", "\"",   ":",    "{"};

// One random edit of `s`.
void Mutate(Rng& rng, std::string& s, char delim) {
  const size_t pos = rng.Uniform(s.size() + 1);
  switch (rng.Uniform(7)) {
    case 0:  // byte flip
      if (!s.empty()) {
        s[rng.Uniform(s.size())] ^= static_cast<char>(1u << rng.Uniform(8));
      }
      break;
    case 1:  // truncation
      s.resize(pos);
      break;
    case 2:
      DuplicateField(rng, s, delim);
      break;
    case 3:  // sign
      s.insert(pos, 1, "-+"[rng.Uniform(2)]);
      break;
    case 4: {  // a digit run of 20-39 digits: past 2^64 unless it has a
               // leading zero
      std::string digits;
      const uint64_t n = 20 + rng.Uniform(20);
      for (uint64_t i = 0; i < n; ++i) {
        digits += static_cast<char>('0' + rng.Uniform(10));
      }
      s.insert(pos, digits);
      break;
    }
    case 5:  // stray whitespace
      s.insert(pos, 1, " \t\r\n\f\v"[rng.Uniform(6)]);
      break;
    default:  // a token over 0-3 bytes
      s.replace(pos, rng.Uniform(4), kTokens[rng.Uniform(std::size(kTokens))]);
      break;
  }
}

// A mutated copy of a random corpus line.
std::string NextInput(Rng& rng, const std::vector<std::string>& corpus,
                      char delim) {
  std::string s = corpus[rng.Uniform(corpus.size())];
  const uint64_t edits = 1 + rng.Uniform(4);
  for (uint64_t i = 0; i < edits; ++i) Mutate(rng, s, delim);
  return s;
}

bool SameFields(const Request& a, const Request& b) {
  return a.id == b.id && a.arrival == b.arrival && a.deadline == b.deadline &&
         a.cylinder == b.cylinder && a.bytes == b.bytes &&
         a.is_write == b.is_write && a.stream == b.stream &&
         a.priorities == b.priorities;
}

std::vector<std::string> TraceCorpus() {
  Request r;
  r.id = 12;
  r.arrival = 345678;
  r.deadline = 456789;
  r.cylinder = 1234;
  r.bytes = 65536;
  r.is_write = true;
  r.stream = 9;
  r.priorities = PriorityVec{3, 0, 7};
  std::vector<std::string> corpus{FormatTraceLine(r)};
  r.deadline = kNoDeadline;
  r.priorities.clear();
  corpus.push_back(FormatTraceLine(r));
  r.id = std::numeric_limits<RequestId>::max();
  r.arrival = std::numeric_limits<SimTime>::max() - 1;
  r.deadline = std::numeric_limits<SimTime>::max() - 1;
  r.cylinder = std::numeric_limits<Cylinder>::max();
  r.bytes = std::numeric_limits<uint64_t>::max();
  r.stream = std::numeric_limits<uint32_t>::max();
  for (size_t k = 0; k < kMaxPriorityDims; ++k) {
    r.priorities.push_back(std::numeric_limits<PriorityLevel>::max());
  }
  corpus.push_back(FormatTraceLine(r));
  corpus.push_back("0\t5 -1 0 0 0 0 1\t2");
  return corpus;
}

TEST(ParserFuzzTest, TraceLinesRoundTripOrFail) {
  // A negative arrival and an is_write other than 0 or 1 are errors at
  // the line that holds them, not a later arrival-order failure.
  for (const char* line : {"0 -5000 -1 0 0 7 0", "0 -5000 -1 0 0 0 0",
                           "0 0 -1 0 0 7 0", "0 0 -1 0 0 2 0"}) {
    const Result<Request> r = ParseTraceLine(line);
    ASSERT_FALSE(r.ok()) << line;
    EXPECT_NE(r.status().message().find(line), std::string::npos)
        << r.status().ToString();
  }
  const std::vector<std::string> corpus = TraceCorpus();
  Rng rng(20261019);
  int accepted = 0;
  for (int i = 0; i < kInputs; ++i) {
    const std::string line = NextInput(rng, corpus, ' ');
    const Result<Request> r = ParseTraceLine(line);
    if (!r.ok()) continue;
    ++accepted;
    const std::string again = FormatTraceLine(*r);
    const Result<Request> back = ParseTraceLine(again);
    ASSERT_TRUE(back.ok()) << "input: " << line << "\nformatted: " << again;
    ASSERT_TRUE(SameFields(*r, *back))
        << "input: " << line << "\nformatted: " << again;
  }
  // Both outcomes must be common, or the edits test only one of them.
  EXPECT_GT(accepted, kInputs / 20);
  EXPECT_LT(accepted, kInputs - kInputs / 20);
}

// Re-serializes a parsed object with the project's writer.
std::string WriteObject(const obs::JsonObject& obj) {
  obs::JsonWriter w;
  w.BeginObject();
  for (const auto& [key, v] : obj) {
    w.Key(key);
    switch (v.type) {
      case obs::JsonScalar::Type::kString:
        w.Value(std::string_view(v.str));
        break;
      case obs::JsonScalar::Type::kNumber:
        w.Value(v.num);
        break;
      case obs::JsonScalar::Type::kBool:
        w.Value(v.boolean);
        break;
      case obs::JsonScalar::Type::kNull:
        // The writer emits a non-finite double as null.
        w.Value(std::numeric_limits<double>::quiet_NaN());
        break;
    }
  }
  w.EndObject();
  return w.Take();
}

bool SameObject(const obs::JsonObject& a, const obs::JsonObject& b) {
  if (a.size() != b.size()) return false;
  for (auto ia = a.begin(), ib = b.begin(); ia != a.end(); ++ia, ++ib) {
    const obs::JsonScalar& x = ia->second;
    const obs::JsonScalar& y = ib->second;
    if (ia->first != ib->first || x.type != y.type || x.str != y.str ||
        x.num != y.num || x.boolean != y.boolean) {
      return false;
    }
  }
  return true;
}

std::vector<std::string> JsonCorpus() {
  obs::JsonWriter event;
  event.BeginObject()
      .Field("kind", "dispatch")
      .Field("t_us", uint64_t{123456})
      .Field("id", int64_t{-42})
      .Field("v", 0.3125)
      .Field("tiny", 1e-300)
      .Field("big", std::numeric_limits<double>::max())
      .Field("write", true)
      .Field("note", "tab\there \"quoted\" \\ \xc3\xa9")
      .EndObject();
  return {event.Take(),
          "{}",
          "{\"k\": \"\\u00e9\\u0041\\n\", \"ok\": false, \"n\": null}",
          " { \"a\" : 1 , \"a\" : -2.5e+3 } "};
}

TEST(ParserFuzzTest, FlatJsonObjectsRoundTripOrFail) {
  // Found by this case: from_chars took these as numbers, and the writer
  // turned the non-finite ones into null.
  for (const char* line : {"{\"a\" : nan ,\"#a\" : -2.5e+3}", "{\"k\": -inf}",
                           "{\"k\": infinity}", "{\"k\": .5}", "{\"k\": -}"}) {
    EXPECT_FALSE(obs::ParseFlatJsonObject(line).ok()) << line;
  }
  // Numbers follow JSON's grammar, not from_chars': no leading zeros, and
  // a fraction or an exponent needs digits.
  for (const char* line :
       {"{\"k\": 01}", "{\"k\": -01}", "{\"k\": 00}", "{\"k\": 1.}",
        "{\"k\": 1.e5}", "{\"k\": 1e}", "{\"k\": 1e+}", "{\"k\": -.5}"}) {
    EXPECT_FALSE(obs::ParseFlatJsonObject(line).ok()) << line;
  }
  for (const char* line : {"{\"k\": 0}", "{\"k\": -0}", "{\"k\": 0.5}",
                           "{\"k\": 1e5}", "{\"k\": 1E-5}"}) {
    EXPECT_TRUE(obs::ParseFlatJsonObject(line).ok()) << line;
  }
  const std::vector<std::string> corpus = JsonCorpus();
  Rng rng(20261019);
  int accepted = 0;
  for (int i = 0; i < kInputs; ++i) {
    const std::string line = NextInput(rng, corpus, ',');
    const Result<obs::JsonObject> obj = obs::ParseFlatJsonObject(line);
    if (!obj.ok()) continue;
    ++accepted;
    const std::string again = WriteObject(*obj);
    const Result<obs::JsonObject> back = obs::ParseFlatJsonObject(again);
    ASSERT_TRUE(back.ok()) << "input: " << line << "\nwritten: " << again;
    ASSERT_TRUE(SameObject(*obj, *back))
        << "input: " << line << "\nwritten: " << again;
  }
  EXPECT_GT(accepted, kInputs / 20);
  EXPECT_LT(accepted, kInputs - kInputs / 20);
}

// Discards what the code under test writes to stderr (FlagSet prints the
// usage on every rejected argv) and restores it on scope exit.
class SilencedStderr {
 public:
  SilencedStderr() : saved_(dup(STDERR_FILENO)) {
    std::fflush(stderr);
    std::FILE* null = std::fopen("/dev/null", "w");
    if (null != nullptr) {
      dup2(fileno(null), STDERR_FILENO);
      std::fclose(null);
    }
  }
  ~SilencedStderr() {
    std::fflush(stderr);
    dup2(saved_, STDERR_FILENO);
    close(saved_);
  }
  SilencedStderr(const SilencedStderr&) = delete;
  SilencedStderr& operator=(const SilencedStderr&) = delete;

 private:
  int saved_;
};

// Parses `args` (argv[0] supplied) over a fresh csfc_sim table.
int ParseSimArgs(std::vector<std::string> args, tools::SimFlags* out) {
  std::vector<char*> argv;
  std::string prog = "csfc_sim";
  argv.push_back(prog.data());
  for (std::string& a : args) argv.push_back(a.data());
  tools::FlagSet flags("csfc_sim");
  tools::AddSimFlags(flags, out);
  return flags.Parse(static_cast<int>(argv.size()), argv.data());
}

template <typename T>
std::string Num(T v) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  EXPECT_EQ(ec, std::errc());
  return std::string(buf, end);
}

// Whether an accepted --name=VALUE spells numbers the way the table's
// grammar allows: only digits for an unsigned flag, no letters (so no
// nan, inf or trailing junk) for a double, each half of a LO:HI range
// alike. Flags that take no number pass.
bool SpellsAcceptedNumber(std::string_view arg) {
  const size_t eq = arg.find('=');
  if (eq == std::string_view::npos) return true;
  const std::string_view name = arg.substr(2, eq - 2);
  std::string_view value = arg.substr(eq + 1);
  const auto digits = [](std::string_view t) {
    return !t.empty() &&
           t.find_first_not_of("0123456789") == std::string_view::npos;
  };
  const auto decimal = [](std::string_view t) {
    return !t.empty() &&
           t.find_first_not_of("0123456789.eE+-") == std::string_view::npos;
  };
  for (std::string_view n : {"users", "count", "burst", "dims", "levels",
                             "seed", "r"}) {
    if (name == n) return digits(value);
  }
  for (std::string_view n : {"duration", "interarrival", "f", "window"}) {
    if (name == n) return decimal(value);
  }
  const size_t colon = value.find(':');
  if (name == "bytes") {
    return digits(value.substr(0, colon)) && digits(value.substr(colon + 1));
  }
  if (name == "deadline") {
    return decimal(value.substr(0, colon)) &&
           decimal(value.substr(colon + 1));
  }
  return true;
}

std::string Join(const std::vector<std::string>& args) {
  std::string out;
  for (const std::string& a : args) out += (out.empty() ? "" : " ") + a;
  return out;
}

// Every valued flag of the table, spelled from what was parsed; the
// booleans only when set.
std::vector<std::string> FormatSimArgs(const tools::SimFlags& f) {
  const WorkloadConfig& c = f.workload.cfg;
  std::vector<std::string> args = {
      "--trace-in=" + f.trace_in,
      "--trace-out=" + f.trace_out,
      "--trace-jsonl=" + f.trace_jsonl,
      "--sched=" + f.sched.sched,
      "--sfc1=" + f.sched.sfc1,
      "--f=" + Num(f.sched.f),
      "--r=" + Num(f.sched.r),
      "--window=" + Num(f.sched.window),
      "--workload=" + f.workload.kind,
      "--users=" + Num(f.workload.users),
      "--duration=" + Num(f.workload.duration_ms),
      "--count=" + Num(c.count),
      "--interarrival=" + Num(c.mean_interarrival_ms),
      "--burst=" + Num(c.burst_size),
      "--dims=" + Num(c.priority_dims),
      "--levels=" + Num(c.priority_levels),
      "--deadline=" + Num(c.deadline_lo_ms) + ":" + Num(c.deadline_hi_ms),
      "--bytes=" + Num(c.bytes_lo) + ":" + Num(c.bytes_hi),
      "--seed=" + Num(c.seed)};
  if (f.json) args.push_back("--json");
  if (f.list) args.push_back("--list");
  if (f.sched.transfer_only) args.push_back("--transfer-only");
  if (c.relaxed_deadlines) args.push_back("--relaxed");
  return args;
}

TEST(ParserFuzzTest, FlagSetArgvRoundTripsOrFails) {
  const std::vector<std::vector<std::string>> corpus = {
      {"--sched=csfc", "--count=1000000", "--interarrival=25", "--seed=1",
       "--json"},
      {"--sched=edf", "--count=5000", "--interarrival=0.5", "--burst=4",
       "--dims=3", "--levels=16", "--deadline=500:700",
       "--bytes=4096:131072", "--trace-jsonl=run.jsonl"},
      {"--sfc1=diagonal", "--f=1e-3", "--r=12", "--window=0.05",
       "--transfer-only", "--relaxed", "--trace-out=w.trace"},
      {"--workload=mpeg", "--users=40", "--duration=20000.5",
       "--seed=18446744073709551615", "--trace-in=load.trace", "--list"}};
  Rng rng(20261019);
  int accepted = 0;
  SilencedStderr quiet;
  for (int i = 0; i < kInputs; ++i) {
    std::vector<std::string> args = corpus[rng.Uniform(corpus.size())];
    const uint64_t edits = 1 + rng.Uniform(4);
    for (uint64_t e = 0; e < edits; ++e) {
      std::string& arg = args[rng.Uniform(args.size())];
      Mutate(rng, arg, arg.find(':') != std::string::npos ? ':' : '=');
    }
    bool help = false;  // --help/-h print the help and exit the process
    for (const std::string& a : args) help |= a == "--help" || a == "-h";
    if (help) continue;
    tools::SimFlags parsed;
    const int rc = ParseSimArgs(args, &parsed);
    ASSERT_TRUE(rc == 0 || rc == 2) << "rc " << rc << " on " << Join(args);
    if (rc != 0) continue;
    ++accepted;
    for (const std::string& a : args) {
      ASSERT_TRUE(SpellsAcceptedNumber(a)) << "accepted " << Join(args);
    }
    const std::vector<std::string> again = FormatSimArgs(parsed);
    tools::SimFlags back;
    ASSERT_EQ(ParseSimArgs(again, &back), 0)
        << "input: " << Join(args) << "\nformatted: " << Join(again);
    ASSERT_EQ(FormatSimArgs(back), again) << "input: " << Join(args);
  }
  EXPECT_GT(accepted, kInputs / 20);
  EXPECT_LT(accepted, kInputs - kInputs / 20);
}

}  // namespace
}  // namespace csfc
