// Seeded mutation fuzzing of the two text parsers that read outside input:
// ParseTraceLine (--trace-in files) and obs::ParseFlatJsonObject (JSONL
// traces, BENCH_hotpath.json rows, the golden ledger).
//
// Each case starts from valid lines, applies 1-4 random edits (byte flips,
// truncations, duplicated fields, signs, digit runs past 2^64, stray
// whitespace, spliced tokens) and feeds 10^5 such inputs to the parser.
// Every input must come back as an error or as a value that survives a
// format/parse round trip unchanged. The seed is fixed, so a failure
// reproduces exactly; run under the asan preset, the same inputs also
// check memory safety.

#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

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

}  // namespace
}  // namespace csfc
