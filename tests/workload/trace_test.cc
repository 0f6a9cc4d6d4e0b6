#include "workload/trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

#include "workload/generator.h"

namespace csfc {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

Request SampleRequest() {
  Request r;
  r.id = 12;
  r.arrival = 345678;
  r.deadline = 456789;
  r.cylinder = 1234;
  r.bytes = 65536;
  r.is_write = true;
  r.stream = 9;
  r.priorities = PriorityVec{3, 0, 7};
  return r;
}

TEST(TraceFormatTest, LineRoundTrips) {
  const Request r = SampleRequest();
  auto parsed = ParseTraceLine(FormatTraceLine(r));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->id, r.id);
  EXPECT_EQ(parsed->arrival, r.arrival);
  EXPECT_EQ(parsed->deadline, r.deadline);
  EXPECT_EQ(parsed->cylinder, r.cylinder);
  EXPECT_EQ(parsed->bytes, r.bytes);
  EXPECT_EQ(parsed->is_write, r.is_write);
  EXPECT_EQ(parsed->stream, r.stream);
  EXPECT_TRUE(parsed->priorities == r.priorities);
}

TEST(TraceFormatTest, RelaxedDeadlineUsesMinusOne) {
  Request r = SampleRequest();
  r.deadline = kNoDeadline;
  const std::string line = FormatTraceLine(r);
  EXPECT_NE(line.find(" -1 "), std::string::npos);
  auto parsed = ParseTraceLine(line);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->has_deadline());
}

TEST(TraceFormatTest, NoPrioritiesIsValid) {
  Request r = SampleRequest();
  r.priorities.clear();
  auto parsed = ParseTraceLine(FormatTraceLine(r));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->priorities.empty());
}

TEST(TraceFormatTest, MalformedLineRejected) {
  EXPECT_FALSE(ParseTraceLine("").ok());
  EXPECT_FALSE(ParseTraceLine("1 2 3").ok());
  EXPECT_FALSE(ParseTraceLine("x y z w v u t").ok());
}

TEST(TraceFormatTest, TwelvePriorityLevelsParse) {
  auto parsed = ParseTraceLine("1 0 -1 10 4096 0 0 0 1 2 3 4 5 6 7 8 9 10 11");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->priorities.size(), 12u);
  EXPECT_EQ(parsed->priorities[11], 11u);
}

TEST(TraceFormatTest, ThirteenPriorityLevelsRejected) {
  // A Request holds at most kMaxPriorityDims levels inline.
  auto parsed =
      ParseTraceLine("1 0 -1 10 4096 0 0 0 1 2 3 4 5 6 7 8 9 10 11 12");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(TraceFormatTest, NegativeCylinderRejected) {
  // operator>> used to read "-1" into an unsigned field as 4,294,967,295.
  auto parsed = ParseTraceLine("1 0 -1 -1 4096 0 0 3 0 7");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(TraceFormatTest, NegativePriorityRejected) {
  auto parsed = ParseTraceLine("1 0 -1 10 4096 0 0 3 -1 7");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument);
}

TEST(TraceFormatTest, NegativeUnsignedFieldsRejected) {
  // id, bytes and stream are unsigned too; the deadline's -1 stays valid.
  EXPECT_FALSE(ParseTraceLine("-1 0 -1 10 4096 0 0").ok());
  EXPECT_FALSE(ParseTraceLine("1 0 -1 10 -4096 0 0").ok());
  EXPECT_FALSE(ParseTraceLine("1 0 -1 10 4096 0 -2").ok());
  EXPECT_TRUE(ParseTraceLine("1 0 -1 10 4096 0 0").ok());
}

TEST(TraceFileTest, SaveLoadRoundTrips) {
  WorkloadConfig c;
  c.seed = 5;
  c.count = 500;
  auto gen = SyntheticGenerator::Create(c);
  ASSERT_TRUE(gen.ok());
  const auto reqs = DrainGenerator(**gen);

  const std::string path = TempPath("csfc_trace_test.txt");
  ASSERT_TRUE(SaveTrace(path, reqs).ok());
  auto loaded = LoadTrace(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->size(), reqs.size());
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ((*loaded)[i].arrival, reqs[i].arrival);
    EXPECT_EQ((*loaded)[i].cylinder, reqs[i].cylinder);
    EXPECT_TRUE((*loaded)[i].priorities == reqs[i].priorities);
  }
  std::remove(path.c_str());
}

TEST(TraceFileTest, LoadRejectsMissingFile) {
  auto r = LoadTrace(TempPath("definitely_not_there.txt"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(TraceFileTest, LoadRejectsUnorderedTrace) {
  const std::string path = TempPath("csfc_unordered_trace.txt");
  {
    std::vector<Request> reqs(2);
    reqs[0].id = 0;
    reqs[0].arrival = 100;
    reqs[1].id = 1;
    reqs[1].arrival = 50;  // goes backwards
    ASSERT_TRUE(SaveTrace(path, reqs).ok());
  }
  auto r = LoadTrace(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(TraceFileTest, CommentsAndBlankLinesIgnored) {
  const std::string path = TempPath("csfc_comment_trace.txt");
  {
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("# a comment\n\n0 10 -1 5 100 0 0 1 2\n", f);
    fclose(f);
  }
  auto r = LoadTrace(path);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->size(), 1u);
  EXPECT_EQ((*r)[0].cylinder, 5u);
  EXPECT_EQ((*r)[0].priorities.size(), 2u);
  std::remove(path.c_str());
}

TEST(TraceReplayTest, ReplaysInOrder) {
  std::vector<Request> reqs(3);
  for (size_t i = 0; i < 3; ++i) {
    reqs[i].id = i;
    reqs[i].arrival = static_cast<SimTime>(i * 10);
  }
  TraceReplayGenerator gen(reqs);
  for (size_t i = 0; i < 3; ++i) {
    auto r = gen.Next();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->id, i);
  }
  EXPECT_FALSE(gen.Next().has_value());
}

TEST(TraceReplayTest, ReplaysShareOneTraceAndLeaveItUnchanged) {
  WorkloadConfig c;
  c.count = 50;
  auto gen = SyntheticGenerator::Create(c);
  ASSERT_TRUE(gen.ok());
  const std::vector<Request> trace = DrainGenerator(**gen);
  std::vector<std::string> lines;
  for (const Request& r : trace) lines.push_back(FormatTraceLine(r));

  // Interleaved replays keep their own positions; each hands out copies.
  TraceReplayGenerator a(trace), b(trace);
  for (size_t i = 0; i < trace.size(); ++i) {
    std::optional<Request> ra = a.Next();
    ASSERT_TRUE(ra.has_value());
    EXPECT_EQ(FormatTraceLine(*ra), lines[i]);
    ra->cylinder += 1;
    ra->priorities.clear();
    std::optional<Request> rb = b.Next();
    ASSERT_TRUE(rb.has_value());
    EXPECT_EQ(FormatTraceLine(*rb), lines[i]);
  }
  EXPECT_FALSE(a.Next().has_value());
  EXPECT_FALSE(b.Next().has_value());
  for (size_t i = 0; i < trace.size(); ++i) {
    EXPECT_EQ(FormatTraceLine(trace[i]), lines[i]);
  }
}

// A replay borrows its trace, so it cannot be built from a temporary.
static_assert(
    !std::is_constructible_v<TraceReplayGenerator, std::vector<Request>&&>);
static_assert(
    std::is_constructible_v<TraceReplayGenerator, const std::vector<Request>&>);

TEST(DrainGeneratorTest, RespectsMaxRequests) {
  WorkloadConfig c;
  c.count = 100;
  auto gen = SyntheticGenerator::Create(c);
  ASSERT_TRUE(gen.ok());
  const auto reqs = DrainGenerator(**gen, 10);
  EXPECT_EQ(reqs.size(), 10u);
}

}  // namespace
}  // namespace csfc
