// Direct unit tests for the table-driven flag parser behind csfc_sim /
// csfc_serve / csfc_golden (tools/cli_flags.h). The table is the whole
// point — a flag exists iff it was Add()ed, and the parser, the usage
// synopsis, and the help text all render from it — so the tests pin the
// parse semantics AND that the generated help can never disagree with
// what Parse() accepts.

#include "cli_flags.h"

#include <cstdio>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace csfc {
namespace tools {
namespace {

/// Runs Parse() over a brace-list of arguments (argv[0] supplied).
int ParseArgs(FlagSet& flags, std::vector<std::string> args) {
  std::vector<char*> argv;
  static std::string prog = "prog";
  argv.push_back(prog.data());
  for (std::string& a : args) argv.push_back(a.data());
  return flags.Parse(static_cast<int>(argv.size()), argv.data());
}

/// Captures what `fn` prints to its FILE* argument.
template <typename Fn>
std::string CaptureOutput(Fn fn) {
  std::FILE* f = std::tmpfile();
  EXPECT_NE(f, nullptr);
  fn(f);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::rewind(f);
  std::string out(static_cast<size_t>(size), '\0');
  const size_t got = std::fread(out.data(), 1, out.size(), f);
  out.resize(got);
  std::fclose(f);
  return out;
}

TEST(FlagSetTest, ParsesEveryValueKind) {
  std::string s;
  bool b = false;
  double d = 0.0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  size_t sz = 0;
  double lo = 0.0, hi = 0.0;

  FlagSet flags("t");
  flags.AddString("name", "S", "a string", &s);
  flags.AddBool("on", "a boolean", &b);
  flags.AddDouble("ratio", "a double", &d);
  flags.AddUint32("small", "a u32", &u32);
  flags.AddUint64("big", "a u64", &u64);
  flags.AddSize("bytes", "a size", &sz);
  flags.AddRange("window", "a range", &lo, &hi);

  EXPECT_EQ(ParseArgs(flags, {"--name=hello", "--on", "--ratio=2.5",
                              "--small=7", "--big=12345678901234",
                              "--bytes=4096", "--window=1.5:9.25"}),
            0);
  EXPECT_EQ(s, "hello");
  EXPECT_TRUE(b);
  EXPECT_DOUBLE_EQ(d, 2.5);
  EXPECT_EQ(u32, 7u);
  EXPECT_EQ(u64, 12345678901234ull);
  EXPECT_EQ(sz, 4096u);
  EXPECT_DOUBLE_EQ(lo, 1.5);
  EXPECT_DOUBLE_EQ(hi, 9.25);
}

TEST(FlagSetTest, EmptyCommandLineIsFine) {
  FlagSet flags("t");
  EXPECT_EQ(ParseArgs(flags, {}), 0);
}

TEST(FlagSetTest, UnknownFlagFails) {
  bool b = false;
  FlagSet flags("t");
  flags.AddBool("on", "a boolean", &b);
  EXPECT_EQ(ParseArgs(flags, {"--off"}), 2);
}

TEST(FlagSetTest, NonFlagArgumentFails) {
  FlagSet flags("t");
  EXPECT_EQ(ParseArgs(flags, {"positional"}), 2);
}

TEST(FlagSetTest, BooleanRejectsValue) {
  bool b = false;
  FlagSet flags("t");
  flags.AddBool("on", "a boolean", &b);
  EXPECT_EQ(ParseArgs(flags, {"--on=yes"}), 2);
  EXPECT_FALSE(b);
}

TEST(FlagSetTest, ValuedFlagRequiresValue) {
  double d = 0.0;
  FlagSet flags("t");
  flags.AddDouble("ratio", "a double", &d);
  EXPECT_EQ(ParseArgs(flags, {"--ratio"}), 2);
}

TEST(FlagSetTest, BadValuesFail) {
  double d = 0.0;
  uint32_t u = 0;
  uint64_t big = 0;
  double lo = 0.0, hi = 0.0;
  uint64_t blo = 0, bhi = 0;
  FlagSet flags("t");
  flags.AddDouble("ratio", "a double", &d);
  flags.AddUint32("n", "a u32", &u);
  flags.AddUint64("big", "a u64", &big);
  flags.AddRange("window", "a range", &lo, &hi);
  flags.AddRange("bytes", "a u64 range", &blo, &bhi);
  EXPECT_EQ(ParseArgs(flags, {"--ratio=fast"}), 2);
  EXPECT_EQ(ParseArgs(flags, {"--n=7seven"}), 2);
  EXPECT_EQ(ParseArgs(flags, {"--window=5"}), 2);  // missing LO:HI colon
  // Whole-token numbers: no sign on an unsigned flag, no wrap past the
  // type's range, no non-finite double, and both halves of LO:HI checked.
  for (const char* bad :
       {"--big=-1", "--n=-1", "--n=4294967297", "--big=18446744073709551616",
        "--ratio=nan", "--ratio=inf", "--ratio=-inf", "--ratio=1e999",
        "--ratio=", "--n= 7", "--bytes=5x:9y", "--bytes=5:9y", "--bytes=-5:9",
        "--window=abc:xyz", "--window=1:nan", "--window=:2"}) {
    EXPECT_EQ(ParseArgs(flags, {bad}), 2) << bad;
  }
  EXPECT_EQ(u, 0u);
  EXPECT_EQ(big, 0u);
  EXPECT_EQ(d, 0.0);
  EXPECT_EQ(blo, 0u);
  EXPECT_EQ(bhi, 0u);
  EXPECT_EQ(lo, 0.0);
  EXPECT_EQ(hi, 0.0);

  // A negative relative deadline parses as a number but is rejected when
  // the workload is built, naming the flag; --relaxed drops deadlines.
  for (const char* bad : {"--deadline=-50:100", "--deadline=-50:-10"}) {
    WorkloadFlags w;
    FlagSet workload("t");
    AddWorkloadFlags(workload, &w);
    ASSERT_EQ(ParseArgs(workload, {bad}), 0) << bad;
    const auto gen = MakeWorkloadGenerator(w);
    ASSERT_FALSE(gen.ok()) << bad;
    EXPECT_NE(gen.status().message().find("--deadline"), std::string::npos)
        << gen.status().ToString();
    w.cfg.relaxed_deadlines = true;
    EXPECT_TRUE(MakeWorkloadGenerator(w).ok()) << bad;
  }
}

TEST(FlagSetTest, LastOccurrenceWins) {
  std::string s;
  FlagSet flags("t");
  flags.AddString("name", "S", "a string", &s);
  EXPECT_EQ(ParseArgs(flags, {"--name=first", "--name=second"}), 0);
  EXPECT_EQ(s, "second");
}

TEST(FlagSetTest, EmptyStringValueIsAccepted) {
  std::string s = "sentinel";
  FlagSet flags("t");
  flags.AddString("name", "S", "a string", &s);
  EXPECT_EQ(ParseArgs(flags, {"--name="}), 0);
  EXPECT_EQ(s, "");
}

TEST(FlagSetTest, UsageListsEveryFlagWithMetavars) {
  std::string s;
  bool b = false;
  FlagSet flags("mytool");
  flags.AddString("input", "FILE", "input path", &s);
  flags.AddBool("fast", "go fast", &b);
  const std::string usage =
      CaptureOutput([&](std::FILE* f) { flags.PrintUsage(f); });
  EXPECT_NE(usage.find("usage: mytool"), std::string::npos);
  EXPECT_NE(usage.find("[--input=FILE]"), std::string::npos);
  EXPECT_NE(usage.find("[--fast]"), std::string::npos);  // no metavar
}

TEST(FlagSetTest, HelpRendersFromTheSameTableAsTheParser) {
  // The drift the table design exists to prevent: every flag the parser
  // accepts appears in the help, and the help names no other flags.
  std::string s;
  double d = 0.0;
  bool b = false;
  FlagSet flags("t");
  flags.AddString("alpha", "S", "help for alpha", &s);
  flags.AddDouble("beta", "help for beta", &d);
  flags.AddBool("gamma", "help for gamma", &b);

  const std::string help =
      CaptureOutput([&](std::FILE* f) { flags.PrintHelp(f); });
  for (const char* name : {"--alpha=S", "--beta=X", "--gamma"}) {
    EXPECT_NE(help.find(name), std::string::npos) << name;
  }
  for (const char* text :
       {"help for alpha", "help for beta", "help for gamma"}) {
    EXPECT_NE(help.find(text), std::string::npos) << text;
  }
  // And every flag named in the table round-trips through Parse().
  EXPECT_EQ(ParseArgs(flags, {"--alpha=x", "--beta=1", "--gamma"}), 0);
}

TEST(FlagSetTest, SharedWorkloadAndSchedulerTablesParse) {
  // The blocks csfc_sim/csfc_serve/csfc_golden all register; one edit in
  // cli_flags.h must keep both the parse and the help path working.
  WorkloadFlags wf;
  SchedulerFlags sf;
  FlagSet flags("t");
  AddWorkloadFlags(flags, &wf);
  AddSchedulerFlags(flags, &sf);
  EXPECT_EQ(ParseArgs(flags, {"--workload=mpeg", "--users=12", "--seed=99",
                              "--sched=edf", "--deadline=40:90",
                              "--count=1000000", "--interarrival=25",
                              "--bytes=4096:65536"}),
            0);
  EXPECT_EQ(wf.kind, "mpeg");
  EXPECT_EQ(wf.users, 12u);
  EXPECT_EQ(wf.cfg.seed, 99u);
  EXPECT_EQ(sf.sched, "edf");
  EXPECT_DOUBLE_EQ(wf.cfg.deadline_lo_ms, 40.0);
  EXPECT_DOUBLE_EQ(wf.cfg.deadline_hi_ms, 90.0);
  EXPECT_EQ(wf.cfg.count, 1000000u);
  EXPECT_DOUBLE_EQ(wf.cfg.mean_interarrival_ms, 25.0);
  EXPECT_EQ(wf.cfg.bytes_lo, 4096u);
  EXPECT_EQ(wf.cfg.bytes_hi, 65536u);

  ServerConfig config;
  EXPECT_TRUE(ApplySchedulerFlags(sf, wf, &config).ok());
  EXPECT_EQ(config.scheduler, "edf");
}

}  // namespace
}  // namespace tools
}  // namespace csfc
