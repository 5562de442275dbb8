// Tests for the shared bench::Options vocabulary prtr-bench and the
// prtrsim CLI parse their common flags through, and for the --profile and
// --trace output every obs::BenchReport writes.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <vector>

#include "bench/options.hpp"
#include "obs/bench_io.hpp"
#include "obs/host.hpp"
#include "sim/trace.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace prtr::bench {
namespace {

Options parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "bench");
  return Options::parse("demo", static_cast<int>(argv.size()), argv.data());
}

TEST(BenchOptions, DefaultsAreQuiet) {
  const Options options = parse({});
  EXPECT_FALSE(options.jsonRequested());
  EXPECT_FALSE(options.traceRequested());
  EXPECT_FALSE(options.profileRequested());
  EXPECT_FALSE(options.seedSet());
  EXPECT_FALSE(options.helpRequested());
  EXPECT_GE(options.threads(), 1u);
  EXPECT_TRUE(options.rest().empty());
  EXPECT_EQ(options.seedOr(77), 77u);
}

TEST(BenchOptions, ParsesTheSharedVocabulary) {
  const Options options =
      parse({"--json", "out.json", "--trace", "t.json", "--profile", "p.json",
             "--threads", "3", "--seed", "123"});
  EXPECT_EQ(options.jsonPath(), "out.json");
  EXPECT_EQ(options.tracePath(), "t.json");
  EXPECT_EQ(options.profilePath(), "p.json");
  EXPECT_EQ(options.threads(), 3u);
  EXPECT_TRUE(options.seedSet());
  EXPECT_EQ(options.seed(), 123u);
  EXPECT_EQ(options.seedOr(77), 123u);
  EXPECT_TRUE(options.rest().empty());
}

TEST(BenchOptions, KeepsUnrecognisedArgumentsInOrder) {
  const Options options =
      parse({"--calls", "40", "--json", "o.json", "--timeline"});
  EXPECT_EQ(options.rest(),
            (std::vector<std::string>{"--calls", "40", "--timeline"}));
  EXPECT_EQ(options.jsonPath(), "o.json");
}

TEST(BenchOptions, RejectsMissingOrMalformedValues) {
  EXPECT_THROW(parse({"--json"}), util::DomainError);
  EXPECT_THROW(parse({"--threads"}), util::DomainError);
  EXPECT_THROW(parse({"--threads", "0"}), util::DomainError);
  EXPECT_THROW(parse({"--threads", "two"}), util::DomainError);
  EXPECT_THROW(parse({"--seed", "1x"}), util::DomainError);
}

// Each pool worker is an OS thread, so the count is bounded. Parse only:
// no pool is started here.
TEST(BenchOptions, RejectsThreadCountsAboveTheBound) {
  EXPECT_EQ(parse({"--threads", "256"}).threads(), Options::kMaxThreads);
  for (const char* value : {"257", "100000", "18446744073709551615"}) {
    try {
      (void)parse({"--threads", value});
      ADD_FAILURE() << "--threads " << value << " parsed";
    } catch (const util::DomainError& error) {
      EXPECT_NE(std::string{error.what()}.find("at most 256"),
                std::string::npos)
          << error.what();
    }
  }
}

// strtoull would take a sign or leading blanks (wrapping "-1" to 2^64 - 1)
// and saturate on overflow; the shared parser takes digits that fit only.
TEST(BenchOptions, RejectsSignsBlanksAndOverflow) {
  for (const char* flag : {"--threads", "--seed"}) {
    for (const char* value :
         {"-1", "+3", " 4", "4 ", "", "18446744073709551616",
          "99999999999999999999999"}) {
      EXPECT_THROW(parse({flag, value}), util::DomainError)
          << flag << " '" << value << "'";
    }
  }
  EXPECT_EQ(parse({"--seed", "18446744073709551615"}).seed(),
            18446744073709551615u);
  EXPECT_EQ(parseUnsigned("--requests", "0042"), 42u);
  try {
    (void)parseUnsigned("--requests", "-5");
    ADD_FAILURE() << "-5 parsed";
  } catch (const util::DomainError& error) {
    EXPECT_NE(std::string{error.what()}.find("--requests"), std::string::npos)
        << error.what();
  }
}

TEST(BenchOptions, UsageListsEveryFlagAndTheExtraBlock) {
  const std::string usage = Options::usage("demo", "  --calls N  call count");
  EXPECT_NE(usage.find("usage: demo"), std::string::npos);
  for (const char* flag :
       {"--json", "--trace", "--profile", "--threads", "--seed", "--help"}) {
    EXPECT_NE(usage.find(flag), std::string::npos) << flag;
  }
  EXPECT_NE(usage.find("--calls N"), std::string::npos);
  EXPECT_EQ(usage.back(), '\n');
}

TEST(BenchOptions, HelpFlagIsRecognisedAnywhere) {
  EXPECT_TRUE(parse({"--json", "o.json", "--help"}).helpRequested());
}

// Any BenchReport bench honours --profile: finish() writes the host
// histograms as a MetricsSnapshot JSON whose every name is under host.
TEST(BenchOptions, ProfileFlagWritesTheHostTimingsFromFinish) {
  const std::string path = testing::TempDir() + "bench_profile.json";
  const obs::BenchReport report{"demo", parse({"--profile", path.c_str()})};
  {
    const obs::HostTimer timer{"host.test.bench_report_ns"};
  }
  report.finish();

  std::ifstream in{path};
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  const util::json::Value doc = util::json::Value::parse(text.str());
  EXPECT_TRUE(doc.at("counters").asObject().empty());
  EXPECT_TRUE(doc.at("gauges").asObject().empty());
  const auto& histograms = doc.at("histograms").asObject();
  ASSERT_FALSE(histograms.empty());
  for (const auto& [name, summary] : histograms) {
    EXPECT_TRUE(name.starts_with("host.")) << name;
    EXPECT_GE(summary.at("count").asNumber(), 1.0) << name;
  }
  const util::json::Value* timed = doc.at("histograms").find(
      "host.test.bench_report_ns");
  ASSERT_NE(timed, nullptr);
  EXPECT_EQ(timed->at("count").asNumber(), 1.0);
  for (const char* field : {"sum", "min", "max", "p50", "p95", "p99"}) {
    EXPECT_NE(timed->find(field), nullptr) << field;
  }
}

// The report owns the trace: it hands one out only under --trace, and
// finish() writes whatever the case recorded into it.
TEST(BenchOptions, TraceIsHandedOutOnlyUnderTheFlagAndWrittenByFinish) {
  obs::BenchReport quiet{"demo", parse({})};
  EXPECT_EQ(quiet.trace(), nullptr);

  const std::string path = testing::TempDir() + "bench_trace.json";
  obs::BenchReport report{"demo", parse({"--trace", path.c_str()})};
  ASSERT_NE(report.trace(), nullptr);
  sim::Timeline timeline;
  timeline.record(timeline.lane("lane"), timeline.label("span"), '#',
                  util::Time::zero(), util::Time::microseconds(1));
  report.trace()->add("demo", timeline);
  report.finish();

  std::ifstream in{path};
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  EXPECT_EQ(text.str(), report.trace()->toJson());
}

}  // namespace
}  // namespace prtr::bench
