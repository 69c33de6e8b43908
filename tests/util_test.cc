// Tests for util: RNG, statistics, tables, CLI parsing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "util/cli.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/timer.h"

namespace locs {
namespace {

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.Next() == b.Next();
  EXPECT_LT(same, 3);
}

TEST(RngTest, BelowIsInRange) {
  Rng rng(7);
  for (uint64_t bound : {1u, 2u, 3u, 10u, 1000u}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.Below(bound), bound);
  }
}

TEST(RngTest, BelowIsRoughlyUniform) {
  Rng rng(11);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.Below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(3);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    const int64_t x = rng.Range(-2, 2);
    EXPECT_GE(x, -2);
    EXPECT_LE(x, 2);
    saw_lo |= x == -2;
    saw_hi |= x == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, ShufflePreservesMultiset) {
  Rng rng(9);
  std::vector<int> items = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = items;
  rng.Shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, items);
}

TEST(RngTest, SampleDistinctProducesDistinctSorted) {
  Rng rng(13);
  for (size_t count : {0u, 1u, 5u, 50u, 99u}) {
    const auto sample = rng.SampleDistinct(100, count);
    ASSERT_EQ(sample.size(), count);
    for (size_t i = 1; i < sample.size(); ++i) {
      EXPECT_LT(sample[i - 1], sample[i]);
    }
    for (uint64_t v : sample) EXPECT_LT(v, 100u);
  }
}

TEST(RngTest, PowerLawBoundsRespected) {
  Rng rng(17);
  for (int i = 0; i < 5000; ++i) {
    const int64_t x = rng.PowerLaw(3, 50, 2.0);
    EXPECT_GE(x, 3);
    EXPECT_LE(x, 50);
  }
}

TEST(RngTest, PowerLawSkewsLow) {
  Rng rng(19);
  int low = 0;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    low += rng.PowerLaw(1, 100, 2.5) <= 2;
  }
  // For exponent 2.5 over [1,100] the mass at {1,2} is > 80%.
  EXPECT_GT(low, kDraws * 7 / 10);
}

TEST(StatsTest, EmptySummary) {
  const Summary s = Summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(StatsTest, SingleSample) {
  const Summary s = Summarize({3.5});
  EXPECT_EQ(s.count, 1u);
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_DOUBLE_EQ(s.stddev, 0.0);
  EXPECT_DOUBLE_EQ(s.median, 3.5);
}

TEST(StatsTest, KnownValues) {
  const Summary s = Summarize({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 2.0);
  EXPECT_DOUBLE_EQ(s.max, 9.0);
  EXPECT_DOUBLE_EQ(s.median, 4.5);
  // Linear interpolation between the 7th and 8th order statistics.
  EXPECT_NEAR(s.p99, 7.0 + 2.0 * 0.93, 1e-12);
}

TEST(StatsTest, OnlineMatchesBatch) {
  std::vector<double> samples;
  Rng rng(23);
  OnlineStats online;
  for (int i = 0; i < 500; ++i) {
    const double x = rng.NextDouble() * 10.0;
    samples.push_back(x);
    online.Add(x);
  }
  const Summary batch = Summarize(samples);
  EXPECT_NEAR(online.mean(), batch.mean, 1e-9);
  EXPECT_NEAR(online.stddev(), batch.stddev, 1e-9);
  EXPECT_DOUBLE_EQ(online.min(), batch.min);
  EXPECT_DOUBLE_EQ(online.max(), batch.max);
  EXPECT_EQ(online.count(), batch.count);
}

TEST(TableTest, AlignedRendering) {
  TableWriter table({"name", "value"});
  table.Row().Cell("alpha").Num(int64_t{1});
  table.Row().Cell("b").Num(2.5, 1);
  const std::string out = table.Render();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("2.5"), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(TableTest, CsvRendering) {
  TableWriter table({"a", "b"});
  table.Row().Num(int64_t{1}).Num(int64_t{2});
  const std::string csv = table.RenderCsv("tag");
  EXPECT_NE(csv.find("CSV,tag,a,b"), std::string::npos);
  EXPECT_NE(csv.find("CSV,tag,1,2"), std::string::npos);
}

TEST(FormatTest, FormatCount) {
  EXPECT_EQ(FormatCount(0), "0");
  EXPECT_EQ(FormatCount(999), "999");
  EXPECT_EQ(FormatCount(1000), "1,000");
  EXPECT_EQ(FormatCount(1234567), "1,234,567");
}

/// OnlyKnownFlags' verdict on `args` (argv[0] prepended), "" when it
/// accepts them, for the flags --count, --name and the switch --flag.
std::string FlagsError(std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  const CommandLine cli(static_cast<int>(argv.size()), argv.data());
  static constexpr std::string_view kFlags[] = {"count", "name"};
  static constexpr std::string_view kSwitches[] = {"flag"};
  std::string error;
  return cli.OnlyKnownFlags(kFlags, &error, kSwitches) ? "" : error;
}

TEST(CliTest, ParsesFlags) {
  const char* argv[] = {"prog", "--alpha=2.5", "--name=foo", "--flag",
                        "--count=42"};
  CommandLine cli(5, const_cast<char**>(argv));
  static constexpr std::string_view kFlags[] = {"alpha", "name", "count",
                                                "missing"};
  static constexpr std::string_view kSwitches[] = {"flag"};
  std::string error;
  ASSERT_TRUE(cli.OnlyKnownFlags(kFlags, &error, kSwitches)) << error;
  EXPECT_TRUE(cli.Has("alpha"));
  EXPECT_FALSE(cli.Has("beta"));
  EXPECT_TRUE(cli.Has("flag"));
  EXPECT_EQ(cli.GetString("name", ""), "foo");
  EXPECT_EQ(cli.GetString("missing", "fallback"), "fallback");
  double alpha = 0.0;
  ASSERT_TRUE(ReadFinite(cli, "alpha", &alpha, &error)) << error;
  EXPECT_DOUBLE_EQ(alpha, 2.5);
  uint32_t count = 0;
  ASSERT_TRUE(ReadWhole(cli, "count", &count, &error)) << error;
  EXPECT_EQ(count, 42u);
  uint32_t missing = 7;
  ASSERT_TRUE(ReadWhole(cli, "missing", &missing, &error)) << error;
  EXPECT_EQ(missing, 7u);
  // A value past the caller's bound names the flag.
  EXPECT_FALSE(ReadWhole(cli, "count", &count, &error, uint32_t{41}));
  EXPECT_NE(error.find("--count"), std::string::npos) << error;
  EXPECT_EQ(count, 42u);
}

TEST(CliTest, RejectsMalformedArgumentsNamingThem) {
  EXPECT_EQ(FlagsError({"--count=1", "--name=x", "--flag"}), "");
  EXPECT_EQ(FlagsError({"--name="}), "");  // an empty value is a value
  const std::pair<std::vector<std::string>, std::string> cases[] = {
      {{"--count=1", "extra"}, "'extra'"},
      {{"-count=1"}, "'-count=1'"},
      {{"--"}, "'--'"},
      {{"--=5"}, "'--=5'"},
      {{"--count=1", "--count=2"}, "--count given more than once"},
      {{"--flag", "--flag"}, "--flag given more than once"},
      {{"--frobnicate=1"}, "unknown flag --frobnicate"},
      {{"--flag=true"}, "--flag takes no value"},
      {{"--flag="}, "--flag takes no value"},
      {{"--count"}, "--count needs a value"},
  };
  for (const auto& [args, expected] : cases) {
    const std::string error = FlagsError(args);
    EXPECT_NE(error.find(expected), std::string::npos)
        << args.front() << ": '" << error << "'";
  }
}

TEST(CliTest, ParseWholeTakesOnlyWholeTokens) {
  EXPECT_EQ(ParseWhole<uint32_t>("42"), 42u);
  EXPECT_EQ(ParseWhole<uint32_t>("4294967295"), 4294967295u);
  for (const char* bad : {"", " 1", "1 ", "+5", "-1", "12x", "0x10", "1.5",
                          "4294967296"}) {
    EXPECT_FALSE(ParseWhole<uint32_t>(bad).has_value()) << bad;
  }
  EXPECT_EQ(ParseWhole<double>("-2.5"), -2.5);
  EXPECT_EQ(ParseWhole<double>("inf"),
            std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isnan(*ParseWhole<double>("nan")));
  for (const char* bad : {"", "+1", "1e400", "2.5ms", " 1"}) {
    EXPECT_FALSE(ParseWhole<double>(bad).has_value()) << bad;
  }
}

TEST(CliTest, NumberReadersCheckTheirRange) {
  // Whether --x=`text` reads as a finite number (non-negative unless
  // `allow_negative`); a rejection names the flag.
  const auto reads = [](std::string text, bool allow_negative) {
    std::string arg = "--x=" + text;
    char* argv[] = {arg.data(), arg.data()};
    const CommandLine cli(2, argv);
    double value = 0.0;
    std::string error;
    const bool ok = ReadFinite(cli, "x", &value, &error, allow_negative);
    EXPECT_TRUE(ok || error.find("--x") != std::string::npos) << error;
    return ok;
  };
  EXPECT_TRUE(reads("0", false));
  EXPECT_TRUE(reads("12.5", false));
  EXPECT_FALSE(reads("-1", false));
  EXPECT_FALSE(reads("inf", false));
  EXPECT_FALSE(reads("nan", false));
  EXPECT_TRUE(reads("-1", true));
  EXPECT_FALSE(reads("-inf", true));
  EXPECT_FALSE(reads("nan", true));
  EXPECT_FALSE(reads("abc", true));
}

TEST(CliTest, BenchScaleDefault) {
  unsetenv("LOCS_BENCH_SCALE");
  EXPECT_DOUBLE_EQ(BenchScaleFromEnv(), 1.0);
  setenv("LOCS_BENCH_SCALE", "2.5", 1);
  EXPECT_DOUBLE_EQ(BenchScaleFromEnv(), 2.5);
  // A malformed or non-positive scale exits 2 naming the variable; it
  // never falls back to full scale.
  for (const char* bad : {"-1", "0", "abc", "0.5x", "", "inf"}) {
    setenv("LOCS_BENCH_SCALE", bad, 1);
    EXPECT_EXIT(BenchScaleFromEnv(), ::testing::ExitedWithCode(2),
                "LOCS_BENCH_SCALE")
        << bad;
  }
  unsetenv("LOCS_BENCH_SCALE");
}

TEST(TimerTest, MeasuresElapsed) {
  WallTimer timer;
  volatile double sink = 0.0;
  // Plain assignment: compound assignment to a volatile is deprecated in
  // C++20.
  for (int i = 0; i < 100000; ++i) sink = sink + std::sqrt(i);
  EXPECT_GT(timer.Micros(), 0.0);
  EXPECT_GE(timer.Millis(), 0.0);
  timer.Restart();
  EXPECT_LT(timer.Seconds(), 1.0);
}

}  // namespace
}  // namespace locs
