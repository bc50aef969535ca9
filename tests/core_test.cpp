#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/cli.h"
#include "core/json.h"
#include "core/rng.h"
#include "core/stats.h"
#include "core/table.h"
#include "core/time.h"
#include "core/units.h"

namespace ms {
namespace {

// ---------------------------------------------------------------- time

TEST(Time, UnitConversionsRoundTrip) {
  EXPECT_EQ(seconds(1.0), kNsPerSec);
  EXPECT_EQ(milliseconds(1.0), kNsPerMs);
  EXPECT_EQ(microseconds(1.0), kNsPerUs);
  EXPECT_DOUBLE_EQ(to_seconds(seconds(2.5)), 2.5);
  EXPECT_DOUBLE_EQ(to_milliseconds(milliseconds(42.0)), 42.0);
  EXPECT_DOUBLE_EQ(to_hours(hours(3.0)), 3.0);
  EXPECT_DOUBLE_EQ(to_days(days(1.5)), 1.5);
}

TEST(Time, MinutesAndHoursCompose) {
  EXPECT_EQ(minutes(1.0), seconds(60.0));
  EXPECT_EQ(hours(1.0), minutes(60.0));
  EXPECT_EQ(days(1.0), hours(24.0));
}

TEST(Time, FormatDurationPicksUnit) {
  EXPECT_EQ(format_duration(nanoseconds(5)), "5ns");
  EXPECT_EQ(format_duration(microseconds(12.0)), "12.000us");
  EXPECT_EQ(format_duration(milliseconds(3.5)), "3.500ms");
  EXPECT_EQ(format_duration(seconds(1.25)), "1.250s");
  EXPECT_EQ(format_duration(minutes(2.0)), "2.00min");
  EXPECT_EQ(format_duration(hours(5.0)), "5.00h");
}

TEST(Time, FormatNegativeDuration) {
  EXPECT_EQ(format_duration(-seconds(1.5)), "-1.500s");
}

// ---------------------------------------------------------------- units

TEST(Units, BandwidthConversions) {
  EXPECT_DOUBLE_EQ(gbps(400.0), 50e9);  // 400 Gb/s == 50 GB/s
  EXPECT_DOUBLE_EQ(to_gbps(gbps(200.0)), 200.0);
  EXPECT_DOUBLE_EQ(to_gBps(gBps(25.0)), 25.0);
}

TEST(Units, ByteLiterals) {
  EXPECT_EQ(1_KiB, 1024);
  EXPECT_EQ(1_MiB, 1024 * 1024);
  EXPECT_EQ(2_GiB, 2LL << 30);
}

// ---------------------------------------------------------------- rng

TEST(Rng, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanApproximatesHalf) {
  Rng r(11);
  RunningStat s;
  for (int i = 0; i < 100000; ++i) s.add(r.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, NormalMoments) {
  Rng r(13);
  RunningStat s;
  for (int i = 0; i < 200000; ++i) s.add(r.normal(3.0, 2.0));
  EXPECT_NEAR(s.mean(), 3.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng r(17);
  RunningStat s;
  for (int i = 0; i < 200000; ++i) s.add(r.exponential(5.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
  EXPECT_GE(s.min(), 0.0);
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng r(19);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(-2, 3);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 6u);  // all values hit
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  Rng r(23);
  auto idx = r.sample_without_replacement(100, 30);
  EXPECT_EQ(idx.size(), 30u);
  std::set<std::size_t> uniq(idx.begin(), idx.end());
  EXPECT_EQ(uniq.size(), 30u);
  for (auto i : idx) EXPECT_LT(i, 100u);
}

TEST(Rng, SampleAllIsPermutation) {
  Rng r(29);
  auto idx = r.sample_without_replacement(10, 10);
  std::set<std::size_t> uniq(idx.begin(), idx.end());
  EXPECT_EQ(uniq.size(), 10u);
}

TEST(Rng, ForkIndependent) {
  Rng parent(31);
  Rng child = parent.fork();
  // Child stream should not mirror parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.next_u64() == child.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ChanceExtremes) {
  Rng r(37);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
  }
}

TEST(Rng, ShuffleKeepsElements) {
  Rng r(41);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  r.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// ---------------------------------------------------------------- stats

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);  // sample stddev
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, MergeEqualsCombined) {
  Rng r(43);
  RunningStat a, b, all;
  for (int i = 0; i < 1000; ++i) {
    const double v = r.normal();
    if (i % 2) {
      a.add(v);
    } else {
      b.add(v);
    }
    all.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
}

TEST(RunningStat, EmptyIsSafe) {
  RunningStat s;
  EXPECT_TRUE(s.empty());
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Percentiles, QuantilesOfKnownSet) {
  Percentiles p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_NEAR(p.median(), 50.5, 1e-9);
  EXPECT_NEAR(p.quantile(0.0), 1.0, 1e-9);
  EXPECT_NEAR(p.quantile(1.0), 100.0, 1e-9);
  EXPECT_NEAR(p.p99(), 99.01, 1e-9);
}

TEST(Percentiles, InterleavedAddAndQuery) {
  Percentiles p;
  p.add(3.0);
  p.add(1.0);
  EXPECT_NEAR(p.median(), 2.0, 1e-9);
  p.add(2.0);
  EXPECT_NEAR(p.median(), 2.0, 1e-9);
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(0.0, 10.0, 10);
  for (int i = 0; i < 10; ++i) h.add(i + 0.5);
  h.add(-1.0);
  h.add(11.0);
  EXPECT_EQ(h.total(), 12u);
  EXPECT_EQ(h.underflow(), 1u);
  EXPECT_EQ(h.overflow(), 1u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(h.bucket(i), 1u);
  EXPECT_DOUBLE_EQ(h.bucket_lo(3), 3.0);
  EXPECT_DOUBLE_EQ(h.bucket_hi(3), 4.0);
}

TEST(Histogram, AsciiRenders) {
  Histogram h(0.0, 4.0, 4);
  h.add(0.5);
  h.add(1.5);
  h.add(1.6);
  const std::string art = h.ascii(20);
  EXPECT_NE(art.find('#'), std::string::npos);
}

TEST(Series, TailMean) {
  Series s;
  for (int i = 0; i < 10; ++i) s.add(i, i);
  EXPECT_DOUBLE_EQ(s.tail_mean(2), 8.5);
  EXPECT_DOUBLE_EQ(s.tail_mean(100), 4.5);  // clamped to size
}

TEST(Series, AsciiChartContainsGlyphs) {
  Series s1, s2;
  s1.name = "a";
  s2.name = "b";
  for (int i = 0; i < 20; ++i) {
    s1.add(i, std::sin(i * 0.3));
    s2.add(i, std::cos(i * 0.3));
  }
  const std::string chart = ascii_chart({s1, s2});
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find('o'), std::string::npos);
  EXPECT_NE(chart.find("a"), std::string::npos);
}

// ---------------------------------------------------------------- table

TEST(Table, RendersAlignedCells) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| alpha |"), std::string::npos);
  EXPECT_NE(s.find("22222"), std::string::npos);
  // Every line has equal width.
  std::size_t width = s.find('\n');
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t next = s.find('\n', pos);
    EXPECT_EQ(next - pos, width);
    pos = next + 1;
  }
}

TEST(Table, Formatters) {
  EXPECT_EQ(Table::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(Table::fmt_int(1234), "1234");
  EXPECT_EQ(Table::fmt_pct(0.552), "55.2%");
}

// --------------------------------------------------------- hdr histogram

TEST(HdrHistogram, TracksMomentsExactly) {
  HdrHistogram h;
  EXPECT_TRUE(h.empty());
  h.add(0.001);
  h.add(0.002);
  h.add(0.003, 2);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.009);
  EXPECT_DOUBLE_EQ(h.mean(), 0.00225);
  EXPECT_DOUBLE_EQ(h.min(), 0.001);
  EXPECT_DOUBLE_EQ(h.max(), 0.003);
}

TEST(HdrHistogram, QuantilesWithinBucketResolution) {
  HdrHistogram h;
  for (int i = 1; i <= 1000; ++i) h.add(i * 1e-3);  // 1ms .. 1s uniform
  // 32 buckets/decade => ~7.5% relative bucket width; allow 10%.
  EXPECT_NEAR(h.p50(), 0.5, 0.05);
  EXPECT_NEAR(h.p99(), 0.99, 0.1);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), h.min());
  EXPECT_DOUBLE_EQ(h.quantile(1.0), h.max());
}

TEST(HdrHistogram, MergeEqualsCombinedStream) {
  // The fixed bucket layout makes merge exact: merging per-rank sketches
  // gives the same sketch as observing the union.
  HdrHistogram a, b, combined;
  for (int i = 1; i <= 40; ++i) {
    const double x = i * 2.5e-4;
    (i % 2 == 0 ? a : b).add(x);
    combined.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.total(), combined.total());
  EXPECT_DOUBLE_EQ(a.sum(), combined.sum());
  EXPECT_DOUBLE_EQ(a.p50(), combined.p50());
  const auto ba = a.nonzero_buckets();
  const auto bc = combined.nonzero_buckets();
  ASSERT_EQ(ba.size(), bc.size());
  for (std::size_t i = 0; i < ba.size(); ++i) {
    EXPECT_DOUBLE_EQ(ba[i].lo, bc[i].lo);
    EXPECT_EQ(ba[i].count, bc[i].count);
  }
}

TEST(HdrHistogram, OutOfRangeAndNonFiniteGoToEdgeBuckets) {
  HdrHistogram h;
  h.add(0.0);    // below range -> underflow
  h.add(-5.0);   // negative -> underflow
  h.add(1e15);   // above range -> overflow
  h.add(0.5);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 1e15);
  // Quantiles stay clamped to observed extremes.
  EXPECT_LE(h.quantile(1.0), 1e15);
}

TEST(HdrHistogram, BucketsCoverValues) {
  HdrHistogram h;
  h.add(0.37);
  const auto buckets = h.nonzero_buckets();
  ASSERT_EQ(buckets.size(), 1u);
  EXPECT_LE(buckets[0].lo, 0.37);
  EXPECT_GT(buckets[0].hi, 0.37);
  EXPECT_EQ(buckets[0].count, 1u);
}

// ---------------------------------------------------------------- json

TEST(Json, EscapeCoversQuotesBackslashesAndControls) {
  EXPECT_EQ(json::escape("plain"), "plain");
  EXPECT_EQ(json::escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json::escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json::escape("a\nb\tc\r"), "a\\nb\\tc\\r");
  EXPECT_EQ(json::escape(std::string("a\x01") + "b"), "a\\u0001b");
}

TEST(Json, ParseRoundTripsEscapedStrings) {
  const std::string original = "fwd \"q\" \\ \n\t\x02 end";
  json::Value v;
  ASSERT_TRUE(json::parse("\"" + json::escape(original) + "\"", v));
  EXPECT_EQ(v.kind, json::Value::Kind::kString);
  EXPECT_EQ(v.str, original);
}

TEST(Json, ParseFullValueGrammar) {
  json::Value v;
  ASSERT_TRUE(json::parse(
      R"({"a":1.5,"b":[true,false,null],"c":{"n":-2e3},"s":"x"})", v));
  ASSERT_TRUE(v.is_object());
  EXPECT_DOUBLE_EQ(v.num("a"), 1.5);
  ASSERT_EQ(v.at("b").size(), 3u);
  EXPECT_TRUE(v.at("b")[0].boolean);
  EXPECT_EQ(v.at("b")[2].kind, json::Value::Kind::kNull);
  EXPECT_DOUBLE_EQ(v.at("c").num("n"), -2000.0);
  EXPECT_EQ(v.text("s"), "x");
  EXPECT_EQ(v.text("missing", "dflt"), "dflt");
}

TEST(Json, ParseRejectsMalformedInput) {
  json::Value v;
  EXPECT_FALSE(json::parse("", v));
  EXPECT_FALSE(json::parse("{", v));
  EXPECT_FALSE(json::parse("{\"a\":}", v));
  EXPECT_FALSE(json::parse("[1,]", v));
  EXPECT_FALSE(json::parse("\"unterminated", v));
  EXPECT_FALSE(json::parse("{} trailing", v));
}

TEST(Json, ParseRejectsNumbersThatDoNotFullyConvert) {
  json::Value v;
  EXPECT_FALSE(json::parse("1e", v));
  EXPECT_FALSE(json::parse("[2e+]", v));
  EXPECT_FALSE(json::parse("{\"a\":-3E}", v));
  ASSERT_TRUE(json::parse("[1.5e3,-0.25,7]", v));
  EXPECT_DOUBLE_EQ(v[0].number, 1500.0);
}

TEST(Json, ParseReportsErrorWithByteOffset) {
  json::Value v;
  std::string error;
  EXPECT_FALSE(json::parse("[1,]", v, &error));
  EXPECT_EQ(error, "malformed JSON at byte 3");
  EXPECT_FALSE(json::parse("{} trailing", v, &error));
  EXPECT_EQ(error, "trailing characters at byte 3");
}

TEST(Json, ParseBoundsNestingDepth) {
  // 200k '[' then 200k ']' used to recurse until the stack overflowed.
  const std::string hostile =
      std::string(200000, '[') + std::string(200000, ']');
  json::Value v;
  std::string error;
  EXPECT_FALSE(json::parse(hostile, v, &error));
  EXPECT_EQ(error, "nesting deeper than 256 levels at byte 256");
  std::string objects;
  for (int i = 0; i < 200000; ++i) objects += "{\"a\":";
  EXPECT_FALSE(json::parse(objects, v, &error));
  EXPECT_EQ(error, "nesting deeper than 256 levels at byte 1280");
  // The limit itself still parses.
  ASSERT_TRUE(json::parse(std::string(256, '[') + std::string(256, ']'), v));
  EXPECT_TRUE(v.is_array());
  EXPECT_FALSE(
      json::parse(std::string(257, '[') + std::string(257, ']'), v, &error));
}

TEST(Json, ParseDecodesUnicodeEscapes) {
  json::Value v;
  ASSERT_TRUE(json::parse("\"a\\u0041\\u00e9\"", v));
  EXPECT_EQ(v.str, "aA\xc3\xa9");
}

// ----------------------------------------------------------------- cli

TEST(CliNumber, IntegersMustBeWholeTokensThatFit) {
  int i = 7;
  EXPECT_TRUE(cli::parse_number("-42", i));
  EXPECT_EQ(i, -42);
  for (const char* bad : {"", "64abc", "abc", " 5", "+5", "1.5", "1e3",
                          "2147483648", "0x10"}) {
    EXPECT_FALSE(cli::parse_number(bad, i)) << bad;
    EXPECT_EQ(i, -42) << "untouched on failure: " << bad;
  }
  std::int64_t wide = 0;
  EXPECT_TRUE(cli::parse_number("-9223372036854775808", wide));
  EXPECT_EQ(wide, std::numeric_limits<std::int64_t>::min());
  EXPECT_FALSE(cli::parse_number("9223372036854775808", wide));
}

TEST(CliNumber, CountsAreNonNegativeDecimal) {
  std::size_t n = 3;
  EXPECT_TRUE(cli::parse_number("010", n));
  EXPECT_EQ(n, 10u) << "decimal, as atoi read it";
  EXPECT_TRUE(cli::parse_number("18446744073709551615", n));
  EXPECT_EQ(n, std::numeric_limits<std::size_t>::max());
  for (const char* bad : {"-1", "18446744073709551616", "5x", ""}) {
    EXPECT_FALSE(cli::parse_number(bad, n)) << bad;
  }
}

TEST(CliNumber, SeedsReadDecimalAndHex) {
  std::uint64_t s = 0;
  EXPECT_TRUE(cli::parse_seed("1234567", s));
  EXPECT_EQ(s, 1234567u);
  EXPECT_TRUE(cli::parse_seed("0xC405", s));
  EXPECT_EQ(s, 0xC405u);
  EXPECT_TRUE(cli::parse_seed("0xffffffffffffffff", s));
  EXPECT_EQ(s, std::numeric_limits<std::uint64_t>::max());
  for (const char* bad : {"", "abc", "-1", " 1", "0x", "0x1g", "12abc",
                          "0x10000000000000000"}) {
    EXPECT_FALSE(cli::parse_seed(bad, s)) << bad;
  }
  EXPECT_EQ(s, std::numeric_limits<std::uint64_t>::max());
}

TEST(CliNumber, DoublesMustBeFinite) {
  double d = 1.0;
  EXPECT_TRUE(cli::parse_number("0.03", d));
  EXPECT_DOUBLE_EQ(d, 0.03);
  EXPECT_TRUE(cli::parse_number(".5", d));
  EXPECT_DOUBLE_EQ(d, 0.5);
  EXPECT_TRUE(cli::parse_number("-2e-3", d));
  EXPECT_DOUBLE_EQ(d, -2e-3);
  for (const char* bad : {"", "abc", "0.5x", "nan", "NaN", "inf", "-inf",
                          "infinity", "1e999", " 1"}) {
    EXPECT_FALSE(cli::parse_number(bad, d)) << bad;
  }
  EXPECT_DOUBLE_EQ(d, -2e-3);
}

struct CliFixture {
  std::string name = "default";
  std::string path, second;
  int count = 1;
  std::size_t top = 5;
  double budget = 0.5;
  std::uint64_t seed = 0;
  bool json = false;
  bool chart = true;
  cli::Parser parser{"tool", "usage: tool <path> [--top K]\n"};
  std::ostringstream err;

  CliFixture() {
    parser.positional("<path>", path)
        .positional("<second>", second, false)
        .flag("--name", name)
        .flag("--count", count)
        .flag("--top", top)
        .flag("--budget", budget)
        .seed("--seed", seed)
        .toggle("--json", json)
        .toggle("--no-chart", chart, false);
  }
  bool parse(const std::vector<std::string>& args) {
    err.str("");
    return parser.parse(args, err);
  }
};

TEST(CliParser, BindsEveryKindAndPositionalsInOrder) {
  CliFixture f;
  ASSERT_TRUE(f.parse({"a.jsonl", "--name", "--dash-value", "--count", "-3",
                       "--top", "9", "--budget", "0.25", "--seed", "0x2a",
                       "--json", "--no-chart", "b.jsonl"}))
      << f.err.str();
  EXPECT_EQ(f.path, "a.jsonl");
  EXPECT_EQ(f.second, "b.jsonl");
  EXPECT_EQ(f.name, "--dash-value") << "a value is the next token, always";
  EXPECT_EQ(f.count, -3);
  EXPECT_EQ(f.top, 9u);
  EXPECT_DOUBLE_EQ(f.budget, 0.25);
  EXPECT_EQ(f.seed, 42u);
  EXPECT_TRUE(f.json);
  EXPECT_FALSE(f.chart);
  EXPECT_TRUE(f.parser.seen("--seed"));
  EXPECT_FALSE(f.parser.seen("--bogus"));
  EXPECT_TRUE(f.err.str().empty());
}

TEST(CliParser, RepeatedFlagKeepsTheLastValue) {
  CliFixture f;
  ASSERT_TRUE(f.parse({"p", "--top", "3", "--name", "x", "--top", "7",
                       "--name", "y"}));
  EXPECT_EQ(f.top, 7u);
  EXPECT_EQ(f.name, "y");
  EXPECT_EQ(f.second, "") << "an optional positional may stay empty";
  EXPECT_TRUE(f.parse({"p"}));
  EXPECT_FALSE(f.parser.seen("--top")) << "seen() reflects the last parse";
}

TEST(CliParser, MalformedLinesFailWithAMessageAndUsage) {
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases =
      {{{"--top"}, "tool: --top needs a value\n"},
       {{"p", "--seed"}, "tool: --seed needs a value\n"},
       {{"--bogus"}, "tool: unknown flag --bogus\n"},
       {{"-h"}, "tool: unknown flag -h\n"},
       {{"a", "b", "c"}, "tool: unexpected argument \"c\"\n"},
       {{"--json"}, "tool: missing <path>\n"},
       {{"--count", "64abc"},
        "tool: invalid value \"64abc\" for --count (expected an integer)\n"},
       {{"--top", "-1"},
        "tool: invalid value \"-1\" for --top (expected a non-negative "
        "integer)\n"},
       {{"--budget", "nan"},
        "tool: invalid value \"nan\" for --budget (expected a finite "
        "number)\n"},
       {{"--seed", "abc"},
        "tool: invalid value \"abc\" for --seed (expected an unsigned 64-bit "
        "integer)\n"}};
  for (const auto& [args, message] : cases) {
    CliFixture f;
    EXPECT_FALSE(f.parse(args)) << message;
    EXPECT_EQ(f.err.str(), message + "usage: tool <path> [--top K]\n");
  }
}

TEST(CliParser, ErrorPrefixesTheToolAndAppendsUsage) {
  CliFixture f;
  f.parser.error(f.err, "--seeds must be at least 1");
  EXPECT_EQ(f.err.str(),
            "tool: --seeds must be at least 1\nusage: tool <path> [--top K]\n");
}

}  // namespace
}  // namespace ms
