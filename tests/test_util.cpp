// Unit tests for the util library: PRNG determinism and distribution sanity,
// timers and breakdown spans, CLI parsing, table rendering, CRC32.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "util/cli.hpp"
#include "util/crc32.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"
#include "util/trace.hpp"

namespace du = dlouvain::util;

TEST(Prng, SplitmixIsDeterministic) {
  std::uint64_t s1 = 42;
  std::uint64_t s2 = 42;
  for (int i = 0; i < 100; ++i) EXPECT_EQ(du::splitmix64(s1), du::splitmix64(s2));
}

TEST(Prng, MixSeparatesNearbyKeys) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t k = 0; k < 1000; ++k) seen.insert(du::mix64(k));
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(Prng, HashRandUnitInRange) {
  for (std::uint64_t k = 0; k < 10000; ++k) {
    const double x = du::hash_rand_unit(k);
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Prng, HashRandUnitIsUniformish) {
  // Mean of U(0,1) over 100k keyed draws should be close to 0.5.
  double sum = 0;
  const int n = 100000;
  for (int k = 0; k < n; ++k) sum += du::hash_rand_unit(7, k, 3, 5);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Prng, KeyedDrawIndependentOfCallOrder) {
  const double a = du::hash_rand_unit(1, 2, 3, 4);
  (void)du::hash_rand_unit(9, 9, 9, 9);
  EXPECT_EQ(a, du::hash_rand_unit(1, 2, 3, 4));
}

TEST(Prng, XoshiroSequenceDeterministic) {
  du::Xoshiro256StarStar g1(123);
  du::Xoshiro256StarStar g2(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(g1(), g2());
}

TEST(Prng, XoshiroNextBelowRespectsBound) {
  du::Xoshiro256StarStar gen(5);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(gen.next_below(17), 17u);
}

TEST(Prng, XoshiroNextBelowCoversRange) {
  du::Xoshiro256StarStar gen(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(gen.next_below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Prng, XoshiroUnitInRange) {
  du::Xoshiro256StarStar gen(11);
  for (int i = 0; i < 10000; ++i) {
    const double x = gen.next_unit();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Timer, MeasuresElapsedTime) {
  du::WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.seconds(), 0.015);
}

// The stage timer is a TraceSpan with a breakdown bucket: each span adds its
// window to the bucket, whether or not a trace buffer records it too.
TEST(Timer, AccumSumsWindows) {
  // Trace off: a span with a bucket still times it, window after window.
  double bucket = 0;
  for (int i = 0; i < 3; ++i) {
    const du::TraceSpan span(nullptr, &bucket, "stage", "compute");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(bucket, 0.015);

  // Trace on: the bucket holds exactly the durations the buffer recorded.
  du::TraceStore store(1, 16);
  double traced = 0;
  for (int i = 0; i < 3; ++i) {
    const du::TraceSpan span(store.buffer(0), &traced, "stage", "compute", 0, i);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto events = store.buffer(0)->drain();
  ASSERT_EQ(events.size(), 3u);
  double recorded_us = 0;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(std::string_view(events[i].name), "stage");
    EXPECT_EQ(events[i].iteration, static_cast<std::int64_t>(i));
    recorded_us += events[i].dur_us;
  }
  EXPECT_GE(traced, 0.003);
  EXPECT_NEAR(traced, recorded_us * 1e-6, 1e-12);
}

TEST(Timer, ScopedAccumStopsOnDestruction) {
  // The bucket and the buffer see a span only once it is destroyed.
  du::TraceStore store(1, 16);
  double bucket = 0;
  {
    const du::TraceSpan span(store.buffer(0), &bucket, "stage", "compute");
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(bucket, 0.0);
    EXPECT_TRUE(store.buffer(0)->drain().empty());
  }
  EXPECT_GT(bucket, 0.0);
  auto events = store.buffer(0)->drain();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string_view(events[0].name), "stage");

  // A span without a bucket records without timing anything.
  const double before = bucket;
  { const du::TraceSpan untimed(store.buffer(0), "other", "compute"); }
  EXPECT_EQ(bucket, before);
  events = store.buffer(0)->drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(std::string_view(events[1].name), "other");
}

TEST(Cli, ParsesSpaceAndEqualsForms) {
  const char* argv[] = {"prog", "--n", "32", "--alpha=0.25", "--verbose"};
  du::Cli cli(5, argv);
  EXPECT_EQ(cli.get_int("n", 1), 32);
  EXPECT_DOUBLE_EQ(cli.get_double("alpha", 0.0), 0.25);
  EXPECT_TRUE(cli.get_flag("verbose"));
  EXPECT_TRUE(cli.finish());
}

TEST(Cli, DefaultsApplyWhenMissing) {
  const char* argv[] = {"prog"};
  du::Cli cli(1, argv);
  EXPECT_EQ(cli.get_int("n", 7), 7);
  EXPECT_EQ(cli.get_string("name", "abc"), "abc");
  EXPECT_FALSE(cli.get_flag("x"));
  EXPECT_TRUE(cli.finish());
}

TEST(Cli, UnknownFlagFailsFinish) {
  const char* argv[] = {"prog", "--oops", "1"};
  du::Cli cli(3, argv);
  (void)cli.get_int("n", 7);
  EXPECT_FALSE(cli.finish());
}

TEST(Cli, ParsesIntAndDoubleLists) {
  const char* argv[] = {"prog", "--ranks", "2,4,8", "--alpha", "0.25,0.75"};
  du::Cli cli(5, argv);
  EXPECT_EQ(cli.get_int_list("ranks", {}), (std::vector<std::int64_t>{2, 4, 8}));
  EXPECT_EQ(cli.get_double_list("alpha", {}), (std::vector<double>{0.25, 0.75}));
  EXPECT_TRUE(cli.finish());
}

TEST(Cli, RejectsNumbersWithTrailingCharacters) {
  const char* argv[] = {"prog",    "--ranks", "2x",   "--alpha", "0.25x",
                        "--sizes", "2,4x",    "--n=", "--gamma", "1,x"};
  du::Cli cli(10, argv);
  try {
    (void)cli.get_int<int>("ranks", 1);
    ADD_FAILURE() << "--ranks 2x was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "--ranks value '2x' is not a whole number");
  }
  EXPECT_THROW((void)cli.get_double("alpha", 0.0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_int_list("sizes", {}), std::invalid_argument);
  EXPECT_THROW((void)cli.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_double_list("gamma", {}), std::invalid_argument);
}

TEST(Cli, RejectsNumbersOutsideTheStoredType) {
  const char* argv[] = {"prog",  "--ranks", "4294967298", "--queue", "-1",
                        "--big", "9223372036854775808",   "--alpha", "1e999"};
  du::Cli cli(9, argv);
  try {
    (void)cli.get_int<int>("ranks", 1);
    ADD_FAILURE() << "--ranks 4294967298 was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()), "--ranks value '4294967298' is out of range");
  }
  EXPECT_THROW((void)cli.get_int<std::size_t>("queue", 1), std::invalid_argument);
  EXPECT_THROW((void)cli.get_int("big", 0), std::invalid_argument);
  EXPECT_THROW((void)cli.get_double("alpha", 0.0), std::invalid_argument);
}

TEST(Cli, ParsesTheEdgesOfTheStoredType) {
  const char* argv[] = {"prog",   "--max",  "2147483647", "--min", "-2147483648",
                        "--seed", "18446744073709551615",   "--off", "-1"};
  du::Cli cli(9, argv);
  EXPECT_EQ(cli.get_int<int>("max", 0), 2147483647);
  EXPECT_EQ(cli.get_int<int>("min", 0), -2147483647 - 1);
  EXPECT_EQ(cli.get_int<std::uint64_t>("seed", 0), 18446744073709551615ULL);
  EXPECT_EQ(cli.get_int<int>("off", 0), -1);
  EXPECT_TRUE(cli.finish());
}

TEST(Cli, RejectsPositionalArguments) {
  const char* argv[] = {"prog", "stray"};
  EXPECT_THROW(du::Cli(2, argv), std::invalid_argument);
}

TEST(Table, AlignsColumnsAndCountsRows) {
  du::TextTable t({"name", "value"});
  t.add_row({"x", "1"});
  t.add_row({"longer-name", "2.5"});
  EXPECT_EQ(t.rows(), 2u);
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("longer-name"), std::string::npos);
  EXPECT_NE(s.find("name"), std::string::npos);
}

TEST(Table, FmtFormatsNumbers) {
  EXPECT_EQ(du::TextTable::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(du::TextTable::fmt(static_cast<long long>(42)), "42");
}

namespace {

/// Bitwise CRC32 (reflected IEEE polynomial, 8 shifts per byte): the
/// definition the table-driven Crc32 must reproduce.
std::uint32_t crc32_bitwise(const unsigned char* data, std::size_t size) {
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xffffffffu;
}

}  // namespace

TEST(Crc32, KnownAnswers) {
  constexpr std::string_view check = "123456789";
  EXPECT_EQ(du::crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(du::crc32(nullptr, 0), 0u);
  EXPECT_EQ(du::Crc32().value(), 0u);
}

TEST(Crc32, AnySplitMatchesOneShotAndBitwiseReference) {
  std::vector<unsigned char> bytes(64);
  std::uint64_t s = 7;
  for (auto& b : bytes) b = static_cast<unsigned char>(du::splitmix64(s));
  for (std::size_t len = 0; len <= bytes.size(); ++len) {
    const std::uint32_t want = crc32_bitwise(bytes.data(), len);
    ASSERT_EQ(du::crc32(bytes.data(), len), want) << "length " << len;
    for (std::size_t split = 0; split <= len; ++split) {
      du::Crc32 crc;
      crc.update(bytes.data(), split);
      crc.update(bytes.data() + split, len - split);
      ASSERT_EQ(crc.value(), want) << "length " << len << ", split " << split;
    }
  }
}

TEST(Crc32, UnalignedStartsOverALargeBuffer) {
  std::vector<unsigned char> bytes((1u << 20) + 8);
  std::uint64_t s = 11;
  for (auto& b : bytes) b = static_cast<unsigned char>(du::splitmix64(s) >> 24);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const std::size_t len = bytes.size() - 8;
    EXPECT_EQ(du::crc32(bytes.data() + offset, len), crc32_bitwise(bytes.data() + offset, len))
        << "offset " << offset;
  }
}
