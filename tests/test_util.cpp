// Unit tests for the util library: PRNG determinism and distribution sanity,
// timers, CLI parsing, table rendering, CRC32.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "util/cli.hpp"
#include "util/crc32.hpp"
#include "util/prng.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

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

TEST(Timer, AccumSumsWindows) {
  du::AccumTimer acc;
  for (int i = 0; i < 3; ++i) {
    acc.start();
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    acc.stop();
  }
  EXPECT_EQ(acc.count(), 3);
  EXPECT_GE(acc.seconds(), 0.010);
}

TEST(Timer, ScopedAccumStopsOnDestruction) {
  du::AccumTimer acc;
  {
    du::ScopedAccum scope(acc);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(acc.count(), 1);
  EXPECT_GT(acc.seconds(), 0.0);
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
