//===- tests/engine/engine_format_test.cpp - Buffer API equivalence ---------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The engine's char-buffer API must be byte-identical to the std::string
// convenience API for every input: same digits, same notation choice, same
// special-value spellings.  These tests sweep pseudo-random corpora
// (normals, subnormals, raw-bit finites) plus hand-picked edge values, and
// pin down the snprintf-like truncation contract.
//
//===----------------------------------------------------------------------===//

#include "dragon4.h"

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

using namespace dragon4;
namespace eng = dragon4::engine;

namespace {

/// Mixed corpus: uniform normals, subnormals, raw-bit finites, and the
/// classic edge values (10k values total, deterministic).
std::vector<double> corpus() {
  std::vector<double> Values = randomNormalDoubles(4000, 0xd1a60401);
  std::vector<double> Sub = randomSubnormalDoubles(3000, 0xd1a60402);
  Values.insert(Values.end(), Sub.begin(), Sub.end());
  std::vector<double> Bits = randomBitsDoubles(2960, 0xd1a60403);
  Values.insert(Values.end(), Bits.begin(), Bits.end());
  const double Edges[] = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.5,
      0.1,
      0.3,
      2.0 / 3.0,
      1e22,
      1e23,
      -1e23,
      123456.789,
      5e-324,                                  // Smallest subnormal.
      2.2250738585072014e-308,                 // Smallest normal.
      4.9406564584124654e-324,
      1.7976931348623157e308,                  // Largest finite.
      -1.7976931348623157e308,
      9007199254740992.0,                      // 2^53.
      9007199254740993.0,                      // 2^53 + 1 (rounds).
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
  };
  Values.insert(Values.end(), std::begin(Edges), std::end(Edges));
  return Values;
}

std::string viaBuffer(double Value, const PrintOptions &Options,
                      eng::Scratch &S) {
  char Buf[160];
  size_t Length = eng::format(Value, Buf, sizeof(Buf), Options, S);
  EXPECT_LE(Length, sizeof(Buf));
  return std::string(Buf, Length);
}

TEST(EngineFormat, MatchesToShortestDefaultOptions) {
  eng::Scratch S;
  for (double V : corpus())
    EXPECT_EQ(viaBuffer(V, PrintOptions{}, S), toShortest(V)) << V;
}

TEST(EngineFormat, MatchesToShortestAcrossOptionVariants) {
  eng::Scratch S;
  std::vector<double> Values = randomBitsDoubles(1500, 0xd1a60404);
  Values.push_back(0.1);
  Values.push_back(-6.0);
  for (unsigned Base : {2u, 10u, 16u}) {
    for (BoundaryMode Boundaries :
         {BoundaryMode::NearestEven, BoundaryMode::Conservative}) {
      PrintOptions Options;
      Options.Base = Base;
      Options.Boundaries = Boundaries;
      if (Base > 14)
        Options.ExponentMarker = '^'; // 'e' is a hex digit.
      for (double V : Values)
        EXPECT_EQ(viaBuffer(V, Options, S), toShortest(V, Options))
            << V << " base " << Base;
    }
  }
}

TEST(EngineFormat, MatchesToFixed) {
  eng::Scratch S;
  std::vector<double> Values = randomNormalDoubles(1200, 0xd1a60405);
  std::vector<double> Sub = randomSubnormalDoubles(600, 0xd1a60406);
  Values.insert(Values.end(), Sub.begin(), Sub.end());
  Values.push_back(0.0);
  Values.push_back(-0.0);
  Values.push_back(1.0 / 3.0);
  Values.push_back(1e300);
  Values.push_back(std::numeric_limits<double>::infinity());
  Values.push_back(std::numeric_limits<double>::quiet_NaN());
  char Buf[512]; // 1e308 spans ~309 integer digits.
  for (int FractionDigits : {0, 1, 5, 17}) {
    for (double V : Values) {
      size_t Length =
          eng::formatFixed(V, FractionDigits, Buf, sizeof(Buf),
                           PrintOptions{}, S);
      ASSERT_LE(Length, sizeof(Buf));
      EXPECT_EQ(std::string(Buf, Length), toFixed(V, FractionDigits))
          << V << " digits " << FractionDigits;
    }
  }
}

TEST(EngineFormat, TruncationReturnsFullLengthAndExactPrefix) {
  eng::Scratch S;
  const double Values[] = {0.1, -123456.789, 5e-324, 1e23,
                           std::numeric_limits<double>::quiet_NaN()};
  for (double V : Values) {
    char Full[160];
    size_t Length = eng::format(V, Full, sizeof(Full), PrintOptions{}, S);
    ASSERT_LE(Length, sizeof(Full));
    for (size_t Cap : {size_t(0), size_t(1), Length - 1, Length}) {
      char Small[160];
      std::memset(Small, 0x7f, sizeof(Small));
      size_t Reported = eng::format(V, Small, Cap, PrintOptions{}, S);
      EXPECT_EQ(Reported, Length) << V << " cap " << Cap;
      EXPECT_EQ(std::memcmp(Small, Full, std::min(Cap, Length)), 0)
          << V << " cap " << Cap;
      // Bytes past the capacity must be untouched.
      for (size_t I = Cap; I < sizeof(Small); ++I)
        ASSERT_EQ(Small[I], 0x7f) << V << " cap " << Cap << " byte " << I;
    }
  }
}

TEST(EngineFormat, NullBufferWithZeroCapacityMeasuresLength) {
  eng::Scratch S;
  size_t Length = eng::format(0.1, nullptr, 0, PrintOptions{}, S);
  EXPECT_EQ(Length, std::string("0.1").size());
}

TEST(EngineFormat, StatsAccounting) {
  eng::Scratch S;
  char Buf[64];
  eng::format(std::numeric_limits<double>::quiet_NaN(), Buf, sizeof(Buf),
              PrintOptions{}, S);
  eng::format(std::numeric_limits<double>::infinity(), Buf, sizeof(Buf),
              PrintOptions{}, S);
  eng::format(-0.0, Buf, sizeof(Buf), PrintOptions{}, S);
  std::vector<double> Values = randomBitsDoubles(500, 0xd1a60407);
  for (double V : Values)
    eng::format(V, Buf, sizeof(Buf), PrintOptions{}, S);
  // The asymmetric LowInclusive reader model bypasses Ryu (it needs
  // symmetric bounds), so a second pass populates the exact-path side of
  // the accounting.
  PrintOptions ExactOnly;
  ExactOnly.Boundaries = BoundaryMode::LowInclusive;
  for (double V : Values)
    eng::format(V, Buf, sizeof(Buf), ExactOnly, S);

  const eng::EngineStats &Stats = S.stats();
  EXPECT_EQ(Stats.Specials, 3u);
  EXPECT_EQ(Stats.Conversions, 2 * Values.size());
  EXPECT_EQ(Stats.RyuHits + Stats.slowPathRuns(), 2 * Values.size());
  // Default options all land on the Ryu front line (it certifies every
  // binary64 conversion); the LowInclusive pass all lands on the exact
  // loop, so both sides of the split must be fully populated.
  EXPECT_EQ(Stats.RyuHits, Values.size());
  EXPECT_EQ(Stats.RyuFallbacks, 0u);
  EXPECT_EQ(Stats.SlowPathDirect, Values.size());

  // The histogram covers exactly the slow-path runs.
  uint64_t HistogramTotal = 0;
  for (uint64_t Bucket : Stats.SlowDigitLength)
    HistogramTotal += Bucket;
  EXPECT_EQ(HistogramTotal, Stats.slowPathRuns());

  // Truncation is counted (and only then).
  EXPECT_EQ(Stats.Truncated, 0u);
  eng::format(123456.789, Buf, 3, PrintOptions{}, S);
  EXPECT_EQ(S.stats().Truncated, 1u);

  // takeStats drains.
  eng::EngineStats Taken = S.takeStats();
  EXPECT_EQ(Taken.Specials, 3u);
  EXPECT_EQ(S.stats().Conversions, 0u);
  EXPECT_GT(Taken.ArenaHighWaterBytes, 0u);
}

/// Significant digits of a decimal rendering: the digits before any
/// exponent, less leading and trailing zeros ("0.00120" -> 2, "0" -> 0).
size_t significantDigits(std::string_view Text) {
  std::string Digits;
  for (char C : Text.substr(0, Text.find_first_of("eE"))) {
    if (C >= '0' && C <= '9')
      Digits.push_back(C);
  }
  const size_t First = Digits.find_first_not_of('0');
  if (First == std::string::npos)
    return 0;
  return Digits.find_last_not_of('0') + 1 - First;
}

/// splitmix64: the oracle's own bit-pattern source.
uint64_t nextBits(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

/// Checks one rendering of \p Value with nothing but libstdc++:
/// std::from_chars must read it back to the same bits, and it must carry
/// exactly as many significant digits as std::to_chars' shortest form.
template <typename T, typename Bits>
void checkWithStd(T Value, std::string_view Text, const char *Surface) {
  T Back{};
  auto [End, Ec] = std::from_chars(Text.data(), Text.data() + Text.size(),
                                   Back);
  ASSERT_EQ(Ec, std::errc()) << Surface << " " << Text;
  ASSERT_EQ(End, Text.data() + Text.size()) << Surface << " " << Text;
  Bits Want, Got;
  std::memcpy(&Want, &Value, sizeof(Want));
  std::memcpy(&Got, &Back, sizeof(Got));
  ASSERT_EQ(Got, Want) << Surface << " " << Text;

  char Buf[64];
  auto Res = std::to_chars(Buf, Buf + sizeof(Buf), Value,
                           std::chars_format::scientific);
  ASSERT_EQ(Res.ec, std::errc());
  const std::string_view Ref(Buf, static_cast<size_t>(Res.ptr - Buf));
  ASSERT_EQ(significantDigits(Text), significantDigits(Ref))
      << Surface << " " << Text << " vs " << Ref;
}

/// Sends \p Count random finite bit patterns of T through engine::format
/// and dragon4_to_chars and checks every output with checkWithStd.
template <typename T, typename Bits>
void sweepAgainstStd(size_t Count, uint64_t Seed, dragon4_format Format) {
  eng::Scratch S;
  uint64_t State = Seed;
  size_t Checked = 0;
  while (Checked < Count) {
    const Bits Pattern = static_cast<Bits>(nextBits(State));
    T Value;
    std::memcpy(&Value, &Pattern, sizeof(Value));
    if (!std::isfinite(Value))
      continue;
    char Buf[64];
    const size_t Len = eng::format(Value, Buf, sizeof(Buf), PrintOptions{}, S);
    ASSERT_LE(Len, sizeof(Buf));
    checkWithStd<T, Bits>(Value, std::string_view(Buf, Len), "engine::format");
    size_t AbiLen = 0;
    ASSERT_EQ(dragon4_to_chars(Format, Pattern, 0, nullptr, Buf, sizeof(Buf),
                               &AbiLen),
              DRAGON4_OK);
    checkWithStd<T, Bits>(Value, std::string_view(Buf, AbiLen),
                          "dragon4_to_chars");
    ++Checked;
  }
  // Every value rode the Ryu rung this oracle is aimed at.
  EXPECT_EQ(S.stats().RyuHits + S.stats().Specials, Count);
}

// The independent oracle for shortest output: libstdc++'s own reader and
// shortest writer judge the flattened Ryu -> sink path, sharing no code
// with the library under test.
TEST(EngineFormatStdOracle, Binary64ReadsBackWithShortestDigitCount) {
  sweepAgainstStd<double, uint64_t>(200000, 0x0c0ffee64,
                                    DRAGON4_FORMAT_BINARY64);
}

TEST(EngineFormatStdOracle, Binary32ReadsBackWithShortestDigitCount) {
  sweepAgainstStd<float, uint32_t>(100000, 0x0c0ffee32,
                                   DRAGON4_FORMAT_BINARY32);
}

} // namespace
