//===- tests/parse/parse_fuzz_test.cpp -------------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Three-way randomized agreement: 10,000 seeded decimal strings are fed
/// to parseFloat (fast path with certified fallback), readFloat (exact
/// bignum), and strtod (libc).  All three are correctly rounded
/// nearest-even conversions, so all three must agree bit for bit -- any
/// split identifies the culprit directly.  A malformed corpus and a
/// boundary list (subnormal edge, overflow, inf/nan, long-digit fallback
/// triggers) ride along with the same three-way check.
///
//===----------------------------------------------------------------------===//

#include "parse/parse.h"

#include "engine/stats.h"
#include "fp/ieee_traits.h"
#include "reader/reader.h"
#include "testgen/random_floats.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>

using namespace dragon4;
using namespace dragon4::parse;

namespace {

constexpr uint64_t FuzzSeed = 20260810;
constexpr int FuzzCount = 10000;

/// Same literal shape as the reader fuzz: sign, leading zeros, up to ~40
/// significant digits (past the 19-digit fast-path budget often enough to
/// exercise the truncation bracket), exponents spanning overflow and
/// underflow.
std::string randomDecimalString(SplitMix64 &Rng) {
  std::string Text;
  if (Rng.below(2))
    Text += '-';
  for (uint64_t I = Rng.below(3); I > 0; --I)
    Text += '0';
  size_t IntDigits = Rng.below(22);
  size_t FracDigits = Rng.below(22);
  if (IntDigits == 0 && FracDigits == 0)
    IntDigits = 1;
  for (size_t I = 0; I < IntDigits; ++I)
    Text += static_cast<char>('0' + Rng.below(10));
  if (FracDigits) {
    Text += '.';
    for (size_t I = 0; I < FracDigits; ++I)
      Text += static_cast<char>('0' + Rng.below(10));
  }
  switch (Rng.below(4)) {
  case 0:
    break;
  case 1:
    Text += 'e';
    Text += std::to_string(static_cast<int64_t>(Rng.below(61)) - 30);
    break;
  case 2:
    Text += "e-";
    Text += std::to_string(280 + Rng.below(60));
    break;
  default:
    Text += "e+";
    Text += std::to_string(290 + Rng.below(30));
    break;
  }
  return Text;
}

/// parseFloat vs readFloat vs strtod/strtof on a whole-string literal.
template <typename T>
void expectThreeWay(const std::string &Text, engine::EngineStats *Stats) {
  using Traits = IeeeTraits<T>;

  ParseResult<T> Fast = parseFloat<T>(Text, Stats);
  ASSERT_TRUE(Fast.ok()) << "\"" << Text << "\" rejected by parseFloat";
  ASSERT_EQ(Fast.Consumed, Text.size())
      << "\"" << Text << "\" partially consumed";

  std::optional<T> Exact = readFloat<T>(Text);
  ASSERT_TRUE(Exact.has_value()) << "\"" << Text << "\" rejected by readFloat";

  T Libc;
  if constexpr (std::is_same_v<T, double>)
    Libc = std::strtod(Text.c_str(), nullptr);
  else
    Libc = std::strtof(Text.c_str(), nullptr);

  EXPECT_EQ(Traits::toBits(Fast.Value), Traits::toBits(*Exact))
      << "\"" << Text << "\": parseFloat and readFloat disagree";
  EXPECT_EQ(Traits::toBits(*Exact), Traits::toBits(Libc))
      << "\"" << Text << "\": readFloat and libc disagree";
}

TEST(ParseFuzz, ThreeWayAgreementDouble) {
  SplitMix64 Rng(FuzzSeed);
  engine::EngineStats Stats;
  for (int Iter = 0; Iter < FuzzCount; ++Iter) {
    std::string Text = randomDecimalString(Rng);
    SCOPED_TRACE("seed " + std::to_string(FuzzSeed) + " iter " +
                 std::to_string(Iter));
    expectThreeWay<double>(Text, &Stats);
  }
  // Every call resolved one way or the other; none were malformed.
  EXPECT_EQ(Stats.FastParseHits + Stats.FastParseFallbacks,
            static_cast<uint64_t>(FuzzCount));
  EXPECT_EQ(Stats.FastParseRejected, 0u);
  // Reported for EXPERIMENTS.md: this workload deliberately generates
  // literals past the 19-digit budget, so the fallback rate here is the
  // adversarial ceiling, not the production expectation.
  std::printf("[ParseFuzz] random-literal fallback rate: %.4f%% "
              "(%llu of %d calls)\n",
              100.0 * static_cast<double>(Stats.FastParseFallbacks) /
                  FuzzCount,
              static_cast<unsigned long long>(Stats.FastParseFallbacks),
              FuzzCount);
}

TEST(ParseFuzz, ThreeWayAgreementFloat) {
  SplitMix64 Rng(FuzzSeed + 1);
  engine::EngineStats Stats;
  for (int Iter = 0; Iter < FuzzCount; ++Iter) {
    std::string Text = randomDecimalString(Rng);
    SCOPED_TRACE("seed " + std::to_string(FuzzSeed + 1) + " iter " +
                 std::to_string(Iter));
    expectThreeWay<float>(Text, &Stats);
  }
  EXPECT_EQ(Stats.FastParseHits + Stats.FastParseFallbacks,
            static_cast<uint64_t>(FuzzCount));
}

TEST(ParseFuzz, BoundaryCorpusThreeWay) {
  const char *Corpus[] = {
      // Subnormal edge, both sides of the rounding decision.
      "5e-324", "4.9406564584124654e-324", "2.470328229206232721e-324",
      "2.470328229206232720e-324", "2.4703282292062327e-324",
      "1e-323", "9.88e-324",
      // Smallest normal and its slow-converging neighbour.
      "2.2250738585072014e-308", "2.2250738585072011e-308",
      "2.2250738585072012e-308",
      // Overflow threshold: largest finite, the exact midpoint beyond it,
      // and clear overflow.
      "1.7976931348623157e308", "1.7976931348623158e308",
      "1.797693134862315808e308", "1.8e308", "1e309", "1e400",
      // Deep underflow.
      "1e-400", "-1e-400", "1e-1000",
      // Ties at the integer grid.
      "9007199254740993", "9007199254740995", "1e23", "9.109383632e-31",
      // Powers of ten across the whole table.
      "1e-342", "1e-300", "1e-100", "1e0", "1e100", "1e308",
      // Signed zeros.
      "0", "-0", "0e999", "-0.0e-999",
  };
  for (const char *Text : Corpus) {
    SCOPED_TRACE(Text);
    expectThreeWay<double>(std::string(Text), nullptr);
  }

  // Long-digit fallback triggers: 800-digit strings whose 19-digit prefix
  // brackets disagree, forcing the exact fallback.
  engine::EngineStats Stats;
  std::string Long = "1.";
  Long += std::string(798, '9');
  expectThreeWay<double>(Long, &Stats);
  std::string Half = "0." + std::string(400, '0') + "5" +
                     std::string(399, '0') + "1";
  expectThreeWay<double>(Half, &Stats);
  EXPECT_EQ(Stats.FastParseHits + Stats.FastParseFallbacks, 2u);
}

TEST(ParseFuzz, InfNanSpellingsAgreeWithReader) {
  // Specials: parseFloat and readFloat agree on class and sign (libc is
  // left out -- NaN payload bits are implementation traffic).
  for (const char *Text : {"inf", "-inf", "+inf", "infinity", "-infinity",
                           "nan", "-nan", "NAN"}) {
    SCOPED_TRACE(Text);
    ParseResult<double> Fast = parseFloat<double>(Text);
    ASSERT_TRUE(Fast.ok());
    std::optional<double> Exact = readFloat<double>(Text);
    ASSERT_TRUE(Exact.has_value());
    EXPECT_EQ(classify(Fast.Value), classify(*Exact));
    // NaN is sign-canonicalized by the reader; infinities must agree.
    if (classify(Fast.Value) != FpClass::NaN)
      EXPECT_EQ(signBit(Fast.Value), signBit(*Exact));
  }
}

TEST(ParseFuzz, MalformedCorpusRejectedEverywhere) {
  // Strings neither parseFloat nor readFloat may accept.  strtod rejects
  // them too (endptr back to the start), except the whitespace-led ones:
  // strtod skips leading whitespace by contract, this parser by design
  // does not.
  for (const char *Text : {"", ".", "+", "-", "e5", ".e5", "+e5", "-.e1",
                           "abc", " 1", "\t1", "++1", "inx", "na"}) {
    SCOPED_TRACE(Text);
    EXPECT_FALSE(parseFloat<double>(Text).ok());
    EXPECT_FALSE(readFloat<double>(Text).has_value());
    if (Text[0] == ' ' || Text[0] == '\t')
      continue;
    char *End = nullptr;
    std::strtod(Text, &End);
    EXPECT_EQ(End, Text);
  }
}

} // namespace
