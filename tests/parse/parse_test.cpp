//===- tests/parse/parse_test.cpp ------------------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// parseFloat's contract: the longest-valid-prefix grammar (consumed
/// lengths, malformed inputs), correct rounding on boundary cases
/// (subnormal edge, overflow to inf, signed zero, inf/nan spellings),
/// the truncated-significand fallback criterion (800-digit inputs, exact
/// midpoints), the outcome counters, and the non-hardware formats'
/// exact-reader path.
///
//===----------------------------------------------------------------------===//

#include "parse/parse.h"

#include "engine/stats.h"
#include "fp/ieee_traits.h"
#include "reader/reader.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <string>

using namespace dragon4;
using namespace dragon4::parse;

namespace {

uint64_t bits(double V) { return IeeeTraits<double>::toBits(V); }

ParseResult<double> parse(std::string_view Text,
                          engine::EngineStats *Stats = nullptr) {
  return parseFloat<double>(Text, Stats);
}

TEST(ParseGrammar, ConsumedLengths) {
  struct Case {
    const char *Text;
    size_t Consumed;
    double Value;
  };
  const Case Cases[] = {
      {"1", 1, 1.0},
      {"1.5", 3, 1.5},
      {"-1.5", 4, -1.5},
      {"+1.5", 4, 1.5},
      {"1.5e10xyz", 6, 1.5e10},
      {"1.5E10", 6, 1.5e10},
      {"1e", 1, 1.0},       // Exponent marker without digits: rolled back.
      {"1e+", 1, 1.0},
      {"1e+5", 4, 1e5},
      {"5.", 2, 5.0},       // Trailing point is part of the literal.
      {"5.e2", 4, 500.0},
      {".5", 2, 0.5},
      {"-.5", 3, -0.5},
      {"1.2.3", 3, 1.2},    // Second point ends the literal.
      {"0x12", 1, 0.0},     // No hex: "0" then stop (locale-free subset).
      {"007", 3, 7.0},
      {"1,5", 1, 1.0},      // No locale: comma never a radix point.
      {"3.14seconds", 4, 3.14},
  };
  for (const Case &C : Cases) {
    ParseResult<double> R = parse(C.Text);
    ASSERT_TRUE(R.ok()) << C.Text;
    EXPECT_EQ(R.Consumed, C.Consumed) << C.Text;
    EXPECT_EQ(bits(R.Value), bits(C.Value)) << C.Text;
  }
}

TEST(ParseGrammar, MalformedInputs) {
  engine::EngineStats Stats;
  for (const char *Text :
       {"", ".", "+", "-", "+.", "e5", ".e5", "x1", " 1", "--1", "NaB"}) {
    ParseResult<double> R = parse(Text, &Stats);
    EXPECT_FALSE(R.ok()) << Text;
    EXPECT_EQ(R.Status, ParseStatus::Malformed) << Text;
    EXPECT_EQ(R.Path, ParsePath::None) << Text;
    EXPECT_EQ(R.Consumed, 0u) << Text;
    EXPECT_EQ(bits(R.Value), 0u) << Text;
  }
  EXPECT_EQ(Stats.FastParseRejected, 11u);
  EXPECT_EQ(Stats.FastParseHits, 0u);
}

TEST(ParseGrammar, Specials) {
  for (const char *Text : {"inf", "INF", "Inf", "+inf", "infinity", "INFINITY"}) {
    ParseResult<double> R = parse(Text);
    ASSERT_TRUE(R.ok()) << Text;
    EXPECT_EQ(R.Consumed, std::string_view(Text).size()) << Text;
    EXPECT_TRUE(std::isinf(R.Value) && R.Value > 0) << Text;
    EXPECT_EQ(R.Path, ParsePath::Special) << Text;
  }
  ParseResult<double> Neg = parse("-infinity");
  EXPECT_EQ(Neg.Consumed, 9u);
  EXPECT_TRUE(std::isinf(Neg.Value) && Neg.Value < 0);

  // Prefix matching, like strtod: "information" starts with "inf".
  ParseResult<double> Prefix = parse("information");
  EXPECT_TRUE(Prefix.ok());
  EXPECT_EQ(Prefix.Consumed, 3u);
  // "infinit" cannot extend to "infinity", so only "inf" is consumed.
  EXPECT_EQ(parse("infinite").Consumed, 3u);

  for (const char *Text : {"nan", "NaN", "NAN", "-nan", "nanx", "nan(7)"}) {
    ParseResult<double> R = parse(Text);
    ASSERT_TRUE(R.ok()) << Text;
    EXPECT_TRUE(std::isnan(R.Value)) << Text;
    EXPECT_EQ(R.Consumed, std::string_view(Text, 3).size() +
                              (Text[0] == '-' ? 1u : 0u))
        << Text;
  }

  // Signed zeros keep their sign bit.
  EXPECT_EQ(bits(parse("0").Value), bits(0.0));
  EXPECT_EQ(bits(parse("-0").Value), bits(-0.0));
  EXPECT_EQ(bits(parse("-0.00e99").Value), bits(-0.0));
  EXPECT_EQ(bits(parse("-1e-400").Value), bits(-0.0)); // Signed underflow.
}

TEST(ParseBoundaries, SubnormalEdgeAndOverflow) {
  // Smallest positive subnormal, spelled several ways.
  for (const char *Text : {"5e-324", "4.9406564584124654e-324",
                           "4.9406564584124654417656879286822e-324"}) {
    ParseResult<double> R = parse(Text);
    ASSERT_TRUE(R.ok()) << Text;
    EXPECT_EQ(bits(R.Value), uint64_t(1)) << Text;
  }
  // Below half of it: rounds to +0.
  EXPECT_EQ(bits(parse("2.4e-324").Value), bits(0.0));
  EXPECT_EQ(parse("2.4e-324").Status, ParseStatus::Ok);

  // Largest finite double; one ulp-ish beyond overflows to inf.
  EXPECT_EQ(bits(parse("1.7976931348623157e308").Value),
            bits(1.7976931348623157e308));
  EXPECT_TRUE(std::isinf(parse("1.8e308").Value));
  EXPECT_TRUE(std::isinf(parse("1e309").Value));
  EXPECT_TRUE(std::isinf(parse("1e99999999999999999999").Value));
  EXPECT_EQ(bits(parse("1e-99999999999999999999").Value), bits(0.0));

  // Smallest normal boundary.
  EXPECT_EQ(bits(parse("2.2250738585072014e-308").Value),
            bits(2.2250738585072014e-308));
  // The infamous slow-converging literal (a PHP/Java DoS classic).
  EXPECT_EQ(bits(parse("2.2250738585072011e-308").Value),
            bits(std::strtod("2.2250738585072011e-308", nullptr)));
}

TEST(ParseFallback, LongDigitStringsForceTheExactReader) {
  engine::EngineStats Stats;

  // An 800-digit literal sitting exactly on a rounding boundary: the
  // decimal expansion of 1 + 2^-53, the midpoint between 1.0 and its
  // successor.  The 19-digit truncation brackets it -- w rounds to 1.0,
  // w+1 to the successor -- so the fast path is provably undecidable and
  // the exact fallback must run (ties-to-even: 1.0), agreeing with strtod.
  std::string Hard =
      "1.00000000000000011102230246251565404236316680908203125";
  Hard += std::string(800 - Hard.size(), '0'); // Zero tail: same value.
  ASSERT_GE(Hard.size(), 800u);
  ParseResult<double> R = parseFloat<double>(Hard, &Stats);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Consumed, Hard.size());
  EXPECT_EQ(R.Path, ParsePath::ExactFallback);
  EXPECT_EQ(Stats.FastParseFallbacks, 1u);
  EXPECT_EQ(bits(R.Value), bits(std::strtod(Hard.c_str(), nullptr)));

  // The exact midpoint of the smallest subnormal with a perturbing tail:
  // w rounds down, w+1 rounds up, provably undecidable from 19 digits.
  std::string Mid = "2.470328229206232720";
  Mid += std::string(700, '8');
  Mid += "e-324";
  ParseResult<double> M = parseFloat<double>(Mid, &Stats);
  ASSERT_TRUE(M.ok());
  EXPECT_EQ(bits(M.Value), bits(std::strtod(Mid.c_str(), nullptr)));

  // A long but harmless tail (all zeros past digit 19) stays fast: the
  // dropped digits only shift the exponent.
  std::string Easy = "123456789012345678900000000000000000000000";
  ParseResult<double> E = parseFloat<double>(Easy, &Stats);
  ASSERT_TRUE(E.ok());
  EXPECT_EQ(E.Path, ParsePath::Fast);
  EXPECT_EQ(bits(E.Value), bits(std::strtod(Easy.c_str(), nullptr)));

  // Truncated but with agreeing brackets: fast, and still correct.
  std::string Agree = "3.14159265358979323846264338327950288419716939937510";
  ParseResult<double> A = parseFloat<double>(Agree, &Stats);
  ASSERT_TRUE(A.ok());
  EXPECT_EQ(A.Path, ParsePath::Fast);
  EXPECT_EQ(bits(A.Value), bits(std::strtod(Agree.c_str(), nullptr)));

  EXPECT_EQ(Stats.FastParseHits + Stats.FastParseFallbacks, 4u);
}

TEST(ParseFormats, NonHardwareFormatsTakeTheExactReader) {
  // Binary16: everything routes through readFloat, including specials.
  ParseResult<Binary16> Half = parseFloat<Binary16>("0.1");
  ASSERT_TRUE(Half.ok());
  EXPECT_EQ(Half.Path, ParsePath::ExactFallback);
  EXPECT_EQ(Half.Consumed, 3u);
  auto HalfExact = readFloat<Binary16>("0.1");
  ASSERT_TRUE(HalfExact.has_value());
  EXPECT_EQ(Half.Value.bits(), HalfExact->bits());

  engine::EngineStats Stats;
  ParseResult<Binary128> Quad = parseFloat<Binary128>("6.02e23", &Stats);
  ASSERT_TRUE(Quad.ok());
  EXPECT_EQ(Quad.Path, ParsePath::ExactFallback);
  auto QuadExact = readFloat<Binary128>("6.02e23");
  ASSERT_TRUE(QuadExact.has_value());
  EXPECT_TRUE(Quad.Value == *QuadExact);
  EXPECT_EQ(Stats.FastParseFallbacks, 1u);

  ParseResult<long double> Ext = parseFloat<long double>("3.14159e10");
  ASSERT_TRUE(Ext.ok());
  auto ExtExact = readFloat<long double>("3.14159e10");
  ASSERT_TRUE(ExtExact.has_value());
  EXPECT_EQ(Ext.Value, *ExtExact);

  // Longest-prefix semantics survive the fallback: the trailing junk is
  // not handed to the exact reader.
  ParseResult<Binary16> Junk = parseFloat<Binary16>("1.5units");
  ASSERT_TRUE(Junk.ok());
  EXPECT_EQ(Junk.Consumed, 3u);
}

TEST(ParseFloat32, FastPathAndCounters) {
  engine::EngineStats Stats;
  ParseResult<float> R = parseFloat<float>("3.14159", &Stats);
  ASSERT_TRUE(R.ok());
  EXPECT_EQ(R.Path, ParsePath::Fast);
  EXPECT_EQ(IeeeTraits<float>::toBits(R.Value),
            IeeeTraits<float>::toBits(3.14159f));
  EXPECT_EQ(Stats.FastParseHits, 1u);

  // Float boundaries.
  EXPECT_EQ(IeeeTraits<float>::toBits(parseFloat<float>("1e-45").Value),
            uint32_t(1)); // Smallest subnormal (1.4e-45 rounds from 1e-45).
  EXPECT_TRUE(std::isinf(parseFloat<float>("3.5e38").Value));
  EXPECT_EQ(IeeeTraits<float>::toBits(parseFloat<float>("-0").Value),
            uint32_t(1) << 31);
}

} // namespace
