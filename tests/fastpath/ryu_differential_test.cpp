//===- tests/fastpath/ryu_differential_test.cpp ----------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Differential test of the shortest digit core (the Schubfach rung behind
/// ryuShortestInto) against the retired Ryu removal loop
/// (baselines/ryu_loop.h), Grisu3 and the exact Burger-Dybvig loop on the
/// same decomposed inputs.  The four share no digit arithmetic (round-to-
/// odd 64x128 products and interval tests / 128-bit products and a
/// digit-removal loop / 64-bit DiyFp error analysis / exact bignums), so
/// byte-identical agreement across a hostile input set -- deterministic
/// random bit patterns, binade boundaries, powers of two and ten, pinned
/// hard cases from the literature -- is strong evidence all are right.
/// Grisu is consulted under its own model (conservative boundaries,
/// round-up ties) and may decline ~0.5% of inputs; the core, the Ryu
/// baseline and Dragon4 must agree on every input, under both the
/// conservative and the nearest-even reader.
///
//===----------------------------------------------------------------------===//

#include "baselines/grisu.h"
#include "baselines/ryu_loop.h"
#include "core/free_format.h"
#include "fastpath/ryu.h"
#include "fp/ieee_traits.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

using namespace dragon4;

namespace {

/// Per-test scratch so the differential loops do not reallocate per value.
struct Scratch {
  std::vector<uint8_t> RyuDigits;
  std::vector<uint8_t> BaselineDigits;
  std::vector<uint8_t> GrisuDigits;
};

/// The Ryu baseline against the exact digits, under one option set.
bool baselineAgrees(const Decomposed &D, int Precision, int MinExponent,
                    bool AcceptBounds, TieBreak Ties,
                    const DigitString &Exact, Scratch &S) {
  int K = 0;
  return ryuLoopShortestInto(D.F, D.E, Precision, MinExponent, AcceptBounds,
                             Ties, S.BaselineDigits, K) &&
         S.BaselineDigits == Exact.Digits && K == Exact.K;
}

/// Runs all four converters on one finite non-zero value and cross-checks.
/// Under Conservative+RoundUp all four must agree byte for byte whenever
/// Grisu certifies; under NearestEven (both tie breaks) the core, the Ryu
/// baseline and Dragon4 must agree.  Records gtest failures; returns false on any divergence.
template <typename T> bool diffOne(T Value, uint64_t Bits, Scratch &S) {
  using Traits = IeeeTraits<T>;
  Decomposed D = decompose(Value);
  bool Ok = true;

  // --- Grisu's home turf: conservative reader, round-up ties. ---
  {
    FreeFormatOptions Options;
    Options.Boundaries = BoundaryMode::Conservative;
    Options.Ties = TieBreak::RoundUp;
    DigitString Exact = freeFormatDigits(D.F, D.E, Traits::Precision,
                                         Traits::MinExponent, Options);
    bool AcceptBounds = true;
    if (!ryuEligible(10, Options.Boundaries, (D.F & 1) == 0, AcceptBounds) ||
        AcceptBounds) {
      ADD_FAILURE() << "conservative reader misresolved, bits 0x" << std::hex
                    << Bits;
      return false;
    }
    int RyuK = 0;
    if (!ryuShortestInto(D.F, D.E, Traits::Precision, Traits::MinExponent,
                         AcceptBounds, Options.Ties, S.RyuDigits, RyuK)) {
      ADD_FAILURE() << "core declined, bits 0x" << std::hex << Bits;
      return false;
    }
    if (S.RyuDigits != Exact.Digits || RyuK != Exact.K) {
      ADD_FAILURE() << "core != Dragon4 (conservative/up), bits 0x"
                    << std::hex << Bits;
      Ok = false;
    }
    if (!baselineAgrees(D, Traits::Precision, Traits::MinExponent,
                        AcceptBounds, Options.Ties, Exact, S)) {
      ADD_FAILURE() << "Ryu baseline != Dragon4 (conservative/up), bits 0x"
                    << std::hex << Bits;
      Ok = false;
    }
    int GrisuK = 0;
    if (grisuShortestInto(D.F, D.E, Traits::Precision, Traits::MinExponent,
                          S.GrisuDigits, GrisuK)) {
      if (S.GrisuDigits != Exact.Digits || GrisuK != Exact.K) {
        ADD_FAILURE() << "Grisu != Dragon4 (conservative/up), bits 0x"
                      << std::hex << Bits;
        Ok = false;
      }
      if (S.GrisuDigits != S.RyuDigits || GrisuK != RyuK) {
        ADD_FAILURE() << "Grisu != core (conservative/up), bits 0x" << std::hex
                      << Bits;
        Ok = false;
      }
    }
  }

  // --- The default reader: nearest-even, both writer tie strategies. ---
  for (TieBreak Ties : {TieBreak::RoundUp, TieBreak::RoundEven}) {
    FreeFormatOptions Options;
    Options.Boundaries = BoundaryMode::NearestEven;
    Options.Ties = Ties;
    DigitString Exact = freeFormatDigits(D.F, D.E, Traits::Precision,
                                         Traits::MinExponent, Options);
    bool AcceptBounds = false;
    if (!ryuEligible(10, Options.Boundaries, (D.F & 1) == 0, AcceptBounds)) {
      ADD_FAILURE() << "nearest-even reader ineligible, bits 0x" << std::hex
                    << Bits;
      return false;
    }
    int RyuK = 0;
    if (!ryuShortestInto(D.F, D.E, Traits::Precision, Traits::MinExponent,
                         AcceptBounds, Ties, S.RyuDigits, RyuK)) {
      ADD_FAILURE() << "core declined, bits 0x" << std::hex << Bits;
      return false;
    }
    if (S.RyuDigits != Exact.Digits || RyuK != Exact.K) {
      ADD_FAILURE() << "core != Dragon4 (nearest-even), bits 0x" << std::hex
                    << Bits;
      Ok = false;
    }
    if (!baselineAgrees(D, Traits::Precision, Traits::MinExponent,
                        AcceptBounds, Ties, Exact, S)) {
      ADD_FAILURE() << "Ryu baseline != Dragon4 (nearest-even), bits 0x"
                    << std::hex << Bits;
      Ok = false;
    }
  }
  return Ok;
}

template <typename T> bool diffBits(uint64_t Bits, Scratch &S) {
  T Value = IeeeTraits<T>::fromBits(
      static_cast<typename IeeeTraits<T>::Bits>(Bits));
  FpClass Class = classify(Value);
  if (Class != FpClass::Normal && Class != FpClass::Subnormal)
    return true;
  return diffOne(Value, Bits, S);
}

TEST(RyuDifferential, DoubleRandomBitPatterns) {
  // Deterministic seed: the test must be reproducible run to run.
  std::mt19937_64 Rng(0x52797544696666ull); // "RyuDiff"
  Scratch S;
  int Failures = 0;
  for (int I = 0; I < 20000; ++I) {
    if (!diffBits<double>(Rng(), S) && ++Failures >= 8)
      FAIL() << "stopping after " << Failures << " divergences";
  }
  EXPECT_EQ(Failures, 0);
}

TEST(RyuDifferential, FloatRandomBitPatterns) {
  std::mt19937_64 Rng(0x52797544696666ull);
  Scratch S;
  int Failures = 0;
  for (int I = 0; I < 20000; ++I) {
    if (!diffBits<float>(Rng() & 0xffffffffull, S) && ++Failures >= 8)
      FAIL() << "stopping after " << Failures << " divergences";
  }
  EXPECT_EQ(Failures, 0);
}

/// Binade boundaries: the largest value below each power of two, the power
/// itself, and its successor.  These sit where the rounding interval is
/// asymmetric (the boundary-below is half the usual width), the classic
/// place for shortest-output bugs.
TEST(RyuDifferential, DoubleBinadeBoundaries) {
  Scratch S;
  int Failures = 0;
  for (uint64_t Exp = 1; Exp <= 2046; ++Exp) {
    uint64_t PowerOfTwo = Exp << 52;
    for (uint64_t Bits : {PowerOfTwo - 1, PowerOfTwo, PowerOfTwo + 1}) {
      if (!diffBits<double>(Bits, S) && ++Failures >= 8)
        FAIL() << "stopping after " << Failures << " divergences";
    }
  }
  EXPECT_EQ(Failures, 0);
}

TEST(RyuDifferential, FloatBinadeBoundaries) {
  Scratch S;
  int Failures = 0;
  for (uint64_t Exp = 1; Exp <= 254; ++Exp) {
    uint64_t PowerOfTwo = Exp << 23;
    for (uint64_t Bits : {PowerOfTwo - 1, PowerOfTwo, PowerOfTwo + 1}) {
      if (!diffBits<float>(Bits, S) && ++Failures >= 8)
        FAIL() << "stopping after " << Failures << " divergences";
    }
  }
  EXPECT_EQ(Failures, 0);
}

/// Exact powers of two and (while exactly representable) powers of ten,
/// plus the nearest double to each larger power of ten.  Powers of ten
/// exercise the vrIsTrailingZeros bookkeeping: their shortest form is a
/// single digit only if the exactness tracking is right.
TEST(RyuDifferential, DoublePowersOfTwoAndTen) {
  Scratch S;
  int Failures = 0;
  for (int I = -1074; I <= 1023; ++I) {
    double Value = std::ldexp(1.0, I);
    if (!diffOne(Value, IeeeTraits<double>::toBits(Value), S) &&
        ++Failures >= 8)
      FAIL() << "stopping after " << Failures << " divergences";
  }
  double Ten = 1.0;
  for (int I = 0; I <= 308; ++I) {
    if (!diffOne(Ten, IeeeTraits<double>::toBits(Ten), S) && ++Failures >= 8)
      FAIL() << "stopping after " << Failures << " divergences";
    Ten *= 10.0;
  }
  double Tenth = 1.0;
  for (int I = 0; I >= -307; --I) {
    if (!diffOne(Tenth, IeeeTraits<double>::toBits(Tenth), S) &&
        ++Failures >= 8)
      FAIL() << "stopping after " << Failures << " divergences";
    Tenth /= 10.0;
  }
  EXPECT_EQ(Failures, 0);
}

/// Pinned adversarial values from the float-printing literature: extreme
/// magnitudes, subnormals, the 2^53 precision cliff, round-trip killers.
TEST(RyuDifferential, DoublePinnedHardCases) {
  const double Pinned[] = {
      5e-324,                  // Smallest subnormal.
      1.0000000000000002e-322, // Small subnormal, several digits.
      2.2250738585072011e-308, // Largest subnormal ("PHP hang" value).
      2.2250738585072014e-308, // Smallest normal.
      1.7976931348623157e308,  // Largest finite.
      9007199254740992.0,      // 2^53: integer precision cliff.
      9007199254740994.0,      // 2^53 + 2: first even-only neighbour.
      1e23,                    // Classic shortest-rounding tie case.
      8.98846567431158e307,    // 2^1023 region.
      3.5844466002796428e298,  // Known Grisu-hard case.
      1.8446744073709552e19,   // 2^64 region.
      6.02214076e23,           // Avogadro.
      2.718281828459045,       // e.
      3.141592653589793,       // pi.
      0.1, 0.3, 1.0 / 3.0,     // Repeating binary fractions.
      1e-310,                  // Mid-range subnormal.
      4.891554466621696e-17,   // Near-tie mantissa pattern.
      1.2345678901234567e-30,  // Dense mantissa, negative decade.
  };
  Scratch S;
  for (double Value : Pinned)
    EXPECT_TRUE(diffOne(Value, IeeeTraits<double>::toBits(Value), S))
        << "pinned value " << Value;
}

TEST(RyuDifferential, FloatPinnedHardCases) {
  const float Pinned[] = {
      1.401298464324817e-45f, // Smallest subnormal.
      1.1754942e-38f,         // Largest subnormal.
      1.17549435e-38f,        // Smallest normal.
      3.4028235e38f,          // Largest finite.
      16777216.0f,            // 2^24: float precision cliff.
      16777218.0f,            // 2^24 + 2.
      1e23f, 6.02214076e23f,  // Large decades.
      0.1f, 0.3f,             // Repeating binary fractions.
      3.14159274f,            // pi, float-rounded.
      7.038531e-26f,          // Known hard case for float shortest output.
  };
  Scratch S;
  for (float Value : Pinned)
    EXPECT_TRUE(diffOne(Value, IeeeTraits<float>::toBits(Value), S))
        << "pinned value " << Value;
}

} // namespace
