//===- tests/fastpath/grisu_test.cpp ------------------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Grisu3 fast path: the runtime-derived power cache against the
/// exact bignum powers, agreement with the exact Burger-Dybvig algorithm
/// on every success, the fallback plumbing, and the success rate.
///
//===----------------------------------------------------------------------===//

#include "baselines/grisu.h"

#include "bigint/power_cache.h"
#include "core/free_format.h"
#include "reader/reader.h"
#include "testgen/random_floats.h"
#include "testgen/schryer.h"

#include <gtest/gtest.h>

using namespace dragon4;

namespace {

DigitString exactConservative(uint64_t F, int E, int P, int MinE) {
  FreeFormatOptions Options;
  Options.Boundaries = BoundaryMode::Conservative;
  return freeFormatDigits(F, E, P, MinE, Options);
}

TEST(GrisuCache, MatchesExactPowersWithinOneUnit) {
  // The cached significand must be within one unit in the last place of
  // the exact power: (F-1)*2^E <= 10^K <= (F+1)*2^E, checked with exact
  // integers on both sides.
  for (int K : {-340, -27, -1, 0, 1, 7, 27, 300}) {
    DiyFp Cached = cachedPowerOfTen(K);
    EXPECT_EQ(Cached.F >> 63, 1u) << K; // Normalized.

    // Scale both sides so every quantity is a non-negative integer:
    //   LhsNum / LhsDen ~ 10^K, window [(F-1), (F+1)] * 2^E.
    BigInt PowerNum(uint64_t(1)), PowerDen(uint64_t(1));
    if (K >= 0)
      PowerNum = cachedPow(10, static_cast<unsigned>(K));
    else
      PowerDen = cachedPow(10, static_cast<unsigned>(-K));
    BigInt WindowLow(Cached.F - 1), WindowHigh(Cached.F + 1);
    BigInt ScaleNum(uint64_t(1)), ScaleDen(uint64_t(1));
    if (Cached.E >= 0)
      ScaleNum <<= static_cast<size_t>(Cached.E);
    else
      ScaleDen <<= static_cast<size_t>(-Cached.E);
    // WindowLow*Scale <= Power  <=>  WindowLow*ScaleNum*PowerDen <= ...
    EXPECT_LE(WindowLow * ScaleNum * PowerDen, PowerNum * ScaleDen) << K;
    EXPECT_GE(WindowHigh * ScaleNum * PowerDen, PowerNum * ScaleDen) << K;
  }
}

TEST(Grisu, SimpleValuesSucceedAndMatch) {
  for (double V : {1.0, 2.0, 0.5, 0.1, 0.3, 3.141592653589793, 123.456,
                   1e22, 5e-324, 1.7976931348623157e308, 6.02214076e23}) {
    Decomposed D = decompose(V);
    auto Fast = grisuShortest(D.F, D.E, 53, -1074);
    DigitString Exact = exactConservative(D.F, D.E, 53, -1074);
    if (Fast.has_value()) {
      EXPECT_EQ(*Fast, Exact) << V;
    }
  }
}

TEST(Grisu, AgreesWithExactWheneverItSucceeds) {
  size_t Successes = 0, Total = 0;
  auto Check = [&](double V) {
    Decomposed D = decompose(V);
    ++Total;
    auto Fast = grisuShortest(D.F, D.E, 53, -1074);
    if (!Fast.has_value())
      return;
    ++Successes;
    ASSERT_EQ(*Fast, exactConservative(D.F, D.E, 53, -1074)) << V;
  };
  for (double V : randomNormalDoubles(20000, 777777))
    Check(V);
  for (double V : randomSubnormalDoubles(2000, 777778))
    Check(V);
  // Loitsch reports ~99.5% success on random doubles; be conservative.
  EXPECT_GT(static_cast<double>(Successes) / static_cast<double>(Total),
            0.985);
}

TEST(Grisu, AgreesOnTheSchryerSet) {
  SchryerParams Params;
  Params.ExponentStride = 128;
  for (double V : schryerDoubles(Params)) {
    Decomposed D = decompose(V);
    auto Fast = grisuShortest(D.F, D.E, 53, -1074);
    if (!Fast.has_value())
      continue;
    ASSERT_EQ(*Fast, exactConservative(D.F, D.E, 53, -1074)) << V;
  }
}

TEST(Grisu, FloatsAgreeToo) {
  size_t Successes = 0, Total = 0;
  for (float V : randomNormalFloats(20000, 99)) {
    Decomposed D = decompose(V);
    ++Total;
    auto Fast = grisuShortest(D.F, D.E, 24, -149);
    if (!Fast.has_value())
      continue;
    ++Successes;
    ASSERT_EQ(*Fast, exactConservative(D.F, D.E, 24, -149)) << V;
  }
  EXPECT_GT(static_cast<double>(Successes) / static_cast<double>(Total),
            0.98);
}

TEST(GrisuFallback, AlwaysEqualsExact) {
  // shortestDigitsFast (fast path + fallback) must be indistinguishable
  // from the exact conservative conversion on every input.
  for (double V : randomNormalDoubles(5000, 123123)) {
    Decomposed D = decompose(V);
    EXPECT_EQ(shortestDigitsFast(V),
              exactConservative(D.F, D.E, 53, -1074))
        << V;
  }
  for (float V : randomNormalFloats(3000, 321321)) {
    Decomposed D = decompose(V);
    EXPECT_EQ(shortestDigitsFast(V),
              exactConservative(D.F, D.E, 24, -149))
        << V;
  }
}

TEST(GrisuFallback, RoundTripsThroughTheReader) {
  for (double V : randomNormalDoubles(3000, 456456)) {
    DigitString D = shortestDigitsFast(V);
    std::string Text =
        D.digitsAsText() + "e" +
        std::to_string(D.K - static_cast<int>(D.Digits.size()));
    EXPECT_EQ(*readFloat<double>(Text), V) << Text;
  }
}

} // namespace
