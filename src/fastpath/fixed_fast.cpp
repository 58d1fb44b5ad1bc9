//===- fastpath/fixed_fast.cpp - Gay-style fixed-format fast path -------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "fastpath/fixed_fast.h"

#include "core/scaling.h"
#include "baselines/diyfp.h"
#include "fp/ieee_traits.h"
#include "support/checks.h"

#include <bit>

using namespace dragon4;

namespace {

const uint64_t PowersOfTen[] = {1ull,
                                10ull,
                                100ull,
                                1000ull,
                                10000ull,
                                100000ull,
                                1000000ull,
                                10000000ull,
                                100000000ull,
                                1000000000ull,
                                10000000000ull,
                                100000000000ull,
                                1000000000000ull,
                                10000000000000ull,
                                100000000000000ull,
                                1000000000000000ull,
                                10000000000000000ull,
                                100000000000000000ull};

/// The error budget of one multiply against one rounded cached power, in
/// units of the product's last place (see diyfp.h), with headroom.
constexpr uint64_t ErrorUnits = 2;

} // namespace

std::optional<DigitString> dragon4::fastFixedDigits(double Value,
                                                    int NumDigits) {
  D4_ASSERT(NumDigits >= 1 && NumDigits <= 17, "1-17 digits supported");
  D4_ASSERT(Value > 0, "fast path requires a positive finite value");

  Decomposed D = decompose(Value);
  DiyFp W = diyNormalize(DiyFp{D.F, D.E}); // Exact.
  int BitLength = 64 - std::countl_zero(D.F);
  int P10 = NumDigits - estimateScale(D.E, BitLength, 10);

  for (int Attempt = 0; Attempt < 3; ++Attempt) {
    DiyFp Product = diyMultiply(W, cachedPowerOfTen(P10));
    int Shift = -Product.E;
    if (Shift <= 2 || Shift >= 64)
      return std::nullopt; // Scaled value out of the comfortable window.
    uint64_t Integer = Product.F >> Shift;
    uint64_t Fraction = Product.F & ((uint64_t(1) << Shift) - 1);

    // The integer part must have exactly NumDigits digits; otherwise the
    // scale estimate was off by one -- adjust and retry.
    if (Integer >= PowersOfTen[NumDigits]) {
      --P10;
      continue;
    }
    if (Integer < PowersOfTen[NumDigits - 1]) {
      ++P10;
      continue;
    }

    // Certify the rounding: the true fraction lies within ErrorUnits of
    // the computed one, so the decision stands only when the distance to
    // the halfway point exceeds the budget.  (Every exact decimal tie
    // lands inside the budget and falls back, so no tie rule is needed.)
    uint64_t Half = uint64_t(1) << (Shift - 1);
    uint64_t Distance = Fraction > Half ? Fraction - Half : Half - Fraction;
    if (Distance <= ErrorUnits)
      return std::nullopt;

    uint64_t Rounded = Integer + (Fraction > Half ? 1 : 0);
    int K = NumDigits - P10;
    if (Rounded == PowersOfTen[NumDigits]) { // 99..9 rounded up to 100..0.
      Rounded = PowersOfTen[NumDigits - 1];
      ++K;
    }

    DigitString Result;
    Result.K = K;
    Result.Digits.resize(static_cast<size_t>(NumDigits));
    for (int I = NumDigits - 1; I >= 0; --I) {
      Result.Digits[static_cast<size_t>(I)] =
          static_cast<uint8_t>(Rounded % 10);
      Rounded /= 10;
    }
    D4_ASSERT(Result.Digits.front() != 0, "leading digit must be non-zero");
    return Result;
  }
  return std::nullopt;
}

DigitString dragon4::fixedDigitsWithFastPath(double Value, int NumDigits,
                                             TieBreak Ties) {
  if (NumDigits <= 17)
    if (std::optional<DigitString> Fast = fastFixedDigits(Value, NumDigits))
      return *Fast;
  return straightforwardDigits(Value, NumDigits, 10, Ties);
}
