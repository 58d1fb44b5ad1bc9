//===- core/reference.cpp - Rational-arithmetic oracle ---------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/reference.h"

#include "rational/rational.h"
#include "support/checks.h"

#include <cmath>

using namespace dragon4;

namespace {

/// v, and the midpoints of the gaps to its floating-point neighbours.
struct Range {
  Rational V;
  Rational Low;
  Rational High;
};

/// Step 1 of the basic algorithm: determine v- and v+ and form the
/// midpoints.  Note (f+1)*b^e is the correct successor even when f+1
/// reaches b^p -- as a real number it equals b^(p-1) * b^(e+1).
Range makeRange(const BigInt &F, int E, int Precision, int MinExponent,
                unsigned InputBase = 2) {
  Rational V = Rational::scaledPow(F, InputBase, E);
  Rational Ulp = Rational::scaledPow(BigInt(uint64_t(1)), InputBase, E);
  Rational SuccessorV = V + Ulp;

  BigInt PowPMinus1 = BigInt::pow(InputBase, Precision - 1);
  Rational PredecessorV;
  if (F == PowPMinus1 && E > MinExponent)
    PredecessorV = V - Rational::scaledPow(BigInt(uint64_t(1)), InputBase,
                                           E - 1);
  else
    PredecessorV = V - Ulp;

  Rational Half(BigInt(uint64_t(1)), BigInt(uint64_t(2)));
  return Range{V, (V + PredecessorV) * Half, (V + SuccessorV) * Half};
}

/// Step 2: the smallest k with high <= B^k (or < when the high boundary is
/// inclusive).  A plain search -- this is the oracle, not the product.  It
/// starts from log_B(high) estimated from the bit lengths of high's
/// numerator and denominator, which puts log2(high) within one of their
/// difference, so the exact comparisons below take a step or two instead
/// of walking from k = 0.  The estimate only picks where the walk starts,
/// not where it ends.
int findScale(const Rational &High, unsigned B, bool HighOk) {
  auto Fits = [&](int K) {
    Rational Power = Rational::scaledPow(BigInt(uint64_t(1)), B, K);
    return HighOk ? High < Power : High <= Power;
  };
  const double Log2High =
      static_cast<double>(High.numerator().bitLength()) -
      static_cast<double>(High.denominator().bitLength());
  int K = static_cast<int>(
      std::ceil(Log2High / std::log2(static_cast<double>(B))));
  while (!Fits(K))
    ++K;
  while (Fits(K - 1)) // Walk down to the smallest valid k.
    --K;
  return K;
}

/// Steps 3-4 shared by free and fixed format: generate digits of
/// q0 = v / B^K until one of the termination conditions fires, then choose
/// between the emitted prefix and the prefix with its last digit
/// incremented.  Returns the digits plus the final state the fixed-format
/// caller needs for zero/mark filling.
struct LoopOutput {
  std::vector<uint8_t> Digits;
  bool Incremented = false;
  Rational Emitted; ///< Value of the emitted prefix (increment applied).
  Rational Place;   ///< B^(K-n), the place value of the last digit.
};

LoopOutput generate(const Range &R, unsigned B, int K, BoundaryFlags Flags,
                    TieBreak Ties) {
  LoopOutput Out;
  Rational Q = R.V / Rational::scaledPow(BigInt(uint64_t(1)), B, K);
  Rational Value;                                    // 0.d1...dn so far.
  Rational Place = Rational(BigInt(uint64_t(1)));    // B^-n so far, times B^K below.
  Rational BRat = Rational(BigInt(uint64_t(B)));
  Rational PowK = Rational::scaledPow(BigInt(uint64_t(1)), B, K);

  for (;;) {
    Q *= BRat;
    BigInt DigitInt = Q.floor();
    Q = Q.fractionalPart();
    uint64_t Digit = DigitInt.isZero() ? 0 : DigitInt.toUint64();
    D4_ASSERT(Digit < B, "oracle digit out of range");
    Out.Digits.push_back(static_cast<uint8_t>(Digit));
    Place /= BRat;

    Value += Rational(DigitInt) * Place * PowK;
    Rational IncrementedValue = Value + Place * PowK;

    bool Condition1 = Flags.LowOk ? Value >= R.Low : Value > R.Low;
    bool Condition2 =
        Flags.HighOk ? IncrementedValue <= R.High : IncrementedValue < R.High;
    if (!Condition1 && !Condition2)
      continue;

    if (Condition1 && !Condition2) {
      Out.Incremented = false;
    } else if (Condition2 && !Condition1) {
      Out.Incremented = true;
    } else {
      Rational DistDown = R.V - Value;
      Rational DistUp = IncrementedValue - R.V;
      int Cmp = DistDown.compare(DistUp);
      if (Cmp < 0) {
        Out.Incremented = false;
      } else if (Cmp > 0) {
        Out.Incremented = true;
      } else {
        switch (Ties) {
        case TieBreak::RoundUp:
          Out.Incremented = true;
          break;
        case TieBreak::RoundDown:
          Out.Incremented = false;
          break;
        case TieBreak::RoundEven:
          Out.Incremented = (Out.Digits.back() & 1) != 0;
          break;
        }
      }
    }
    if (Out.Incremented) {
      D4_ASSERT(Out.Digits.back() + 1u < B, "oracle increment would carry");
      ++Out.Digits.back();
      Value = IncrementedValue;
    }
    Out.Emitted = std::move(Value);
    Out.Place = Place * PowK;
    return Out;
  }
}

} // namespace

DigitString dragon4::referenceFreeFormatBig(const BigInt &F, int E,
                                            int Precision, int MinExponent,
                                            unsigned B, BoundaryFlags Flags,
                                            TieBreak Ties) {
  D4_ASSERT(!F.isZero() && !F.isNegative(),
            "oracle requires a positive mantissa");
  Range R = makeRange(F, E, Precision, MinExponent);
  int K = findScale(R.High, B, Flags.HighOk);
  LoopOutput Loop = generate(R, B, K, Flags, Ties);
  DigitString Result;
  Result.Digits = std::move(Loop.Digits);
  Result.K = K;
  return Result;
}

DigitString dragon4::referenceFreeFormat(uint64_t F, int E, int Precision,
                                         int MinExponent, unsigned B,
                                         BoundaryFlags Flags, TieBreak Ties) {
  D4_ASSERT(F > 0, "oracle requires a positive mantissa");
  return referenceFreeFormatBig(BigInt(F), E, Precision, MinExponent, B,
                                Flags, Ties);
}

DigitString dragon4::referenceFixedFormat(uint64_t F, int E, int Precision,
                                          int MinExponent, unsigned B,
                                          BoundaryFlags UserFlags,
                                          TieBreak Ties, int J) {
  D4_ASSERT(F > 0, "oracle requires a positive mantissa");
  Range R = makeRange(BigInt(F), E, Precision, MinExponent);

  // Expand the rounding range to the half-quantum of position J where that
  // is larger; expanded endpoints are inclusive.
  Rational HalfQuantum =
      Rational::scaledPow(BigInt(uint64_t(1)), B, J) *
      Rational(BigInt(uint64_t(1)), BigInt(uint64_t(2)));
  BoundaryFlags Flags = UserFlags;
  Rational ExpandedLow = R.V - HalfQuantum;
  if (ExpandedLow <= R.Low) {
    R.Low = std::move(ExpandedLow);
    Flags.LowOk = true;
  }
  Rational ExpandedHigh = R.V + HalfQuantum;
  if (ExpandedHigh >= R.High) {
    R.High = std::move(ExpandedHigh);
    Flags.HighOk = true;
  }

  int K = findScale(R.High, B, Flags.HighOk);

  DigitString Result;
  if (K <= J) { // The whole value rounds away: a single significant zero.
    Result.Digits.push_back(0);
    Result.K = J + 1;
    return Result;
  }

  LoopOutput Loop = generate(R, B, K, Flags, Ties);
  Result.Digits = std::move(Loop.Digits);
  Result.K = K;

  int Position = K - static_cast<int>(Result.Digits.size());
  D4_ASSERT(Position >= J, "oracle generated past the requested position");
  Rational Place = std::move(Loop.Place); // B^Position, the last digit's place.
  Rational BRat = Rational(BigInt(uint64_t(B)));
  while (Position > J) {
    // Positions below here are insignificant as soon as bumping the value
    // by one unit of the *current* place still lands within the range.
    if (Loop.Emitted + Place <= R.High) {
      Result.TrailingMarks = Position - J;
      break;
    }
    Result.Digits.push_back(0);
    --Position;
    Place /= BRat;
  }
  return Result;
}
