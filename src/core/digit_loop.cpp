//===- core/digit_loop.cpp - The digit-generation loop ---------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/digit_loop.h"

#include "obs/trace.h"
#include "prof/phase.h"
#include "support/checks.h"
#include "support/testhooks.h"

using namespace dragon4;

bool dragon4::testhooks::FlipDigitLoopLowComparison = false;

DigitLoopResult dragon4::runDigitLoop(ScaledState State, unsigned B,
                                      BoundaryFlags Flags, TieBreak Ties) {
  DigitLoopResult Result;
  runDigitLoopInto(std::move(State), B, Flags, Ties, Result);
  return Result;
}

void dragon4::runDigitLoopInto(ScaledState State, unsigned B,
                               BoundaryFlags Flags, TieBreak Ties,
                               DigitLoopResult &Result) {
  D4_PROF_SPAN(DigitLoop);
  Result.Digits.clear();
  Result.Incremented = false;
  BigInt Quotient;
  for (;;) {
    BigInt::divMod(State.R, State.S, Quotient, State.R);
    uint64_t Digit = Quotient.isZero() ? 0 : Quotient.toUint64();
    D4_ASSERT(Digit < B, "digit out of range (scaling was wrong)");
    Result.Digits.push_back(static_cast<uint8_t>(Digit));

    // Termination condition 1: the emitted prefix is already above low.
    bool PrefixAboveLow = Flags.LowOk ? State.R <= State.MMinus
                                      : State.R < State.MMinus;
    if (testhooks::FlipDigitLoopLowComparison) [[unlikely]]
      PrefixAboveLow = Flags.LowOk ? State.R < State.MMinus
                                   : State.R <= State.MMinus;
    // Termination condition 2: incrementing the last digit lands below high.
    BigInt High = State.R + State.MPlus;
    bool IncrementBelowHigh = Flags.HighOk ? High >= State.S : High > State.S;

    if (!PrefixAboveLow && !IncrementBelowHigh) {
      State.R.mulSmall(B);
      State.MPlus.mulSmall(B);
      State.MMinus.mulSmall(B);
      continue;
    }

    if (PrefixAboveLow && !IncrementBelowHigh) {
      Result.Incremented = false;
    } else if (IncrementBelowHigh && !PrefixAboveLow) {
      Result.Incremented = true;
    } else {
      // Both candidates round back to v; pick the one closer to v.  The
      // remainder R/S measures how far below v the un-incremented prefix
      // sits (in units of the current digit position), so compare 2R to S.
      BigInt Doubled = State.R;
      Doubled.mulSmall(2);
      int Cmp = Doubled.compare(State.S);
      if (Cmp < 0) {
        Result.Incremented = false;
      } else if (Cmp > 0) {
        Result.Incremented = true;
      } else {
        switch (Ties) {
        case TieBreak::RoundUp:
          Result.Incremented = true;
          break;
        case TieBreak::RoundDown:
          Result.Incremented = false;
          break;
        case TieBreak::RoundEven:
          Result.Incremented = (Result.Digits.back() & 1) != 0;
          break;
        }
      }
    }
    break;
  }

  if (Result.Incremented) {
    // Theorem 1: an increment can never carry (condition 2 would have held
    // one digit earlier), so this stays a valid single digit.
    D4_ASSERT(Result.Digits.back() + 1u < B, "increment would carry");
    ++Result.Digits.back();
  }
  if (auto *T = obs::activeTrace()) {
    T->DigitsEmitted = static_cast<uint32_t>(Result.Digits.size());
    T->Incremented = Result.Incremented;
  }
  Result.R = std::move(State.R);
  Result.MPlus = std::move(State.MPlus);
  Result.S = std::move(State.S);
}
