//===- core/free_format.cpp - Shortest-output conversion -------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "core/free_format.h"

#include "core/digit_loop.h"
#include "core/scaling.h"
#include "fp/boundaries.h"
#include "prof/phase.h"
#include "support/checks.h"

using namespace dragon4;

namespace {

/// The one free-format body: Table-1 setup, scale, digit loop.  \p ApproxF
/// is F rounded to double (only the FloatLog strategy reads it).  Returns
/// the scale factor K.
int convertInto(const BigInt &F, double ApproxF, int E, int Precision,
                int MinExponent, const FreeFormatOptions &Options,
                DigitLoopResult &Out) {
  D4_ASSERT(!F.isZero() && !F.isNegative(),
            "free-format conversion requires a positive mantissa");
  D4_ASSERT(Options.Base >= 2 && Options.Base <= 36, "base out of range");

  BoundaryFlags Flags =
      BoundaryFlags::resolveEven(Options.Boundaries, F.isEven());
  // The scale() branches open their own Estimator/ScaleSetup/Fixup spans.
  ScaledStart Start = [&] {
    D4_PROF_SPAN(ScaleSetup);
    return makeScaledStartBig(F, E, Precision, MinExponent);
  }();
  ScaledState State =
      scale(std::move(Start), Options.Base, Flags, Options.Scaling, ApproxF,
            E, static_cast<int>(F.bitLength()));
  const int K = State.K;
  runDigitLoopInto(std::move(State), Options.Base, Flags, Options.Ties, Out);
  D4_ASSERT(!Out.Digits.empty() && Out.Digits.front() != 0,
            "free-format output must start with a non-zero digit");
  return K;
}

DigitString collect(DigitLoopResult &&Loop, int K) {
  DigitString Result;
  Result.Digits = std::move(Loop.Digits);
  Result.K = K;
  return Result;
}

} // namespace

int dragon4::freeFormatDigitsInto(uint64_t F, int E, int Precision,
                                  int MinExponent,
                                  const FreeFormatOptions &Options,
                                  DigitLoopResult &Out) {
  return convertInto(BigInt(F), static_cast<double>(F), E, Precision,
                     MinExponent, Options, Out);
}

int dragon4::freeFormatDigitsBigInto(const BigInt &F, int E, int Precision,
                                     int MinExponent,
                                     const FreeFormatOptions &Options,
                                     DigitLoopResult &Out) {
  return convertInto(F, F.toDouble(), E, Precision, MinExponent, Options,
                     Out);
}

DigitString dragon4::freeFormatDigits(uint64_t F, int E, int Precision,
                                      int MinExponent,
                                      const FreeFormatOptions &Options) {
  DigitLoopResult Loop;
  int K = freeFormatDigitsInto(F, E, Precision, MinExponent, Options, Loop);
  return collect(std::move(Loop), K);
}

DigitString dragon4::freeFormatDigitsBig(const BigInt &F, int E,
                                         int Precision, int MinExponent,
                                         const FreeFormatOptions &Options) {
  DigitLoopResult Loop;
  int K = freeFormatDigitsBigInto(F, E, Precision, MinExponent, Options, Loop);
  return collect(std::move(Loop), K);
}
