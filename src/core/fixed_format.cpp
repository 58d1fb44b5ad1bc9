//===- core/fixed_format.cpp - Fixed-precision conversion ------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 4 of the paper.  The free-format machinery is reused with one
/// twist: the rounding range [low, high] is conditionally *expanded* to the
/// half-quantum of the requested digit position,
///
///   low  = min((v + v-)/2, v - B^J/2),  high = max((v + v+)/2, v + B^J/2),
///
/// and an expanded endpoint is inclusive (a value exactly half a quantum
/// away is a legitimate correctly rounded output).  If the floating-point
/// precision exceeds the requested precision both ends expand and the
/// output is plain rounded text; otherwise the digits run out early and
/// the tail is filled with significant zeros followed by '#' marks.
///
//===----------------------------------------------------------------------===//

#include "core/fixed_format.h"

#include "bigint/power_cache.h"
#include "core/digit_loop.h"
#include "core/scaling.h"
#include "fp/boundaries.h"
#include "prof/phase.h"
#include "support/checks.h"

#include <algorithm>

using namespace dragon4;

namespace {

/// Table-1 setup for absolute position \p J, with the boundary distances
/// expanded to the half-quantum where that is the larger range, then the
/// exact scale search from \p SeedK.  \p Flags receives the expanded
/// boundary flags the digit loop needs.
ScaledState scaleAtPosition(const BigInt &F, int E, int Precision,
                            int MinExponent, unsigned B, BoundaryMode Mode,
                            int J, int SeedK, BoundaryFlags &Flags) {
  ScaledStart Start;
  {
    D4_PROF_SPAN(ScaleSetup);
    Start = makeScaledStartBig(F, E, Precision, MinExponent);

    // Express the half-quantum B^J / 2 over the common denominator.  Every
    // Table 1 denominator carries a factor of two, so S/2 is exact;
    // negative J rescales the whole (homogeneous) state instead of
    // dividing.
    BigInt HalfQuantum = Start.S;
    HalfQuantum >>= 1;
    if (J >= 0) {
      HalfQuantum *= cachedPow(B, static_cast<unsigned>(J));
    } else {
      const BigInt &Rescale = cachedPow(B, static_cast<unsigned>(-J));
      Start.R *= Rescale;
      Start.S *= Rescale;
      Start.MPlus *= Rescale;
      Start.MMinus *= Rescale;
    }

    Flags = BoundaryFlags::resolveEven(Mode, F.isEven());
    if (HalfQuantum >= Start.MPlus) {
      Start.MPlus = HalfQuantum;
      Flags.HighOk = true;
    }
    if (HalfQuantum >= Start.MMinus) {
      Start.MMinus = std::move(HalfQuantum);
      Flags.LowOk = true;
    }
  }
  return scaleIterative(std::move(Start), B, Flags, SeedK);
}

/// Runs the digit loop on a state scaled for absolute position \p J and
/// fills from the stopping position down to J.  The loop runs in \p Loop
/// and the result lands in \p Out, both with their digit storage cleared
/// but capacity retained, so a warm caller allocates nothing.  \p Loop's
/// BigInt tails are consumed in place.
void finishAtPosition(ScaledState State, BoundaryFlags Flags, unsigned B,
                      TieBreak Ties, int J, DigitLoopResult &Loop,
                      DigitString &Out) {
  const int K = State.K;

  Out.Digits.clear();
  Out.TrailingMarks = 0;

  // The entire value rounds away at this precision: high <= B^K <= B^J, so
  // the correctly rounded output is a single zero at position J.  It is
  // always significant: any non-zero digit at position J yields at least
  // B^J >= high, outside the rounding range.
  if (K <= J) {
    Out.Digits.push_back(0);
    Out.K = J + 1;
    return;
  }

  runDigitLoopInto(std::move(State), B, Flags, Ties, Loop);
  Out.Digits.assign(Loop.Digits.begin(), Loop.Digits.end());
  Out.K = K;

  int Position = K - static_cast<int>(Out.Digits.size());
  D4_ASSERT(Position >= J,
            "digit loop overshot the requested position (range too narrow)");

  // Fill from the stopping position down to J.  RTail / S measures
  // high - V in units of the current position: while it is below one unit,
  // a non-zero digit here would overshoot high, so a zero is significant;
  // from the first position where it reaches one unit, anything goes ('#').
  BigInt &RTail = Loop.R;
  RTail += Loop.MPlus;
  if (Loop.Incremented)
    RTail -= Loop.S;
  D4_ASSERT(!RTail.isNegative(), "increment chosen but out of range");
  while (Position > J) {
    if (RTail >= Loop.S) {
      Out.TrailingMarks = Position - J;
      break;
    }
    Out.Digits.push_back(0);
    --Position;
    RTail.mulSmall(B);
  }
}

/// The one Section 4 body.  An absolute request (\p NumDigits == 0) stops
/// at \p Position.  A relative request stops at J = K - NumDigits, but the
/// scale K depends on J through the expanded range, so each candidate K
/// costs one setup and one exact scale until the scaled K equals the
/// candidate.  The candidates start at the two-flop estimate, which never
/// exceeds the free-format K, and every exact K is at least the
/// free-format K and nondecreasing in J, so the sequence is nondecreasing
/// and stops at the least fixed point.
void convertInto(const BigInt &F, int E, int Precision, int MinExponent,
                 int Position, int NumDigits,
                 const FixedFormatOptions &Options, DigitLoopResult &Loop,
                 DigitString &Out) {
  D4_ASSERT(!F.isZero() && !F.isNegative(),
            "fixed-format conversion requires a positive mantissa");
  D4_ASSERT(Options.Base >= 2 && Options.Base <= 36, "base out of range");
  const unsigned B = Options.Base;
  int Candidate = estimateScale(E, static_cast<int>(F.bitLength()), B);
  for (;;) {
    const int J = NumDigits > 0 ? Candidate - NumDigits : Position;
    BoundaryFlags Flags;
    ScaledState State =
        scaleAtPosition(F, E, Precision, MinExponent, B, Options.Boundaries,
                        J, std::max(Candidate, J), Flags);
    if (NumDigits > 0 && State.K != Candidate) {
      D4_ASSERT(State.K > Candidate, "scale iteration must be nondecreasing");
      Candidate = State.K;
      continue;
    }
    finishAtPosition(std::move(State), Flags, B, Options.Ties, J, Loop, Out);
    return;
  }
}

} // namespace

void dragon4::fixedFormatAbsoluteBigInto(const BigInt &F, int E, int Precision,
                                         int MinExponent, int Position,
                                         const FixedFormatOptions &Options,
                                         DigitLoopResult &Loop,
                                         DigitString &Out) {
  convertInto(F, E, Precision, MinExponent, Position, 0, Options, Loop, Out);
}

void dragon4::fixedFormatRelativeBigInto(const BigInt &F, int E, int Precision,
                                         int MinExponent, int NumDigits,
                                         const FixedFormatOptions &Options,
                                         DigitLoopResult &Loop,
                                         DigitString &Out) {
  D4_ASSERT(NumDigits >= 1, "at least one digit must be requested");
  convertInto(F, E, Precision, MinExponent, 0, NumDigits, Options, Loop, Out);
}

DigitString dragon4::fixedFormatAbsolute(uint64_t F, int E, int Precision,
                                         int MinExponent, int Position,
                                         const FixedFormatOptions &Options) {
  DigitLoopResult Loop;
  DigitString Result;
  fixedFormatAbsoluteBigInto(BigInt(F), E, Precision, MinExponent, Position,
                             Options, Loop, Result);
  return Result;
}
