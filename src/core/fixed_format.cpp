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
#include "support/checks.h"

#include <bit>

using namespace dragon4;

namespace {

/// The exact pre-scaling state for a fixed-format conversion at absolute
/// position J, with the boundary distances expanded to the half-quantum
/// where that is the larger range.
struct FixedStart {
  ScaledStart Start;
  BoundaryFlags Flags;
  int SeedK; ///< Starting point for the exact scale search.
};

FixedStart setupFixed(const BigInt &F, int E, int Precision,
                      int MinExponent, unsigned B, BoundaryMode Mode,
                      int J) {
  FixedStart Setup;
  Setup.Start = makeScaledStartBig(F, E, Precision, MinExponent);
  ScaledStart &Start = Setup.Start;

  // Express the half-quantum B^J / 2 over the common denominator.  Every
  // Table 1 denominator carries a factor of two, so S/2 is exact; negative
  // J rescales the whole (homogeneous) state instead of dividing.
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

  BoundaryFlags User = BoundaryFlags::resolveEven(Mode, F.isEven());
  Setup.Flags = User;
  if (HalfQuantum >= Start.MPlus) {
    Start.MPlus = HalfQuantum;
    Setup.Flags.HighOk = true;
  }
  if (HalfQuantum >= Start.MMinus) {
    Start.MMinus = std::move(HalfQuantum);
    Setup.Flags.LowOk = true;
  }

  // Seed the exact scale search near the answer: the value's own magnitude
  // estimate, or the quantum's position, whichever dominates.
  int BitLength = static_cast<int>(F.bitLength());
  Setup.SeedK = std::max(estimateScale(E, BitLength, B), J);
  return Setup;
}

/// Computes just the exact scale factor K for position \p J (used by the
/// relative-position iteration).
int exactScaleFor(const BigInt &F, int E, int Precision, int MinExponent,
                  unsigned B, BoundaryMode Mode, int J) {
  FixedStart Setup = setupFixed(F, E, Precision, MinExponent, B, Mode, J);
  ScaledState State =
      scaleIterative(std::move(Setup.Start), B, Setup.Flags, Setup.SeedK);
  return State.K;
}

/// Runs the conversion for absolute position \p J given a prepared setup.
/// The loop runs in \p Loop and the result lands in \p Out, both with
/// their digit storage cleared but capacity retained, so a warm caller
/// allocates nothing.  \p Loop's BigInt tails are consumed in place.
void convertAtPositionInto(FixedStart Setup, unsigned B, TieBreak Ties, int J,
                           DigitLoopResult &Loop, DigitString &Out) {
  ScaledState State =
      scaleIterative(std::move(Setup.Start), B, Setup.Flags, Setup.SeedK);
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

  runDigitLoopInto(std::move(State), B, Setup.Flags, Ties, Loop);
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

} // namespace

DigitString dragon4::fixedFormatAbsoluteBig(const BigInt &F, int E,
                                            int Precision, int MinExponent,
                                            int Position,
                                            const FixedFormatOptions &Options) {
  DigitLoopResult Loop;
  DigitString Result;
  fixedFormatAbsoluteBigInto(F, E, Precision, MinExponent, Position, Options,
                             Loop, Result);
  return Result;
}

void dragon4::fixedFormatAbsoluteBigInto(const BigInt &F, int E, int Precision,
                                         int MinExponent, int Position,
                                         const FixedFormatOptions &Options,
                                         DigitLoopResult &Loop,
                                         DigitString &Out) {
  D4_ASSERT(!F.isZero() && !F.isNegative(),
            "fixed-format conversion requires a positive mantissa");
  D4_ASSERT(Options.Base >= 2 && Options.Base <= 36, "base out of range");
  FixedStart Setup = setupFixed(F, E, Precision, MinExponent, Options.Base,
                                Options.Boundaries, Position);
  convertAtPositionInto(std::move(Setup), Options.Base, Options.Ties, Position,
                        Loop, Out);
}

DigitString dragon4::fixedFormatAbsolute(uint64_t F, int E, int Precision,
                                         int MinExponent, int Position,
                                         const FixedFormatOptions &Options) {
  D4_ASSERT(F > 0, "fixed-format conversion requires a positive mantissa");
  return fixedFormatAbsoluteBig(BigInt(F), E, Precision, MinExponent,
                                Position, Options);
}

DigitString dragon4::fixedFormatRelativeBig(const BigInt &F, int E,
                                            int Precision, int MinExponent,
                                            int NumDigits,
                                            const FixedFormatOptions &Options) {
  DigitLoopResult Loop;
  DigitString Result;
  fixedFormatRelativeBigInto(F, E, Precision, MinExponent, NumDigits, Options,
                             Loop, Result);
  return Result;
}

void dragon4::fixedFormatRelativeBigInto(const BigInt &F, int E, int Precision,
                                         int MinExponent, int NumDigits,
                                         const FixedFormatOptions &Options,
                                         DigitLoopResult &Loop,
                                         DigitString &Out) {
  D4_ASSERT(!F.isZero() && !F.isNegative(),
            "fixed-format conversion requires a positive mantissa");
  D4_ASSERT(NumDigits >= 1, "at least one digit must be requested");
  D4_ASSERT(Options.Base >= 2 && Options.Base <= 36, "base out of range");
  const unsigned B = Options.Base;

  // The scale factor depends on the absolute position J = K - NumDigits,
  // which depends on the scale factor.  Iterate to the fixed point: the
  // candidate sequence is nondecreasing and gains at most one, so this
  // settles after at most two exact evaluations (see tests for the 9.995
  // style carry cases that need the second round).
  BoundaryFlags FreeFlags =
      BoundaryFlags::resolveEven(Options.Boundaries, F.isEven());
  int BitLength = static_cast<int>(F.bitLength());
  ScaledState FreeState =
      scaleIterative(makeScaledStartBig(F, E, Precision, MinExponent), B,
                     FreeFlags, estimateScale(E, BitLength, B));
  int Candidate = FreeState.K;
  for (int Round = 0; Round < 4; ++Round) {
    int J = Candidate - NumDigits;
    int Exact = exactScaleFor(F, E, Precision, MinExponent, B,
                              Options.Boundaries, J);
    if (Exact == Candidate) {
      FixedStart Setup =
          setupFixed(F, E, Precision, MinExponent, B, Options.Boundaries, J);
      convertAtPositionInto(std::move(Setup), B, Options.Ties, J, Loop, Out);
      return;
    }
    D4_ASSERT(Exact > Candidate, "scale iteration must be nondecreasing");
    Candidate = Exact;
  }
  unreachable("relative-position scale iteration failed to converge");
}

DigitString dragon4::fixedFormatRelative(uint64_t F, int E, int Precision,
                                         int MinExponent, int NumDigits,
                                         const FixedFormatOptions &Options) {
  D4_ASSERT(F > 0, "fixed-format conversion requires a positive mantissa");
  return fixedFormatRelativeBig(BigInt(F), E, Precision, MinExponent,
                                NumDigits, Options);
}
