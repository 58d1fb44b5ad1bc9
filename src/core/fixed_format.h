//===- core/fixed_format.h - Fixed-precision conversion ----------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fixed-format output (Section 4 of the paper): correctly rounded output
/// to a requested digit position, with '#' marks in place of insignificant
/// trailing digits -- "useful when printing denormalized numbers, which may
/// have only a few digits of precision, or when printing to a large number
/// of digits" (so 1/3 to ten places prints 0.3333333### rather than ten
/// digits of garbage).
///
/// Precision can be requested two ways:
///  * absolute digit position: "stop at the B^Position place" (e.g.
///    Position = -2 prints to two places after the radix point);
///  * relative digit position: "print NumDigits significant digits".
///
/// Both run one body on a BigInt mantissa: Table-1 setup expanded to the
/// position's half-quantum, one exact scale, the digit loop, the zero and
/// '#' fill.  A relative request repeats setup and scale once per
/// candidate scale factor, from the two-flop estimate up to the first K
/// with K = J + NumDigits; the scaled state of that last round feeds the
/// digit loop directly.  The *Into functions are the entry points; every
/// other function here wraps one of them.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_CORE_FIXED_FORMAT_H
#define DRAGON4_CORE_FIXED_FORMAT_H

#include "bigint/bigint.h"
#include "core/digit_loop.h"
#include "core/digits.h"
#include "core/options.h"
#include "fp/ieee_traits.h"

namespace dragon4 {

/// Options for fixed-format conversion.
///
/// Boundaries describes the reader of the *floating-point* rounding range
/// (the unexpanded endpoints); the endpoints introduced by the requested
/// precision itself are always inclusive, because a value landing exactly
/// on position J's half-quantum is a legitimate correctly rounded output.
struct FixedFormatOptions {
  unsigned Base = 10;                ///< Output base B, 2-36.
  BoundaryMode Boundaries = BoundaryMode::Conservative; ///< Reader model.
  TieBreak Ties = TieBreak::RoundUp; ///< Strategy for exact halfway cases.
};

/// Converts the positive value F * 2^E to base-B digits, stopping at
/// absolute digit position \p Position (the place value B^Position).
DigitString fixedFormatAbsolute(uint64_t F, int E, int Precision,
                                int MinExponent, int Position,
                                const FixedFormatOptions &Options = {});

/// Zero-allocation forms over a BigInt mantissa (any width), mirroring
/// runDigitLoopInto: the loop runs in \p Loop and the result lands in
/// \p Out, both caller-owned with their digit storage cleared but capacity
/// kept.  With a limb arena active and both warm, the conversion performs
/// no heap traffic.  \p Loop's BigInt tails are consumed in place; it
/// holds nothing meaningful afterwards.  The relative form produces
/// exactly \p NumDigits base-B digit positions (digits plus marks),
/// NumDigits >= 1.
void fixedFormatAbsoluteBigInto(const BigInt &F, int E, int Precision,
                                int MinExponent, int Position,
                                const FixedFormatOptions &Options,
                                DigitLoopResult &Loop, DigitString &Out);
void fixedFormatRelativeBigInto(const BigInt &F, int E, int Precision,
                                int MinExponent, int NumDigits,
                                const FixedFormatOptions &Options,
                                DigitLoopResult &Loop, DigitString &Out);

/// Zero-allocation absolute-position conversion for a finite non-zero
/// IEEE value (magnitude only; rendering attaches the sign); see
/// fixedFormatAbsoluteBigInto for the storage contract.  Wide-significand
/// formats route through their decomposeBig overload (found by ADL).
template <typename T>
void fixedDigitsAbsoluteInto(T Value, int Position,
                             const FixedFormatOptions &Options,
                             DigitLoopResult &Loop, DigitString &Out) {
  using Traits = IeeeTraits<T>;
  if constexpr (Traits::Precision > 64) {
    auto D = decomposeBig(Value);
    fixedFormatAbsoluteBigInto(D.F, D.E, Traits::Precision,
                               Traits::MinExponent, Position, Options, Loop,
                               Out);
  } else {
    Decomposed D = decompose(Value);
    fixedFormatAbsoluteBigInto(BigInt(D.F), D.E, Traits::Precision,
                               Traits::MinExponent, Position, Options, Loop,
                               Out);
  }
}

/// Zero-allocation relative-position conversion for a finite non-zero
/// IEEE value; see fixedFormatAbsoluteBigInto for the storage contract.
template <typename T>
void fixedDigitsRelativeInto(T Value, int NumDigits,
                             const FixedFormatOptions &Options,
                             DigitLoopResult &Loop, DigitString &Out) {
  using Traits = IeeeTraits<T>;
  if constexpr (Traits::Precision > 64) {
    auto D = decomposeBig(Value);
    fixedFormatRelativeBigInto(D.F, D.E, Traits::Precision,
                               Traits::MinExponent, NumDigits, Options, Loop,
                               Out);
  } else {
    Decomposed D = decompose(Value);
    fixedFormatRelativeBigInto(BigInt(D.F), D.E, Traits::Precision,
                               Traits::MinExponent, NumDigits, Options, Loop,
                               Out);
  }
}

/// Absolute-position conversion for a finite non-zero IEEE value.
template <typename T>
DigitString fixedDigitsAbsolute(T Value, int Position,
                                const FixedFormatOptions &Options = {}) {
  DigitLoopResult Loop;
  DigitString Out;
  fixedDigitsAbsoluteInto(Value, Position, Options, Loop, Out);
  return Out;
}

/// Relative-position conversion for a finite non-zero IEEE value.
template <typename T>
DigitString fixedDigitsRelative(T Value, int NumDigits,
                                const FixedFormatOptions &Options = {}) {
  DigitLoopResult Loop;
  DigitString Out;
  fixedDigitsRelativeInto(Value, NumDigits, Options, Loop, Out);
  return Out;
}

} // namespace dragon4

#endif // DRAGON4_CORE_FIXED_FORMAT_H
