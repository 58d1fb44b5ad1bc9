//===- core/free_format.h - Shortest-output conversion -----------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Free-format output (Sections 2-3 of the paper): the shortest, correctly
/// rounded base-B digit string that reads back as exactly the input value.
///
/// One body does the work -- Table-1 setup, `scale` under the chosen
/// Table-2 strategy, the digit loop -- on a BigInt mantissa.  The four
/// entry points below (64-bit or BigInt mantissa, by value or into a
/// caller-owned loop result) are thin wrappers over it.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_CORE_FREE_FORMAT_H
#define DRAGON4_CORE_FREE_FORMAT_H

#include "bigint/bigint.h"
#include "core/digit_loop.h"
#include "core/digits.h"
#include "core/options.h"
#include "fp/ieee_traits.h"

#include <cmath>
#include <type_traits>

namespace dragon4 {

/// Options for free-format conversion.
struct FreeFormatOptions {
  unsigned Base = 10;                 ///< Output base B, 2-36.
  BoundaryMode Boundaries = BoundaryMode::NearestEven; ///< Reader model.
  TieBreak Ties = TieBreak::RoundUp;  ///< Writer tie strategy.
  ScalingAlgorithm Scaling = ScalingAlgorithm::Estimate; ///< Table 2 knob.
};

/// Converts the positive value F * 2^E (a format with \p Precision bits of
/// mantissa and minimum exponent \p MinExponent) to its shortest correctly
/// rounded base-B digit string.
DigitString freeFormatDigits(uint64_t F, int E, int Precision,
                             int MinExponent,
                             const FreeFormatOptions &Options);

/// Generalization for mantissas wider than 64 bits (binary128 and
/// friends): same contract, BigInt mantissa.
DigitString freeFormatDigitsBig(const BigInt &F, int E, int Precision,
                                int MinExponent,
                                const FreeFormatOptions &Options);

/// Engine entry point: the same conversion, written into a caller-owned
/// loop result whose digit storage is reused across calls.  Returns the
/// scale factor K (the digits in \p Out satisfy v = 0.d1...dn * B^K).
/// With a limb arena active and \p Out warm this allocates nothing; the
/// by-value forms above wrap these.
int freeFormatDigitsInto(uint64_t F, int E, int Precision, int MinExponent,
                         const FreeFormatOptions &Options,
                         DigitLoopResult &Out);

/// Wide-mantissa engine entry point (same contract, BigInt mantissa).
int freeFormatDigitsBigInto(const BigInt &F, int E, int Precision,
                            int MinExponent, const FreeFormatOptions &Options,
                            DigitLoopResult &Out);

/// Converts a finite non-zero value of any supported IEEE type.  The sign
/// is ignored (digit generation works on the magnitude; rendering attaches
/// the sign).  Formats whose significand exceeds 64 bits take the
/// BigInt-mantissa path via their decomposeBig overload (found by ADL at
/// instantiation, so this header stays format-agnostic).
template <typename T>
DigitString shortestDigits(T Value, const FreeFormatOptions &Options = {}) {
  using Traits = IeeeTraits<T>;
  if constexpr (Traits::Precision > 64) {
    auto D = decomposeBig(Value);
    return freeFormatDigitsBig(D.F, D.E, Traits::Precision,
                               Traits::MinExponent, Options);
  } else {
    Decomposed D = decompose(Value);
    return freeFormatDigits(D.F, D.E, Traits::Precision, Traits::MinExponent,
                            Options);
  }
}

} // namespace dragon4

#endif // DRAGON4_CORE_FREE_FORMAT_H
