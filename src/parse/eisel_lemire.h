//===- parse/eisel_lemire.h - The Eisel-Lemire conversion core ---*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The decimal-to-binary counterpart of the Dragon4 engine's fast path:
/// given a decimal significand w < 2^64 and a decimal exponent q, compute
/// the correctly rounded (nearest-even) IEEE encoding of w * 10^q with one
/// or two 64x64->128 multiplications against the pow5_table.h entry.
///
/// This is Lemire's Eisel-Lemire algorithm ("Number Parsing at a Gigabyte
/// per Second") with the Mushtak-Lemire refinement ("Fast Number Parsing
/// Without Fallback"): for any w < 2^64 the truncated 128-bit product is
/// always sufficient to round correctly, so -- unlike the original
/// algorithm -- there is no "too close to a midpoint, give up" exit.  The
/// only residue left to the halfway comparison (halfway.h) is inputs whose
/// decimal significand itself was truncated to 19 digits and whose
/// bracketing values w and w+1 round differently (see parse.cpp).
///
/// The result is the *biased* exponent and stored mantissa, i.e. the
/// encoding fields themselves: Power2 == 0 with Mantissa == 0 is a signed
/// zero, Power2 == ElParams<T>::InfinitePower is infinity, anything else
/// composes as (Power2 << StoredBits) | Mantissa.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_PARSE_EISEL_LEMIRE_H
#define DRAGON4_PARSE_EISEL_LEMIRE_H

#include "parse/pow5_table.h"

#include <bit>
#include <cstdint>

namespace dragon4::parse {

/// Per-format constants of the algorithm.  Only hardware binary32/64 have
/// certified parameters; the other formats take the exact bignum reader.
template <typename T> struct ElParams;

template <> struct ElParams<double> {
  static constexpr int StoredBits = 52;   ///< Explicit mantissa bits.
  static constexpr int MinimumExponent = -1023;
  static constexpr int InfinitePower = 0x7FF; ///< Biased exponent of inf.
  /// Decimal exponents beyond which every w < 10^19 is decisively zero
  /// (below the half-ulp of the smallest subnormal) or infinite.
  static constexpr int SmallestPowerOfTen = -342;
  static constexpr int LargestPowerOfTen = 308;
  /// Range of q where a product low half <= 1 can mask an exact-tie
  /// round-to-even case (Lemire 2021, section 9).
  static constexpr int MinExponentRoundToEven = -4;
  static constexpr int MaxExponentRoundToEven = 23;
};

template <> struct ElParams<float> {
  static constexpr int StoredBits = 23;
  static constexpr int MinimumExponent = -127;
  static constexpr int InfinitePower = 0xFF;
  static constexpr int SmallestPowerOfTen = -65;
  static constexpr int LargestPowerOfTen = 38;
  static constexpr int MinExponentRoundToEven = -17;
  static constexpr int MaxExponentRoundToEven = 10;
};

/// Encoding fields produced by the core (see file comment for the
/// zero/infinity conventions).
struct AdjustedMantissa {
  uint64_t Mantissa = 0;
  int32_t Power2 = 0; ///< Biased exponent field.

  friend bool operator==(const AdjustedMantissa &L,
                         const AdjustedMantissa &R) {
    return L.Mantissa == R.Mantissa && L.Power2 == R.Power2;
  }
};

namespace el_detail {

struct U128 {
  uint64_t Hi = 0;
  uint64_t Lo = 0;
};

inline U128 fullMultiply(uint64_t A, uint64_t B) {
  unsigned __int128 P = static_cast<unsigned __int128>(A) * B;
  return {static_cast<uint64_t>(P >> 64), static_cast<uint64_t>(P)};
}

/// floor(log2(10^Q)) + 63: the binary exponent of the normalized product
/// before the leading-bit adjustment.  217706/2^16 approximates log2(10)
/// to enough precision for |Q| < 2^15, far beyond the table range.
inline int32_t power2Of(int64_t Q) {
  return static_cast<int32_t>(((152170 + 65536) * Q) >> 16) + 63;
}

} // namespace el_detail

/// Correctly rounded nearest-even conversion of w * 10^q.  Requires
/// W < 2^64; Q may be any value (out-of-table exponents resolve to zero
/// or infinity, which is exact for the W < 10^19 significands the scanner
/// produces -- 19 digits times 10^-343 is below half the smallest
/// binary64 subnormal, and anything times 10^309 is past the largest).
template <typename T>
AdjustedMantissa eiselLemire(int64_t Q, uint64_t W) {
  using Params = ElParams<T>;
  using namespace el_detail;
  if (W == 0 || Q < Params::SmallestPowerOfTen)
    return {0, 0}; // Decisively (signed) zero.
  if (Q > Params::LargestPowerOfTen)
    return {0, Params::InfinitePower}; // Decisively infinite.

  int Lz = std::countl_zero(W);
  W <<= Lz;

  // One 128-bit product against the normalized 5^Q significand gives the
  // top bits of w * 10^Q.  If every bit below the precision we need is
  // set, the truncated tail of the table entry could still carry into
  // them; one more multiply against the low word settles it (and by
  // Mushtak-Lemire, always decisively for W < 2^64).
  const Pow5Entry &Entry = pow5Entry(Q);
  U128 Product = fullMultiply(W, Entry.Hi);
  constexpr uint64_t PrecisionMask = ~uint64_t(0) >> (Params::StoredBits + 3);
  if ((Product.Hi & PrecisionMask) == PrecisionMask) {
    U128 Second = fullMultiply(W, Entry.Lo);
    Product.Lo += Second.Hi;
    if (Product.Lo < Second.Hi)
      ++Product.Hi;
  }

  // Normalize to StoredBits + 3 bits (guard, round, sticky live below).
  int Upperbit = static_cast<int>(Product.Hi >> 63);
  int Shift = Upperbit + 64 - Params::StoredBits - 3;
  AdjustedMantissa Answer;
  Answer.Mantissa = Product.Hi >> Shift;
  Answer.Power2 = power2Of(Q) + Upperbit - Lz - Params::MinimumExponent;

  if (Answer.Power2 <= 0) { // Subnormal regime (or below it).
    if (-Answer.Power2 + 1 >= 64)
      return {0, 0}; // Shifted out entirely: zero.
    Answer.Mantissa >>= -Answer.Power2 + 1;
    Answer.Mantissa += Answer.Mantissa & 1; // Round half up...
    Answer.Mantissa >>= 1;
    // ...which cannot hit a half-way tie here: round-to-even only arises
    // for the small |q| range handled below, never in the subnormal
    // regime.  A carry back up to 2^StoredBits is the smallest normal.
    Answer.Power2 =
        Answer.Mantissa < (uint64_t(1) << Params::StoredBits) ? 0 : 1;
    return Answer;
  }

  // Exact-tie detection: when the true product has no bits below the
  // round bit (possible only for small |q| where 10^q divides a 64-bit
  // grid exactly) and the mantissa pattern is ...01, nearest-even must
  // round down, not up.  Clear the round bit so the add below is a no-op.
  if (Product.Lo <= 1 && Q >= Params::MinExponentRoundToEven &&
      Q <= Params::MaxExponentRoundToEven && (Answer.Mantissa & 3) == 1 &&
      (Answer.Mantissa << Shift) == Product.Hi)
    Answer.Mantissa &= ~uint64_t(1);

  Answer.Mantissa += Answer.Mantissa & 1; // Round half up (ties settled).
  Answer.Mantissa >>= 1;
  if (Answer.Mantissa >= (uint64_t(2) << Params::StoredBits)) {
    // Rounding carried into the next binade.
    Answer.Mantissa = uint64_t(1) << Params::StoredBits;
    ++Answer.Power2;
  }
  Answer.Mantissa &= ~(uint64_t(1) << Params::StoredBits); // Hidden bit.
  if (Answer.Power2 >= Params::InfinitePower)
    return {0, Params::InfinitePower}; // Overflow to infinity.
  return Answer;
}

} // namespace dragon4::parse

#endif // DRAGON4_PARSE_EISEL_LEMIRE_H
