//===- parse/halfway.h - Exact halfway comparison for the parser -*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The certified binary32/64 fallback of parseFloat: one exact comparison
/// of the decimal literal against the halfway point between two adjacent
/// encodings, in the spirit of the digit comparison of Lemire's "Number
/// Parsing at a Gigabyte per Second".
///
/// The fallback runs only when the literal has more than 19 significant
/// digits and Eisel-Lemire rounds its truncated brackets w*10^q and
/// (w+1)*10^q to different encodings.  The bracket is narrower than one
/// ulp, so the answer is the lower bracket's encoding L or its successor
/// (bits + 1, which carries into the exponent and reaches infinity past
/// the largest finite value), and the literal's exact value D*10^Qd decides
/// it against the halfway point h = (2m+1) * 2^(e-1) between them:
///
///   Qd >= 0:  D * 5^Qd * 2^Qd    vs  (2m+1) * 2^(e-1)
///   Qd <  0:  D * 2^Qd           vs  (2m+1) * 5^-Qd * 2^(e-1)
///
/// with the powers of two cancelled by one left shift of the smaller side.
/// Below h gives L, above gives L + 1, and a tie goes to the even one.
///
/// D holds at most 800 significant digits (MaxHalfwayDigits); a non-zero
/// digit past them only sets a sticky bit.  That is exact: a binary64
/// halfway point has at most 768 significant digits (113 for binary32),
/// and h lies within the bracket, so it is a multiple of 10^(Qd+32).  If
/// the 800-digit prefix D*10^Qd is below h, so is the whole literal (the
/// tail adds less than 10^Qd); if it is above, so is the literal; and on
/// a tie the sticky bit alone decides, upward.
///
/// All arithmetic (halfway.cpp) is on a fixed-capacity stack integer with
/// multiply-by-u64, add, shift and compare: no heap, no division.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_PARSE_HALFWAY_H
#define DRAGON4_PARSE_HALFWAY_H

#include "parse/eisel_lemire.h"

#include <cstdint>
#include <string_view>

namespace dragon4::parse {

/// True when the literal (W . Tail) * 10^Q lies above the halfway point
/// (2M+1) * 2^(E-1), or on it with M odd (ties to even).  \p W holds the
/// literal's first 19 significant digits; \p Tail is the text of the
/// rest, from the 20th significant digit up to the first character that
/// is neither a digit nor the radix point.  Requires the literal to lie
/// within a factor 1 + 10^-18 of the halfway point, in the range of
/// binary32 or binary64.
bool aboveHalfway(uint64_t W, std::string_view Tail, int64_t Q, uint64_t M,
                  int64_t E);

/// Correctly rounds the literal (W . Tail) * 10^Q (see aboveHalfway),
/// given that the result is \p Lower or its successor.
template <typename T>
AdjustedMantissa resolveHalfway(uint64_t W, std::string_view Tail, int64_t Q,
                                AdjustedMantissa Lower) {
  using Params = ElParams<T>;
  // h = (2m+1) * 2^(E-1), m the lower encoding's full significand.
  const bool Subnormal = Lower.Power2 == 0;
  const uint64_t M =
      Subnormal ? Lower.Mantissa
                : Lower.Mantissa | (uint64_t(1) << Params::StoredBits);
  const int64_t E = (Subnormal ? 1 : Lower.Power2) + Params::MinimumExponent -
                    Params::StoredBits;
  if (!aboveHalfway(W, Tail, Q, M, E))
    return Lower;
  AdjustedMantissa Next = Lower;
  if (++Next.Mantissa == (uint64_t(1) << Params::StoredBits)) {
    Next.Mantissa = 0; // Carry into the exponent (possibly infinity).
    ++Next.Power2;
  }
  return Next;
}

} // namespace dragon4::parse

#endif // DRAGON4_PARSE_HALFWAY_H
