//===- fastpath/ryu.h - Ryu shortest-output fast path ------------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Ryu-style shortest-form converter after Adams, "Ryu: fast
/// float-to-string conversion" (PLDI 2018) -- the front line of the
/// library's shortest-output ladder, ahead of the exact Burger-Dybvig
/// loop.  Where Grisu3 (baselines/grisu.h) runs an error analysis and
/// *fails* on ~0.5% of inputs, Ryu computes the exact scaled interval
/// (v-, v, v+) with one 128-bit cached power of five per conversion and
/// tracks exactness explicitly, so it never needs to give up for in-range
/// inputs: the only fallbacks are defensive range checks.
///
/// Faithful to this repository's spirit, the cached powers are not magic
/// constants: they are the entries of the one compile-time table the
/// parser also uses (parse/pow5_table.h), asserted bit for bit against
/// the runtime BigInt stack.
///
/// Unlike Grisu (hard-wired to the conservative reader with round-up
/// ties), this implementation models every symmetric boundary semantics:
/// the caller passes AcceptBounds (may the output land exactly on a
/// neighbour midpoint?) and the writer-side TieBreak.  Asymmetric reader
/// models (LowInclusive/HighInclusive) are not expressible and must take
/// the exact path; see ryuEligible.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_FASTPATH_RYU_H
#define DRAGON4_FASTPATH_RYU_H

#include "core/options.h"

#include <cstdint>
#include <vector>

namespace dragon4 {

/// Decides whether Ryu's symmetric-bounds model expresses the requested
/// reader semantics for a value whose mantissa parity is \p MantissaEven.
/// On success sets \p AcceptBounds (both interval endpoints admissible)
/// and returns true.  Every TieBreak is supported; only base 10 and
/// symmetric BoundaryFlags (LowOk == HighOk) are.
inline bool ryuEligible(unsigned Base, BoundaryMode Boundaries,
                        bool MantissaEven, bool &AcceptBounds) {
  if (Base != 10)
    return false;
  BoundaryFlags Flags = BoundaryFlags::resolveEven(Boundaries, MantissaEven);
  if (Flags.LowOk != Flags.HighOk)
    return false;
  AcceptBounds = Flags.LowOk;
  return true;
}

/// Engine entry point: converts the positive value F * 2^E (a format with
/// \p Precision <= 54 mantissa bits and minimum exponent \p MinExponent)
/// to its shortest correctly rounded decimal form.  On success sets
/// \p Output to the decimal significand d1...dn as an integer, \p Length
/// to n (its exact digit count, at most 17), and \p K so that
/// v = 0.d1...dn * 10^K, and returns true.  Returns false only when a
/// defensive certification check fails (precision or cached-power range
/// exceeded); the caller must then fall back to the exact loop.  Touches
/// no memory besides its outputs, so the caller can render the digits
/// straight from \p Output (render_detail::renderDecimalAutoInto).
bool ryuShortestDecimal(uint64_t F, int E, int Precision, int MinExponent,
                        bool AcceptBounds, TieBreak Ties, uint64_t &Output,
                        int &Length, int &K);

/// ryuShortestDecimal with the digits stored one per element in \p Digits
/// (cleared first, capacity reused across calls, so a warm vector
/// allocates nothing): the DigitString form the differential tests and
/// the digit-layer benches compare against the exact loop.
bool ryuShortestInto(uint64_t F, int E, int Precision, int MinExponent,
                     bool AcceptBounds, TieBreak Ties,
                     std::vector<uint8_t> &Digits, int &K);

} // namespace dragon4

#endif // DRAGON4_FASTPATH_RYU_H
