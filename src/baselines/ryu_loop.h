//===- baselines/ryu_loop.h - Ryu digit-removal baseline --------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The general Ryu shortest-form loop after Adams, "Ryu: fast
/// float-to-string conversion" (PLDI 2018), kept as a bench competitor and
/// differential oracle for the production digit core (fastpath/ryu.h,
/// Schubfach).  It computes the exact scaled interval (v-, v, v+) with one
/// 128-bit cached power of five, then removes one decimal digit per
/// iteration -- three divisions by ten each -- while the interval still
/// spans a multiple of ten.  It models the same symmetric option sets as
/// the production core (AcceptBounds plus a writer TieBreak; see
/// ryuEligible) and, like it, never gives up for in-range inputs: the
/// only failures are defensive range checks.
///
/// The cached powers are the entries of the one compile-time table,
/// parse/pow5_table.h: Ryu's POW5_SPLIT is its q >= 0 half and
/// POW5_INV_SPLIT its q < 0 half.  128-bit entries exceed the 125/124 bits
/// Ryu's correctness theorem requires for binary64.  What is Ryu-specific
/// is the exponent arithmetic over that table, ryuPow5Bits below.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_BASELINES_RYU_LOOP_H
#define DRAGON4_BASELINES_RYU_LOOP_H

#include "core/options.h"

#include <cstdint>
#include <vector>

namespace dragon4 {

/// bitlen(5^E): the number of bits in the exact power.  Ryu's pow5bits;
/// the magic fraction overestimates log2(5) by < 2^-19, exact for
/// E <= 3528.  Full-range agreement with the BigInt stack is asserted in
/// tests/baselines/ryu_pow5_test.cpp.
constexpr int ryuPow5Bits(int E) {
  return static_cast<int>(
             (static_cast<uint32_t>(E) * uint32_t(1217359)) >> 19) +
         1;
}

static_assert(ryuPow5Bits(0) == 1 && ryuPow5Bits(1) == 3 &&
              ryuPow5Bits(325) == 755);

/// The Ryu removal loop on the positive value F * 2^E (a format with
/// \p Precision <= 54 mantissa bits and minimum exponent \p MinExponent),
/// with ryuShortestDecimal's contract: on success sets \p Output to the
/// decimal significand, \p Length to its digit count and \p K so that
/// v = 0.d1...dn * 10^K, and returns true.  Returns false only when a
/// defensive range check fails.
bool ryuLoopShortestDecimal(uint64_t F, int E, int Precision, int MinExponent,
                            bool AcceptBounds, TieBreak Ties,
                            uint64_t &Output, int &Length, int &K);

/// ryuLoopShortestDecimal with the digits stored one per element in
/// \p Digits (cleared first, capacity reused across calls).
bool ryuLoopShortestInto(uint64_t F, int E, int Precision, int MinExponent,
                         bool AcceptBounds, TieBreak Ties,
                         std::vector<uint8_t> &Digits, int &K);

} // namespace dragon4

#endif // DRAGON4_BASELINES_RYU_LOOP_H
