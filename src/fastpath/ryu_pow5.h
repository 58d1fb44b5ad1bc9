//===- fastpath/ryu_pow5.h - Compile-time Ryu powers-of-five -----*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cached 128-bit powers of five the Ryu shortest-form converter
/// multiplies by (Adams, "Ryu: fast float-to-string conversion", PLDI
/// 2018) are the entries of the library's one compile-time table,
/// parse/pow5_table.h, which spans [-342, 342] for exactly this reason:
/// Ryu's POW5_SPLIT is the q >= 0 half and its POW5_INV_SPLIT the q < 0
/// half.  128-bit entries exceed the 125/124 bits Ryu's correctness
/// theorem requires for binary64, so the mulShift floors in ryu.cpp are
/// exact for every certified format.
///
/// What remains Ryu-specific is the exponent arithmetic over that table.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_FASTPATH_RYU_POW5_H
#define DRAGON4_FASTPATH_RYU_POW5_H

#include "parse/pow5_table.h"

#include <cstdint>

namespace dragon4::fastpath {

using parse::Pow5Entry;
using parse::pow5Entry;

/// bitlen(5^E): the number of bits in the exact power.  Ryu's pow5bits;
/// the magic fraction overestimates log2(5) by < 2^-19, exact for
/// E <= 3528.  Full-range agreement with the BigInt stack is asserted in
/// tests/fastpath/ryu_pow5_test.cpp.
constexpr int ryuPow5Bits(int E) {
  return static_cast<int>(
             (static_cast<uint32_t>(E) * uint32_t(1217359)) >> 19) +
         1;
}

static_assert(ryuPow5Bits(0) == 1 && ryuPow5Bits(1) == 3 &&
              ryuPow5Bits(325) == 755);

} // namespace dragon4::fastpath

#endif // DRAGON4_FASTPATH_RYU_POW5_H
