//===- baselines/diyfp.h - 64-bit fixed-point helpers ------------*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared 64-bit-significand arithmetic of the fast paths: the DiyFp
/// value type, its cached powers of ten, normalization, and the rounded
/// 128-bit product.  Error discipline: multiplying two values whose
/// significands are exact yields at most 1/2 unit of error; each inexact
/// input (e.g. a cached power of ten) contributes up to 1/2 more.  Users:
/// the Grisu3 baseline (grisu.h) and the fixed-format fast path
/// (fastpath/fixed_fast.h).
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_BASELINES_DIYFP_H
#define DRAGON4_BASELINES_DIYFP_H

#include "support/checks.h"

#include <bit>
#include <cstdint>

namespace dragon4 {

/// A 64-bit-significand floating-point value F * 2^E ("do-it-yourself
/// floating point" in Loitsch's terminology).
struct DiyFp {
  uint64_t F = 0;
  int E = 0;
};

/// Returns 10^\p K10 as a DiyFp with a normalized (top-bit-set) 64-bit
/// significand, correctly rounded, computed from the exact BigInt power
/// and cached per thread (defined in baselines/grisu.cpp).  Exposed for
/// tests.
DiyFp cachedPowerOfTen(int K10);

/// Rounded high 64 bits of the 128-bit product.
inline DiyFp diyMultiply(DiyFp A, DiyFp B) {
  unsigned __int128 Product =
      static_cast<unsigned __int128>(A.F) * B.F + (uint64_t(1) << 63);
  return DiyFp{static_cast<uint64_t>(Product >> 64), A.E + B.E + 64};
}

/// Shifts left until the top bit is set.
inline DiyFp diyNormalize(DiyFp Value) {
  D4_ASSERT(Value.F != 0, "cannot normalize zero");
  int Shift = std::countl_zero(Value.F);
  return DiyFp{Value.F << Shift, Value.E - Shift};
}

} // namespace dragon4

#endif // DRAGON4_BASELINES_DIYFP_H
