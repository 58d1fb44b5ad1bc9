//===- fp/boundaries.cpp - Table 1 initial values --------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "fp/boundaries.h"

#include "bigint/power_cache.h"
#include "support/checks.h"

using namespace dragon4;

ScaledStart dragon4::makeScaledStartBig(const BigInt &F, int E, int Precision,
                                        int MinExponent, unsigned InputBase) {
  D4_ASSERT(!F.isZero() && !F.isNegative(), "mantissa must be positive");
  D4_ASSERT(InputBase >= 2, "input base must be at least 2");
  D4_ASSERT(E >= MinExponent, "exponent below the format minimum");

  // Is v's predecessor gap narrower?  True exactly when f is the smallest
  // normalized mantissa and the exponent can still be lowered.  Compare
  // before any other cachedPow fetch: growing the cache reallocates its
  // backing vector, so the b^(p-1) reference dies at the next fetch.
  const bool NarrowBelow =
      E > MinExponent &&
      F == cachedPow(InputBase, static_cast<unsigned>(Precision - 1));

  ScaledStart Start;
  if (E >= 0) {
    if (!NarrowBelow) {
      // r = f * b^e * 2, s = 2, m+ = m- = b^e.
      const BigInt &BToE = cachedPow(InputBase, static_cast<unsigned>(E));
      Start.R = F * BToE;
      Start.R <<= 1;
      Start.S = BigInt(uint64_t(2));
      Start.MPlus = BToE;
      Start.MMinus = BToE;
    } else {
      // r = f * b^(e+1) * 2, s = b * 2, m+ = b^(e+1), m- = b^e.
      // Fetch the larger exponent first: growing the cache reallocates its
      // backing vector, so a b^e reference taken earlier would dangle.
      const BigInt &BToE1 = cachedPow(InputBase, static_cast<unsigned>(E + 1));
      const BigInt &BToE = cachedPow(InputBase, static_cast<unsigned>(E));
      Start.R = F * BToE1;
      Start.R <<= 1;
      Start.S = BigInt(uint64_t(2) * InputBase);
      Start.MPlus = BToE1;
      Start.MMinus = BToE;
    }
    return Start;
  }

  if (!NarrowBelow) {
    // r = f * 2, s = b^(-e) * 2, m+ = m- = 1.
    Start.R = F;
    Start.R <<= 1;
    Start.S = cachedPow(InputBase, static_cast<unsigned>(-E));
    Start.S.mulSmall(2);
    Start.MPlus = BigInt(uint64_t(1));
    Start.MMinus = BigInt(uint64_t(1));
  } else {
    // r = f * b * 2, s = b^(1-e) * 2, m+ = b, m- = 1.
    Start.R = F;
    Start.R.mulSmall(InputBase);
    Start.R <<= 1;
    Start.S = cachedPow(InputBase, static_cast<unsigned>(1 - E));
    Start.S.mulSmall(2);
    Start.MPlus = BigInt(uint64_t(InputBase));
    Start.MMinus = BigInt(uint64_t(1));
  }
  return Start;
}

ScaledStart dragon4::makeScaledStart(uint64_t F, int E, int Precision,
                                     int MinExponent, unsigned InputBase) {
  D4_ASSERT(F > 0, "mantissa must be positive");
  return makeScaledStartBig(BigInt(F), E, Precision, MinExponent, InputBase);
}
