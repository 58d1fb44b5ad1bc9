//===- tests/parse/pow5_table_test.cpp -------------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's one compile-time powers-of-five table (shared by the
/// Eisel-Lemire parser and the Ryu printer) against the runtime BigInt
/// machinery: every one of the 685 entries in [-342, 342] is recomputed
/// from bigint/power_cache.h's cachedPow (truncation for q >= 0, an
/// explicit ceiling division for q < 0) and must match bit for bit.  The
/// two computations share no code -- the table is a constexpr limb
/// evaluator, the oracle is the library bignum stack.
///
//===----------------------------------------------------------------------===//

#include "parse/pow5_table.h"

#include "bigint/bigint.h"
#include "bigint/power_cache.h"

#include <gtest/gtest.h>

using namespace dragon4;
using namespace dragon4::parse;

namespace {

/// 64 bits of \p V starting at bit \p Pos (positions below zero or past
/// the value read as zero), mirroring the constexpr evaluator's helper.
uint64_t bitsAt(const BigInt &V, int64_t Pos) {
  uint64_t Out = 0;
  int64_t Length = static_cast<int64_t>(V.bitLength());
  for (int64_t B = 0; B < 64; ++B) {
    int64_t Bit = Pos + B;
    if (Bit < 0 || Bit >= Length)
      continue;
    if (V.testBit(static_cast<size_t>(Bit)))
      Out |= uint64_t(1) << B;
  }
  return Out;
}

TEST(Pow5Table, Bounds) {
  EXPECT_EQ(Pow5TableSize, 685);
  EXPECT_EQ(static_cast<int>(Pow5Table.size()), Pow5TableSize);
  // Every entry is normalized: bit 127 set.
  for (const Pow5Entry &Entry : Pow5Table)
    EXPECT_NE(Entry.Hi & (uint64_t(1) << 63), 0u);
}

TEST(Pow5Table, NonNegativeExponentsMatchCachedPowTruncation) {
  for (int Q = 0; Q <= LargestPowerOfFive; ++Q) {
    const BigInt &P = cachedPow(5, static_cast<unsigned>(Q));
    int64_t Length = static_cast<int64_t>(P.bitLength());
    const Pow5Entry &Entry = pow5Entry(Q);
    EXPECT_EQ(Entry.Hi, bitsAt(P, Length - 64)) << "5^" << Q;
    EXPECT_EQ(Entry.Lo, bitsAt(P, Length - 128)) << "5^" << Q;
  }
}

TEST(Pow5Table, NegativeExponentsMatchCeilingDivision) {
  for (int Q = -1; Q >= SmallestPowerOfFive; --Q) {
    const BigInt &D = cachedPow(5, static_cast<unsigned>(-Q));
    // ceil(2^(bitlen(D) + 127) / D), the normalized 128-bit reciprocal.
    // The truncation direction matters: the division is never exact (no
    // power of two shares a factor with 5), so ceiling must be floor + 1
    // -- an entry built by truncation instead would under-estimate and
    // break Ryu's one-sided error argument.
    BigInt Numerator(uint64_t(1));
    Numerator <<= D.bitLength() + 127;
    BigInt Quotient, Remainder;
    BigInt::divMod(Numerator, D, Quotient, Remainder);
    ASSERT_FALSE(Remainder.isZero()) << "5^" << Q; // Division never exact.
    Quotient.addSmall(1);
    ASSERT_EQ(Quotient.bitLength(), 128u) << "5^" << Q;
    const Pow5Entry &Entry = pow5Entry(Q);
    EXPECT_EQ(Entry.Hi, bitsAt(Quotient, 64)) << "5^" << Q;
    EXPECT_EQ(Entry.Lo, bitsAt(Quotient, 0)) << "5^" << Q;
  }
}

} // namespace
