//===- tests/fastpath/ryu_pow5_test.cpp ------------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ryu's exponent arithmetic over the shared powers-of-five table:
/// ryuPow5Bits must equal the exact BigInt bit length of 5^E over the
/// table's whole positive range.  The table entries themselves are
/// asserted against the BigInt stack in tests/parse/pow5_table_test.cpp.
///
//===----------------------------------------------------------------------===//

#include "fastpath/ryu_pow5.h"

#include "bigint/bigint.h"
#include "bigint/power_cache.h"

#include <gtest/gtest.h>

using namespace dragon4;
using namespace dragon4::fastpath;

namespace {

TEST(RyuPow5Table, Pow5BitsMatchesExactBitLength) {
  for (int E = 0; E <= parse::LargestPowerOfFive; ++E)
    EXPECT_EQ(static_cast<uint64_t>(ryuPow5Bits(E)),
              cachedPow(5, static_cast<unsigned>(E)).bitLength())
        << "5^" << E;
}

} // namespace
