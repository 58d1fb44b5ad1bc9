//===- tests/fastpath/schubfach_test.cpp -----------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Schubfach digit core's arithmetic, against the BigInt stack: the
/// three floor-log approximations over their whole stated input ranges,
/// the power of ten g the core reads from the one pow5 table (entry + 1
/// for -k >= 0, the entry as is for -k < 0) for every index it can read,
/// the scaling shift, and the trailing-zero stripper.  The digit core's
/// output is certified against the exact loop in ryu_test.cpp and
/// ryu_differential_test.cpp.
///
//===----------------------------------------------------------------------===//

#include "fastpath/schubfach.h"

#include "bigint/bigint.h"
#include "bigint/power_cache.h"

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <string>

using namespace dragon4;
using namespace dragon4::fastpath;

namespace {

/// Base^|Exponent| as a BigInt.
const BigInt &powAbs(unsigned Base, int Exponent) {
  return cachedPow(Base, static_cast<unsigned>(Exponent < 0 ? -Exponent
                                                            : Exponent));
}

/// Sign of N / D - Base^J, exactly.
int compareWithPower(const BigInt &N, const BigInt &D, unsigned Base, int J) {
  return J >= 0 ? N.compare(D * powAbs(Base, J))
                : (N * powAbs(Base, J)).compare(D);
}

/// Is J = floor(log_Base(N / D))?  That is, Base^J <= N/D < Base^(J+1).
bool isFloorLog(const BigInt &N, const BigInt &D, unsigned Base, int J) {
  return compareWithPower(N, D, Base, J) >= 0 &&
         compareWithPower(N, D, Base, J + 1) < 0;
}

/// 2^E as the fraction N / D.
void powerOfTwo(int E, BigInt &N, BigInt &D) {
  N = powAbs(2, E >= 0 ? E : 0);
  D = powAbs(2, E >= 0 ? 0 : E);
}

TEST(SchubfachFloorLog, Log10Pow2MatchesBigIntOverItsRange) {
  BigInt N, D;
  for (int E = -FloorLog10Pow2Limit; E <= FloorLog10Pow2Limit; ++E) {
    powerOfTwo(E, N, D);
    ASSERT_TRUE(isFloorLog(N, D, 10, floorLog10Pow2(E))) << "E = " << E;
  }
}

TEST(SchubfachFloorLog, Log10ThreeQuartersPow2MatchesBigIntOverItsRange) {
  BigInt N, D;
  for (int E = FloorLog10ThreeQuartersPow2Min;
       E <= FloorLog10ThreeQuartersPow2Max; ++E) {
    powerOfTwo(E, N, D);
    N.mulSmall(3);
    D.mulSmall(4);
    ASSERT_TRUE(isFloorLog(N, D, 10, floorLog10ThreeQuartersPow2(E)))
        << "E = " << E;
  }
}

TEST(SchubfachFloorLog, Log2Pow10MatchesBigIntOverItsRange) {
  for (int E = -FloorLog2Pow10Limit; E <= FloorLog2Pow10Limit; ++E) {
    const BigInt N = powAbs(10, E >= 0 ? E : 0);
    const BigInt D = powAbs(10, E >= 0 ? 0 : E);
    ASSERT_TRUE(isFloorLog(N, D, 2, floorLog2Pow10(E))) << "E = " << E;
  }
}

/// Every decimal exponent -k the core can read, over the whole certified
/// exponent range, regular and binade-boundary scaling alike.
std::set<int> tableIndicesRead() {
  std::set<int> Indices;
  for (int E = CertifiedMinExponent; E <= CertifiedMaxExponent; ++E) {
    Indices.insert(-floorLog10Pow2(E));
    Indices.insert(-floorLog10ThreeQuartersPow2(E));
  }
  return Indices;
}

/// g(Q) = floor(10^Q * 2^(127 - floor(Q log2 10))) + 1, bit for bit, for
/// every index the core reads.  This pins both halves of the entry + 1
/// rule: the truncated q >= 0 entries need the + 1, the ceiling-rounded
/// q < 0 entries already carry it.
TEST(SchubfachPowers, GMatchesBigIntForEveryIndexRead) {
  const std::set<int> Indices = tableIndicesRead();
  ASSERT_GT(Indices.size(), 600u);
  const BigInt Low = powAbs(2, 127);
  const BigInt High = powAbs(2, 128);
  for (int Q : Indices) {
    const int Shift = 127 - floorLog2Pow10(Q);
    BigInt N = powAbs(10, Q >= 0 ? Q : 0);
    BigInt D = powAbs(10, Q >= 0 ? 0 : Q);
    if (Shift >= 0)
      N <<= static_cast<size_t>(Shift);
    else
      D <<= static_cast<size_t>(-Shift);
    BigInt Expected = N / D + BigInt(uint64_t(1));
    ASSERT_TRUE(Low <= Expected && Expected < High) << "Q = " << Q;

    const parse::Pow5Entry G = schubfachG(Q);
    BigInt Got = BigInt(G.Hi) << 64;
    Got += BigInt(G.Lo);
    EXPECT_EQ(Got, Expected) << "Q = " << Q;
  }
}

/// The scaling shift H = E + floor(-k log2 10) + 1 stays in [1, 4], so the
/// core's products (4F + 2) << H fit 59 bits for binary64's 53.
TEST(SchubfachPowers, ScalingShiftStaysSmall) {
  for (int E = CertifiedMinExponent; E <= CertifiedMaxExponent; ++E) {
    for (int K : {floorLog10Pow2(E), floorLog10ThreeQuartersPow2(E)}) {
      const int H = E + floorLog2Pow10(-K) + 1;
      EXPECT_GE(H, 1) << "E = " << E << " k = " << K;
      EXPECT_LE(H, 4) << "E = " << E << " k = " << K;
    }
  }
}

/// The modular-inverse stripper agrees with a plain division loop, on
/// random values and on random values times every power of ten that
/// keeps them below 10^18.
TEST(SchubfachDigits, StripTrailingZerosMatchesDivisionLoop) {
  std::mt19937_64 Rng(0x5a65726f73ull); // "Zeros"
  uint64_t Power = 1;
  for (int Zeros = 0; Zeros <= 17; ++Zeros, Power *= 10) {
    for (int I = 0; I < 2000; ++I) {
      const uint64_t Limit = 1000000000000000000ull / Power;
      const uint64_t Base = 1 + Rng() % (Limit - 1);
      uint64_t Stripped = Base * Power;
      const int Removed = stripTrailingZeros(Stripped);

      uint64_t Expected = Base * Power;
      int ExpectedRemoved = 0;
      while (Expected % 10 == 0) {
        Expected /= 10;
        ++ExpectedRemoved;
      }
      ASSERT_EQ(Stripped, Expected) << Base << " * 10^" << Zeros;
      ASSERT_EQ(Removed, ExpectedRemoved) << Base << " * 10^" << Zeros;
      ASSERT_EQ(render_detail::decimalLength(Stripped),
                static_cast<int>(std::to_string(Stripped).size()));
    }
  }
}

} // namespace
