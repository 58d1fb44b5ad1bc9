//===- fastpath/ryu.cpp - Ryu shortest-output fast path ---------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Ryu digit generation (Adams, PLDI 2018), generic over every
/// certified format through the runtime (Precision, MinExponent) pair --
/// one code path serves binary16, binary32, and binary64, exactly like
/// the exact loop it fronts.
///
/// Outline: decompose v = m2 * 2^e2 and scale the halfway-neighbour
/// interval by four so the three interval points u = 4m2 - 1 - mmShift,
/// v = 4m2, w = 4m2 + 2 are integers.  Multiply all three by a cached
/// 128-bit power of five to land in decimal (the floor of each product is
/// exact at this table precision -- the paper's Theorem 5.1 needs 125
/// bits for binary64), track which of the three scaled values are exact,
/// then remove digits while the interval still spans a multiple of ten,
/// and round the last kept digit with full knowledge of ties.
///
//===----------------------------------------------------------------------===//

#include "fastpath/ryu.h"

#include "fastpath/ryu_pow5.h"
#include "format/render_core.h"
#include "prof/phase.h"
#include "support/checks.h"
#include "support/testhooks.h"

#include <array>
#include <bit>

using namespace dragon4;
using namespace dragon4::fastpath;

namespace dragon4::testhooks {

// Flips the digit-removal loop's interval-width comparison from strict to
// inclusive (see ryu.h); the Ryu analogue of FlipDigitLoopLowComparison.
bool FlipRyuBoundComparison = false;

} // namespace dragon4::testhooks

namespace {

/// floor(e * log10(2)) for 0 <= e <= 1650.
inline int log10Pow2(int E) {
  return static_cast<int>((static_cast<uint32_t>(E) * uint32_t(78913)) >> 18);
}

/// floor(e * log10(5)) for 0 <= e <= 2620.
inline int log10Pow5(int E) {
  return static_cast<int>((static_cast<uint32_t>(E) * uint32_t(732923)) >>
                          20);
}

/// Does 5^Q divide V?  Plain trial division: Q is small whenever the
/// answer can be yes (5^24 > 2^55), so the loop exits fast.
inline bool multipleOfPowerOf5(uint64_t V, int Q) {
  for (; Q > 0; --Q) {
    if (V % 5 != 0)
      return false;
    V /= 5;
  }
  return true;
}

/// Does 2^Q divide V?  V is a nonzero sub-2^57 value, so Q >= 64 is
/// always false.
inline bool multipleOfPowerOf2(uint64_t V, int Q) {
  return Q < 64 && (V & ((uint64_t(1) << Q) - 1)) == 0;
}

/// floor(M * (Hi:Lo) / 2^Shift) for M < 2^57 and 64 < Shift < 128.  The
/// two 64x64 partial products fit unsigned __int128 with the top bits to
/// spare, and the sum keeps the full 128 bits above the discarded low
/// word, so the single wide shift is exact.
inline uint64_t mulShift(uint64_t M, const Pow5Entry &Pow, int Shift) {
  unsigned __int128 Sum =
      (static_cast<unsigned __int128>(M) * Pow.Hi) +
      ((static_cast<unsigned __int128>(M) * Pow.Lo) >> 64);
  return static_cast<uint64_t>(Sum >> (Shift - 64));
}

/// Number of decimal digits of V >= 1: floor(log10(V)) + 1, estimated
/// from the bit width (1233 / 4096 ~ log10(2)) and corrected by one table
/// lookup.
inline int decimalLength(uint64_t V) {
  static constexpr auto Pow10 = [] {
    std::array<uint64_t, 20> Table{};
    uint64_t Power = 1;
    for (uint64_t &Entry : Table) {
      Entry = Power;
      Power *= 10; // Wraps once, after 10^19 is stored; never read.
    }
    return Table;
  }();
  const int Estimate = (static_cast<int>(std::bit_width(V)) * 1233) >> 12;
  return Estimate + (V >= Pow10[Estimate]);
}

} // namespace

bool dragon4::ryuShortestDecimal(uint64_t F, int E, int Precision,
                                 int MinExponent, bool AcceptBounds,
                                 TieBreak Ties, uint64_t &Output,
                                 int &Length, int &K) {
  D4_PROF_SPAN(RyuPath);
  D4_ASSERT(F != 0, "zero handled by the caller");

  // Certification envelope: 4F + 2 and the mulShift products must fit
  // (Precision + 3 + 64 <= 128 bits), and the paper's exactness theorem
  // is proven for the binary64 parameter range.  Wider formats fall back.
  if (Precision > 54)
    return false;

  // Scale by four: mm/mv/mp are the low neighbour midpoint, the value,
  // and the high neighbour midpoint as integers against e2 = E - 2.  The
  // gap below is halved (mmShift == 0) exactly when F sits on a binade
  // boundary above the subnormal range.
  const int E2 = E - 2;
  const uint64_t Mv = 4 * F;
  const unsigned MmShift =
      (F != (uint64_t(1) << (Precision - 1)) || E <= MinExponent) ? 1 : 0;

  uint64_t Vr, Vp, Vm;
  int E10;
  bool VmIsTrailingZeros = false;
  bool VrIsTrailingZeros = false;
  if (E2 >= 0) {
    // v = mv * 2^e2; aim for e10 = q ~ floor(e2 log10 2) removed decimal
    // digits (one less near the bottom so at most one extra digit is ever
    // removed by the loop).
    const int Q = log10Pow2(E2) - (E2 > 3);
    E10 = Q;
    if (Q == 0) {
      // 10^0: the scaled values are the inputs themselves (e2 <= 6 here,
      // so the shifts cannot overflow 2^63).
      Vr = Mv << E2;
      Vp = (Mv + 2) << E2;
      Vm = (Mv - 1 - MmShift) << E2;
    } else {
      // Multiply by the 128-bit reciprocal of 5^q.  The entry is
      // ceil(2^(pow5bits(q) + 127) / 5^q); with j chosen below the
      // mulShift floor equals floor(x * 2^e2 / 10^q) exactly.
      if (-Q < parse::SmallestPowerOfFive)
        return false;
      const int J = -E2 + Q + ryuPow5Bits(Q) + 127;
      if (J <= 64 || J >= 128)
        return false;
      const Pow5Entry &Inv = pow5Entry(-Q);
      Vr = mulShift(Mv, Inv, J);
      Vp = mulShift(Mv + 2, Inv, J);
      Vm = mulShift(Mv - 1 - MmShift, Inv, J);
    }
    // Exactness: 2^q always divides x * 2^e2 here (q <= e2), so only the
    // power of five matters.  Only the flag the rounding logic will
    // consult needs computing: ties require 5 | mv, and an exact excluded
    // upper bound is handled by shrinking it.
    if (Mv % 5 == 0) {
      VrIsTrailingZeros = multipleOfPowerOf5(Mv, Q);
    } else if (AcceptBounds) {
      VmIsTrailingZeros = multipleOfPowerOf5(Mv - 1 - MmShift, Q);
    } else {
      Vp -= multipleOfPowerOf5(Mv + 2, Q);
    }
  } else {
    // v = mv / 2^-e2; aim to keep q ~ floor(-e2 log10 5) binary digits of
    // headroom, scaling by 5^i with i = -e2 - q.
    const int Q = log10Pow5(-E2) - (-E2 > 1);
    E10 = Q + E2;
    const int I = -E2 - Q;
    if (I > parse::LargestPowerOfFive)
      return false;
    // Entry is the truncated (or, below 128 bits, exact) top 128 bits of
    // 5^i; with this j the mulShift floor equals floor(x * 5^i / 2^q).
    const int J = Q - (ryuPow5Bits(I) - 128);
    if (J <= 64 || J >= 128)
      return false;
    const Pow5Entry &Pow = pow5Entry(I);
    Vr = mulShift(Mv, Pow, J);
    Vp = mulShift(Mv + 2, Pow, J);
    Vm = mulShift(Mv - 1 - MmShift, Pow, J);
    if (Q <= 1) {
      // Every scaled value is exact: mv = 4F has two trailing zero bits,
      // mp = mv + 2 has one, and mm has one exactly when mmShift == 1.
      VrIsTrailingZeros = true;
      if (AcceptBounds)
        VmIsTrailingZeros = MmShift == 1;
      else
        --Vp; // Exact excluded upper bound: shrink it.
    } else if (Q < 63) {
      // vr is exact iff 2^q divides mv (5^i contributes no twos).
      VrIsTrailingZeros = multipleOfPowerOf2(Mv, Q);
    }
  }

  // Digit removal: drop the last digit of all three values while the
  // interval still spans a full decade, tracking removed digits where
  // ties or an exact lower bound are still possible.  The test hook
  // widens the strict comparison to >=, removing one digit too many --
  // the classic off-by-one this library's verify tier exists to catch.
  const bool FlipBound = testhooks::FlipRyuBoundComparison;
  int Removed = 0;
  uint8_t LastRemovedDigit = 0;
  if (VmIsTrailingZeros || VrIsTrailingZeros) {
    // Rare (~0.7% of doubles): exactness bookkeeping is live.
    for (;;) {
      const uint64_t VpDiv10 = Vp / 10;
      const uint64_t VmDiv10 = Vm / 10;
      // The flipped (injected-bug) comparison still terminates: once the
      // values run out of digits there is nothing left to over-remove.
      if (FlipBound ? (VpDiv10 < VmDiv10 || VpDiv10 == 0)
                    : VpDiv10 <= VmDiv10)
        break;
      const uint64_t VrDiv10 = Vr / 10;
      VmIsTrailingZeros &= Vm - 10 * VmDiv10 == 0;
      VrIsTrailingZeros &= LastRemovedDigit == 0;
      LastRemovedDigit = static_cast<uint8_t>(Vr - 10 * VrDiv10);
      Vr = VrDiv10;
      Vp = VpDiv10;
      Vm = VmDiv10;
      ++Removed;
    }
    if (VmIsTrailingZeros) {
      // The exact, admissible lower bound ends in zeros: keep stripping
      // so the loop below may stop on vm itself.
      while (Vm != 0 && Vm % 10 == 0) {
        VrIsTrailingZeros &= LastRemovedDigit == 0;
        LastRemovedDigit = static_cast<uint8_t>(Vr % 10);
        Vr /= 10;
        Vp /= 10;
        Vm /= 10;
        ++Removed;
      }
    }
    // An exact tie (removed digits are exactly one half) is broken by the
    // writer's TieBreak: round-up keeps the 5, round-down demotes it, and
    // round-even demotes it only when the kept digit is already even.
    const bool ExactTie = VrIsTrailingZeros && LastRemovedDigit == 5;
    if (ExactTie && (Ties == TieBreak::RoundDown ||
                     (Ties == TieBreak::RoundEven && Vr % 2 == 0)))
      LastRemovedDigit = 4;
    Output = Vr + ((Vr == Vm && (!AcceptBounds || !VmIsTrailingZeros)) ||
                   LastRemovedDigit >= 5);
  } else {
    // Common case: nothing is exact, so no tie can occur and only
    // "removed at least one half" matters.
    bool RoundUp = false;
    for (;;) {
      const uint64_t VpDiv10 = Vp / 10;
      const uint64_t VmDiv10 = Vm / 10;
      if (FlipBound ? (VpDiv10 < VmDiv10 || VpDiv10 == 0)
                    : VpDiv10 <= VmDiv10)
        break;
      const uint64_t VrDiv10 = Vr / 10;
      RoundUp = Vr - 10 * VrDiv10 >= 5;
      Vr = VrDiv10;
      Vp = VpDiv10;
      Vm = VmDiv10;
      ++Removed;
    }
    Output = Vr + (Vr == Vm || RoundUp);
  }

  // v = Output * 10^(E10 + Removed); in the library's digit convention
  // v = 0.d1...dn * 10^K.
  Length = decimalLength(Output);
  K = E10 + Removed + Length;
  return true;
}

bool dragon4::ryuShortestInto(uint64_t F, int E, int Precision,
                              int MinExponent, bool AcceptBounds,
                              TieBreak Ties, std::vector<uint8_t> &Digits,
                              int &K) {
  uint64_t Output = 0;
  int Length = 0;
  if (!ryuShortestDecimal(F, E, Precision, MinExponent, AcceptBounds, Ties,
                          Output, Length, K))
    return false;
  render_detail::storeDecimalDigits(Output, Length, Digits);
  return true;
}
