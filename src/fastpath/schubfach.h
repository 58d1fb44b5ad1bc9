//===- fastpath/schubfach.h - Schubfach shortest digit core -----*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shortest digit core after Giulietti, "The Schubfach way to render
/// doubles" (2020): the front rung of the shortest ladder, ahead of the
/// exact Burger-Dybvig loop.  One code path serves binary16, binary32 and
/// binary64 through the runtime (Precision, MinExponent) pair.
///
/// Outline, for v = F * 2^E with halfway-neighbour interval
/// [v - 2^E/2, v + 2^E/2] (the lower half-gap is 2^E/4 on a binade
/// boundary):
///
///   1. Pick k = floor(log10 2^E), or floor(log10 3/4 * 2^E) on a binade
///      boundary, so the interval scaled by 10^-k is between 1 and 10
///      units wide: it holds at least one integer and at most one
///      multiple of ten.
///   2. Scale the three points times four -- 4F - 2 (4F - 1 on a boundary),
///      4F, 4F + 2 -- by 2^E * 10^-k with one 64x128-bit product each,
///      rounded to odd.  Round-to-odd keeps every comparison against an
///      even integer exact, so the interval tests below are decided
///      without the exact values.
///   3. Take the one multiple of ten in the interval if there is one
///      (one digit shorter), else s = floor(v * 10^-k) or s + 1,
///      whichever lies in the interval, the nearer if both do; an exact
///      tie goes to the writer's TieBreak.
///   4. Strip trailing zeros from the shorter output with modular-inverse
///      divisibility tests.
///
/// 10^-k comes from the one powers-of-five table, parse/pow5_table.h: the
/// core multiplies by g = floor(10^-k * 2^(127 - floor(-k log2 10))) + 1,
/// which is the truncated entry plus one for -k >= 0 and the
/// ceiling-rounded entry as is for -k < 0.  docs/fastpath.md derives the
/// rule and the rest of the core; tests/fastpath/schubfach_test.cpp checks
/// g and the three floor-log approximations against BigInt.
///
/// The core is a template over CoreMutation so the verify tier can prove
/// it catches a wrong digit core without a test hook in the production
/// path: the library instantiates CoreMutation::None only, and tests
/// instantiate the planted mutation.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_FASTPATH_SCHUBFACH_H
#define DRAGON4_FASTPATH_SCHUBFACH_H

#include "core/options.h"
#include "format/render_core.h"
#include "fp/ieee_traits.h"
#include "parse/pow5_table.h"

#include <bit>
#include <cstdint>

namespace dragon4::fastpath {

/// floor(E * log10(2)) = floor(log10(2^E)), exact for |E| <= 2620.
constexpr int floorLog10Pow2(int E) { return (E * 315653) >> 20; }

/// floor(log10(3/4 * 2^E)), exact for -2985 <= E <= 2936.
constexpr int floorLog10ThreeQuartersPow2(int E) {
  return (E * 631305 - 261663) >> 21;
}

/// floor(E * log2(10)) = floor(log2(10^E)), exact for |E| <= 1233.
constexpr int floorLog2Pow10(int E) { return (E * 1741647) >> 19; }

/// The input ranges over which the three approximations above are exact
/// (asserted against BigInt in tests/fastpath/schubfach_test.cpp).
inline constexpr int FloorLog10Pow2Limit = 2620;
inline constexpr int FloorLog10ThreeQuartersPow2Min = -2985;
inline constexpr int FloorLog10ThreeQuartersPow2Max = 2936;
inline constexpr int FloorLog2Pow10Limit = 1233;

/// The certification envelope: binary64's precision and exponent range.
/// Every narrower IEEE format lies inside it.
inline constexpr int CertifiedPrecision = IeeeTraits<double>::Precision;
inline constexpr int CertifiedMinExponent = IeeeTraits<double>::MinExponent;
inline constexpr int CertifiedMaxExponent = IeeeTraits<double>::MaxExponent;

static_assert(-CertifiedMinExponent <= FloorLog10Pow2Limit &&
              CertifiedMaxExponent <= FloorLog10Pow2Limit);
static_assert(CertifiedMinExponent >= FloorLog10ThreeQuartersPow2Min &&
              CertifiedMaxExponent <= FloorLog10ThreeQuartersPow2Max);
// The table index -k and the floorLog2Pow10 input stay in range.
static_assert(-floorLog10ThreeQuartersPow2(CertifiedMinExponent) <=
                  parse::LargestPowerOfFive &&
              -floorLog10Pow2(CertifiedMaxExponent) >=
                  parse::SmallestPowerOfFive);
static_assert(parse::LargestPowerOfFive <= FloorLog2Pow10Limit);

/// g for the decimal exponent \p Q = -k: floor(10^Q * 2^(127 - floor(Q
/// log2 10))) + 1, in [2^127, 2^128).  Scaling by 2^Q only moves the
/// binary point, so the normalized significand of 10^Q is the table's
/// normalized 5^Q: truncated for Q >= 0 (add one), already floor + 1 for
/// Q < 0 (the ceiling of a quotient that is never exact).
inline parse::Pow5Entry schubfachG(int Q) {
  const parse::Pow5Entry &Entry = parse::pow5Entry(Q);
  const uint64_t Bump = Q >= 0;
  const uint64_t Lo = Entry.Lo + Bump;
  return {Entry.Hi + (Lo < Bump), Lo};
}

/// Round-to-odd of G * Cp / 2^128 for Cp < 2^64: the integer part, with
/// its low bit forced to one when the dropped fraction is non-zero.  The
/// low 64 bits of G.Lo * Cp are dropped too; for the products the core
/// forms they never decide the sticky bit.
inline uint64_t roundToOdd(const parse::Pow5Entry &G, uint64_t Cp) {
  using U128 = unsigned __int128;
  const U128 Low = static_cast<U128>(G.Lo) * Cp;
  const U128 Mid =
      static_cast<U128>(G.Hi) * Cp + static_cast<uint64_t>(Low >> 64);
  return static_cast<uint64_t>(Mid >> 64) | (static_cast<uint64_t>(Mid) != 0);
}

/// The multiplicative inverse of an odd \p D modulo 2^64 (Newton's
/// iteration: each step doubles the number of correct low bits, starting
/// from the three that D * D == 1 (mod 8) gives).
constexpr uint64_t inverseMod2Pow64(uint64_t D) {
  uint64_t X = D;
  for (int Step = 0; Step < 5; ++Step)
    X *= 2 - D * X;
  return X;
}

constexpr uint64_t pow10U64(int N) {
  uint64_t P = 1;
  for (int I = 0; I < N; ++I)
    P *= 10;
  return P;
}

/// Divides \p V by 10^N when 10^N divides it; returns whether it did.
/// With y = V * 5^-N (mod 2^64), 10^N | V exactly when rotr(y, N) <=
/// floor((2^64 - 1) / 10^N), and rotr(y, N) is then V / 10^N.
template <int N> inline bool stripPowerOfTen(uint64_t &V) {
  constexpr uint64_t Inverse = inverseMod2Pow64(pow10U64(N) >> N);
  constexpr uint64_t Limit = ~uint64_t(0) / pow10U64(N);
  static_assert((pow10U64(N) >> N) * Inverse == 1);
  const uint64_t Quotient = std::rotr(V * Inverse, N);
  if (Quotient > Limit)
    return false;
  V = Quotient;
  return true;
}

/// Removes every trailing decimal zero of \p V >= 1 (at most 17 for an
/// 18-digit value) and returns how many it removed.
inline int stripTrailingZeros(uint64_t &V) {
  int Removed = 0;
  Removed += 8 * stripPowerOfTen<8>(V);
  Removed += 8 * stripPowerOfTen<8>(V);
  Removed += 4 * stripPowerOfTen<4>(V);
  Removed += 2 * stripPowerOfTen<2>(V);
  Removed += stripPowerOfTen<1>(V);
  return Removed;
}

/// Planted mutations of the digit core.  The library instantiates None;
/// InclusiveLowerEndpoint is the off-by-one the verify tier must catch
/// (tests/verify/ryu_injection_test.cpp): the lower-endpoint test ignores
/// AcceptBounds, so an excluded endpoint is admitted as output -- a
/// shorter string that reads back as the neighbouring value.
enum class CoreMutation : uint8_t { None, InclusiveLowerEndpoint };

/// The Schubfach digit core on the positive value F * 2^E, with
/// ryuShortestDecimal's contract (fastpath/ryu.h): on success sets
/// \p Output to the decimal significand without trailing zeros,
/// \p Length to its digit count and \p K so that v = 0.d1...dn * 10^K,
/// and returns true.  \p AcceptBounds says whether the interval endpoints
/// are admissible output and \p Ties breaks an exact halfway tie between
/// the two candidates.  Returns false only outside binary64's precision
/// and exponent range.
template <CoreMutation Mutation = CoreMutation::None>
inline bool schubfachShortest(uint64_t F, int E, int Precision,
                              int MinExponent, bool AcceptBounds,
                              TieBreak Ties, uint64_t &Output, int &Length,
                              int &K) {
  if (Precision > CertifiedPrecision || E < CertifiedMinExponent ||
      E > CertifiedMaxExponent)
    return false;

  // Step 1.  On a binade boundary above the subnormal range the gap below
  // v is half the gap above, so the interval is 3/4 as wide.
  const bool Boundary =
      F == (uint64_t(1) << (Precision - 1)) && E > MinExponent;
  const int K10 =
      Boundary ? floorLog10ThreeQuartersPow2(E) : floorLog10Pow2(E);

  // Step 2.  G * 2^(H - 128) = 2^E * 10^-K10 up to G's rounding, with
  // H = E + floor(-K10 log2 10) + 1 in [1, 4]: the products stay below
  // 2^59.
  const parse::Pow5Entry G = schubfachG(-K10);
  const int H = E + floorLog2Pow10(-K10) + 1;
  const uint64_t Cb = F << 2;
  const uint64_t Vb = roundToOdd(G, Cb << H);
  const uint64_t Vbl = roundToOdd(G, (Cb - 2 + Boundary) << H);
  const uint64_t Vbr = roundToOdd(G, (Cb + 2) << H);

  // Step 3.  Candidates are compared times four, against the scaled
  // endpoints; Out turns <= into < where the endpoints are excluded.
  const uint64_t Out = !AcceptBounds;
  const uint64_t Upper = Vbr - Out;
  auto LowerAdmits = [&](uint64_t Candidate) {
    if constexpr (Mutation == CoreMutation::InclusiveLowerEndpoint)
      return Vbl <= Candidate;
    else
      return Vbl + Out <= Candidate;
  };

  const uint64_t S = Vb >> 2;
  uint64_t Digits = S;
  int Exp10 = K10;
  bool Shorter = false;
  if (S >= 10) {
    // The multiples of ten around v are 10 * floor(s / 10) and the next.
    const uint64_t Sp = S / 10;
    const bool UpIn = LowerAdmits(40 * Sp);
    const bool WpIn = 40 * Sp + 40 <= Upper;
    if (UpIn != WpIn) {
      Digits = Sp + WpIn;
      Exp10 = K10 + 1;
      Shorter = true;
    }
  }
  if (!Shorter) {
    const bool UIn = LowerAdmits(4 * S);
    const bool WIn = 4 * S + 4 <= Upper;
    if (UIn != WIn) {
      Digits = S + WIn;
    } else {
      // Both lie in the interval: the nearer wins, and an exact tie
      // (v * 10^-k = s + 1/2) follows the writer's TieBreak.
      const uint64_t Mid = 4 * S + 2;
      const bool TieUp = Ties == TieBreak::RoundUp ||
                         (Ties == TieBreak::RoundEven && (S & 1) != 0);
      Digits = S + (Vb > Mid || (Vb == Mid && TieUp));
    }
  }

  // Step 4.  Only the shorter output, or a one-digit s rounded up to 10,
  // can end in zero: an s or s + 1 of two or more digits ending in zero
  // is a multiple of ten in the interval, which the shorter level takes.
  // v = Digits * 10^Exp10; in the library's digit convention
  // v = 0.d1...dn * 10^K.
  if (Shorter || S < 10)
    Exp10 += stripTrailingZeros(Digits);
  Output = Digits;
  Length = render_detail::decimalLength(Digits);
  K = Exp10 + Length;
  return true;
}

} // namespace dragon4::fastpath

#endif // DRAGON4_FASTPATH_SCHUBFACH_H
