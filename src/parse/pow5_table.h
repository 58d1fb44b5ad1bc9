//===- parse/pow5_table.h - Compile-time powers-of-five table ----*- C++ -*-===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The library's one powers-of-five table: for every decimal exponent q
/// in [-342, 342], the top 128 bits of 5^q normalized so bit 127 is set.
/// Two consumers index it:
///
///   * the Eisel-Lemire parser (eisel_lemire.h) multiplies the 64-bit
///     decimal significand by an entry to approximate w * 10^q -- the 2^q
///     part is tracked separately in the binary exponent.  Its own
///     per-format clamps keep it inside [-342, 308] for binary64.
///   * the shortest digit core (fastpath/schubfach.h) scales the
///     halfway-neighbour interval by an entry (plus one for q >= 0), and
///     the Ryu baseline (baselines/ryu_loop.cpp) by an entry as is.
///     Printing a subnormal binary64 needs 5^324, which is why the
///     positive side reaches 342.
///
/// Entry semantics:
///   q >= 0  truncation: Hi:Lo is the top 128 bits of the exact integer
///           5^q, so Hi:Lo <= 5^q / 2^(bitlen - 128) < Hi:Lo + 1.  Ryu's
///           POW5_SPLIT, at 128 bits.
///   q <  0  reciprocal: Hi:Lo = ceil(2^z / 5^-q) with z chosen so the
///           result lands in [2^127, 2^128).  The division is never exact
///           (powers of two share no factor with 5), so the ceiling is
///           floor + 1 and the entry over-estimates by less than one ulp.
///           Ryu's POW5_INV_SPLIT, at 128 bits.
///
/// Unlike baselines/grisu.cpp's cached powers (computed at runtime from
/// BigInt on first use), this table is built entirely at compile time by a
/// constexpr bignum evaluator below, so neither consumer has an
/// initialization order, locks, or heap.  tests/parse/pow5_table_test.cpp
/// asserts every entry against the independent bigint/power_cache.h
/// values.
///
//===----------------------------------------------------------------------===//

#ifndef DRAGON4_PARSE_POW5_TABLE_H
#define DRAGON4_PARSE_POW5_TABLE_H

#include <array>
#include <cstddef>
#include <cstdint>

namespace dragon4::parse {

/// One normalized 128-bit significand (bit 127 of Hi always set).
struct Pow5Entry {
  uint64_t Hi = 0;
  uint64_t Lo = 0;
};

/// Table bounds.  Below -342 every sub-2^64 significand parses to zero
/// for binary64; the positive side must reach -MinExponent scaled by
/// log10(2) for the printers (324 for the digit core at e = -1074, 325
/// for the Ryu baseline's e2 = -1076), and mirrors the negative side for
/// simplicity.  See eisel_lemire.h for the parser's
/// per-format clamps, which stop at 308 above.
inline constexpr int SmallestPowerOfFive = -342;
inline constexpr int LargestPowerOfFive = 342;
inline constexpr int Pow5TableSize =
    LargestPowerOfFive - SmallestPowerOfFive + 1;

namespace pow5_detail {

/// Fixed-size little-endian natural number for the constexpr evaluator.
/// 5^342 is 795 bits = 13 limbs; 16 leaves slack without bloating the
/// compile-time working set.
struct BigNat {
  static constexpr int MaxLimbs = 16;
  uint64_t Limb[MaxLimbs] = {};
  int Size = 1;
};

constexpr void mulSmall(BigNat &V, uint64_t M) {
  unsigned __int128 Carry = 0;
  for (int I = 0; I < V.Size; ++I) {
    Carry += static_cast<unsigned __int128>(V.Limb[I]) * M;
    V.Limb[I] = static_cast<uint64_t>(Carry);
    Carry >>= 64;
  }
  if (Carry != 0)
    V.Limb[V.Size++] = static_cast<uint64_t>(Carry);
}

constexpr int bitLength(const BigNat &V) {
  uint64_t Top = V.Limb[V.Size - 1];
  int Bits = 0;
  while (Top != 0) {
    ++Bits;
    Top >>= 1;
  }
  return Bits + 64 * (V.Size - 1);
}

/// 64 bits of V starting at bit position Pos; positions below zero or
/// beyond the value read as zero (so normalization shifts need no cases).
constexpr uint64_t bits64At(const BigNat &V, int Pos) {
  uint64_t Out = 0;
  for (int B = 0; B < 64; ++B) {
    int Bit = Pos + B;
    if (Bit < 0)
      continue;
    int Index = Bit / 64;
    if (Index >= V.Size)
      break;
    Out |= ((V.Limb[Index] >> (Bit % 64)) & uint64_t(1)) << B;
  }
  return Out;
}

/// Truncated top 128 bits, normalized so bit 127 is set.
constexpr Pow5Entry topBits128(const BigNat &V) {
  int B = bitLength(V);
  return {bits64At(V, B - 64), bits64At(V, B - 128)};
}

constexpr int compare(const BigNat &A, const BigNat &B) {
  if (A.Size != B.Size)
    return A.Size < B.Size ? -1 : 1;
  for (int I = A.Size - 1; I >= 0; --I)
    if (A.Limb[I] != B.Limb[I])
      return A.Limb[I] < B.Limb[I] ? -1 : 1;
  return 0;
}

/// A -= B; requires A >= B.
constexpr void subtract(BigNat &A, const BigNat &B) {
  uint64_t Borrow = 0;
  for (int I = 0; I < A.Size; ++I) {
    uint64_t Sub = (I < B.Size ? B.Limb[I] : 0);
    uint64_t Lhs = A.Limb[I];
    uint64_t Mid = Lhs - Sub;
    uint64_t Out = Mid - Borrow;
    Borrow = (Lhs < Sub) | (Mid < Borrow);
    A.Limb[I] = Out;
  }
  while (A.Size > 1 && A.Limb[A.Size - 1] == 0)
    --A.Size;
}

constexpr void shiftLeft1(BigNat &V) {
  uint64_t Carry = 0;
  for (int I = 0; I < V.Size; ++I) {
    uint64_t Next = V.Limb[I] >> 63;
    V.Limb[I] = (V.Limb[I] << 1) | Carry;
    Carry = Next;
  }
  if (Carry != 0)
    V.Limb[V.Size++] = Carry;
}

/// ceil(2^(bitLength(D) + 127) / D) for odd D: exactly 128 bits.  Long
/// division one quotient bit per step; the first bitLength(D) dividend
/// bits contribute no quotient bits (2^(b-1) < D), so the remainder
/// starts there and only the 128 productive steps run.
constexpr Pow5Entry reciprocal128(const BigNat &D) {
  int B = bitLength(D);
  BigNat R{};
  R.Size = (B - 1) / 64 + 1;
  R.Limb[(B - 1) / 64] = uint64_t(1) << ((B - 1) % 64);
  uint64_t Hi = 0, Lo = 0;
  for (int Step = 0; Step < 128; ++Step) {
    shiftLeft1(R);
    Hi = (Hi << 1) | (Lo >> 63);
    Lo <<= 1;
    if (compare(R, D) >= 0) {
      subtract(R, D);
      Lo |= 1;
    }
  }
  // 2^k mod 5^m is never zero, so the floor quotient always rounds up.
  ++Lo;
  if (Lo == 0)
    ++Hi;
  return {Hi, Lo};
}

constexpr std::array<Pow5Entry, Pow5TableSize> makeTable() {
  std::array<Pow5Entry, Pow5TableSize> Table{};
  BigNat P{}; // 5^Q for the ascending non-negative exponents.
  P.Limb[0] = 1;
  for (int Q = 0; Q <= LargestPowerOfFive; ++Q) {
    Table[static_cast<size_t>(Q - SmallestPowerOfFive)] = topBits128(P);
    mulSmall(P, 5);
  }
  BigNat D{}; // 5^-Q for the descending negative exponents.
  D.Limb[0] = 5;
  for (int Q = -1; Q >= SmallestPowerOfFive; --Q) {
    Table[static_cast<size_t>(Q - SmallestPowerOfFive)] = reciprocal128(D);
    mulSmall(D, 5);
  }
  return Table;
}

} // namespace pow5_detail

inline constexpr std::array<Pow5Entry, Pow5TableSize> Pow5Table =
    pow5_detail::makeTable();

/// Entry for decimal exponent \p Q; Q must lie in
/// [SmallestPowerOfFive, LargestPowerOfFive].
constexpr const Pow5Entry &pow5Entry(int64_t Q) {
  return Pow5Table[static_cast<size_t>(Q - SmallestPowerOfFive)];
}

// Spot anchors (full-range agreement with the BigInt-derived values is
// asserted in tests/parse/pow5_table_test.cpp).
static_assert(pow5Entry(0).Hi == 0x8000000000000000 && pow5Entry(0).Lo == 0);
static_assert(pow5Entry(1).Hi == 0xa000000000000000 && pow5Entry(1).Lo == 0);
static_assert(pow5Entry(-1).Hi == 0xcccccccccccccccc &&
              pow5Entry(-1).Lo == 0xcccccccccccccccd);

} // namespace dragon4::parse

#endif // DRAGON4_PARSE_POW5_TABLE_H
