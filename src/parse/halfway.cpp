//===- parse/halfway.cpp - Exact halfway comparison for the parser --------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// aboveHalfway: the literal and the halfway point as two exact integers
/// on the stack, their powers of two cancelled by one shift.  The sizes
/// follow from the 800-digit cap and the formats' exponent ranges (see
/// HalfwayBounds); halfway.h gives the argument that makes the cap exact.
///
//===----------------------------------------------------------------------===//

#include "parse/halfway.h"

#include "support/checks.h"

#include <algorithm>
#include <array>

namespace dragon4::parse {

namespace {

/// Significant digits the comparison folds into its integer; later digits
/// only contribute a sticky bit.
constexpr int MaxHalfwayDigits = 800;

/// Upper bounds of log10(2), log10(5), log2(10) and log2(5) in
/// 1/100000ths, so every size derived from them below errs on the large
/// side.
constexpr int64_t Log10Of2 = 30103;
constexpr int64_t Log10Of5 = 69898;
constexpr int64_t Log2Of10 = 332193;
constexpr int64_t Log2Of5 = 232193;

constexpr int64_t ceilScaled(int64_t N, int64_t Log) {
  return (N * Log + 99999) / 100000;
}

/// Sizes of the comparison for one format, from its exponent range and
/// the digit cap.
template <typename T> struct HalfwayBounds {
  using Params = ElParams<T>;
  /// h >= 2^MinHalfwayExponent: the point between zero and the smallest
  /// subnormal is the lowest halfway point.
  static constexpr int64_t MinHalfwayExponent =
      Params::MinimumExponent - Params::StoredBits;
  /// Every finite value is below 2^MaxValueExponent.
  static constexpr int64_t MaxValueExponent =
      Params::InfinitePower + Params::MinimumExponent;
  /// Significant digits of the longest halfway point (2m+1)*5^k / 10^k,
  /// k = -MinHalfwayExponent; odd times a power of five has no trailing
  /// zero.  768 for binary64, 113 for binary32.
  static constexpr int64_t HalfwayDigits =
      ((Params::StoredBits + 2) * Log10Of2 - MinHalfwayExponent * Log10Of5) /
          100000 +
      1;
  /// Largest -Qd: the literal is above h / 2 >= 2^(MinHalfwayExponent-1)
  /// and below 10^(digits + Qd).
  static constexpr int64_t MaxNegativeExponent =
      MaxHalfwayDigits + ceilScaled(1 - MinHalfwayExponent, Log10Of2);
  /// Bits of each side of the comparison before alignment: the digits,
  /// (2m+1) * 5^-Qd, and D * 5^Qd <= D * 10^Qd < 2^MaxValueExponent.
  static constexpr int64_t DigitBits = ceilScaled(MaxHalfwayDigits, Log2Of10);
  static constexpr int64_t HalfwayBits =
      Params::StoredBits + 2 + ceilScaled(MaxNegativeExponent, Log2Of5);
  /// Both sides are within a factor 1 + 10^-18 of each other, so after the
  /// alignment shift each has at most one bit more than the larger one.
  static constexpr int64_t RequiredBits =
      std::max({DigitBits, HalfwayBits, MaxValueExponent}) + 1;
  static constexpr int Limbs = static_cast<int>((RequiredBits + 63) / 64);

  static_assert(HalfwayDigits < MaxHalfwayDigits,
                "the digit cap must exceed every halfway point's digits");
};

static_assert(HalfwayBounds<double>::HalfwayDigits == 768);
static_assert(HalfwayBounds<float>::HalfwayDigits == 113);
template <int MaxExponent>
constexpr std::array<uint64_t, MaxExponent + 1> powersOf(uint64_t Base) {
  std::array<uint64_t, MaxExponent + 1> Table{};
  Table[0] = 1;
  for (int I = 1; I <= MaxExponent; ++I)
    Table[I] = Table[I - 1] * Base;
  return Table;
}

constexpr int MaxPow5Step = 27;  ///< 5^28 > 2^64.
constexpr int MaxDigitStep = 19; ///< 10^20 > 2^64.
constexpr auto Pow5U64 = powersOf<MaxPow5Step>(5);
constexpr auto Pow10U64 = powersOf<MaxDigitStep>(10);
static_assert(Pow5U64[MaxPow5Step] == 7450580596923828125ull);
static_assert(Pow10U64[MaxDigitStep] == 10000000000000000000ull);

/// One integer size serves both formats.
constexpr int Limbs =
    std::max(HalfwayBounds<double>::Limbs, HalfwayBounds<float>::Limbs);
static_assert(Limbs == 42);

/// Fixed-capacity unsigned integer, little-endian 64-bit limbs, always
/// normalized (no zero top limb; zero is Size == 0).  Only the limbs below
/// Size are ever read, so construction touches no memory.
class HalfwayBig {
public:
  explicit HalfwayBig(uint64_t V) {
    if (V)
      Limb[Size++] = V;
  }

  /// *this = *this * M + A.
  void mulAdd(uint64_t M, uint64_t A) {
    uint64_t Carry = A;
    for (int I = 0; I < Size; ++I) {
      unsigned __int128 P = static_cast<unsigned __int128>(Limb[I]) * M + Carry;
      Limb[I] = static_cast<uint64_t>(P);
      Carry = static_cast<uint64_t>(P >> 64);
    }
    if (Carry)
      push(Carry);
  }

  void mulPow5(int64_t N) {
    for (; N > MaxPow5Step; N -= MaxPow5Step)
      mulAdd(Pow5U64[MaxPow5Step], 0);
    mulAdd(Pow5U64[N], 0);
  }

  void shiftLeft(int64_t Bits) {
    if (Size == 0 || Bits == 0)
      return;
    const int Whole = static_cast<int>(Bits / 64);
    const int Rem = static_cast<int>(Bits % 64);
    D4_ASSERT(Size + Whole <= Limbs, "halfway integer overflow");
    if (Rem) {
      uint64_t Top = Limb[Size - 1] >> (64 - Rem);
      for (int I = Size - 1; I > 0; --I)
        Limb[I + Whole] = (Limb[I] << Rem) | (Limb[I - 1] >> (64 - Rem));
      Limb[Whole] = Limb[0] << Rem;
      Size += Whole;
      if (Top)
        push(Top);
    } else {
      for (int I = Size - 1; I >= 0; --I)
        Limb[I + Whole] = Limb[I];
      Size += Whole;
    }
    for (int I = 0; I < Whole; ++I)
      Limb[I] = 0;
  }

  /// -1, 0 or +1 as L <, ==, > R.
  friend int compare(const HalfwayBig &L, const HalfwayBig &R) {
    if (L.Size != R.Size)
      return L.Size < R.Size ? -1 : 1;
    for (int I = L.Size - 1; I >= 0; --I)
      if (L.Limb[I] != R.Limb[I])
        return L.Limb[I] < R.Limb[I] ? -1 : 1;
    return 0;
  }

private:
  void push(uint64_t V) {
    D4_ASSERT(Size < Limbs, "halfway integer overflow");
    Limb[Size++] = V;
  }

  uint64_t Limb[Limbs];
  int Size = 0;
};

} // namespace

bool aboveHalfway(uint64_t W, std::string_view Tail, int64_t Q, uint64_t M,
                  int64_t E) {
  // D: W and the next MaxHalfwayDigits - 19 digits, folded 19 at a time.
  HalfwayBig D(W);
  int Count = MaxDigitStep;
  int64_t Qd = Q; // The literal is D * 10^Qd plus the sticky tail.
  bool Sticky = false;
  uint64_t Chunk = 0;
  int ChunkDigits = 0;
  for (const char C : Tail) {
    if (C == '.')
      continue;
    if (C < '0' || C > '9')
      break;
    if (Count == MaxHalfwayDigits) {
      Sticky |= C != '0';
      continue;
    }
    Chunk = Chunk * 10 + static_cast<uint64_t>(C - '0');
    ++Count;
    --Qd;
    if (++ChunkDigits == MaxDigitStep) {
      D.mulAdd(Pow10U64[MaxDigitStep], Chunk);
      Chunk = 0;
      ChunkDigits = 0;
    }
  }
  if (ChunkDigits)
    D.mulAdd(Pow10U64[ChunkDigits], Chunk);

  // Shift out the common power of two: D * 5^Qd * 2^Qd vs H * 2^(E-1).
  HalfwayBig H(2 * M + 1);
  const int64_t Shift = Qd - (E - 1);
  if (Qd >= 0)
    D.mulPow5(Qd);
  else
    H.mulPow5(-Qd);
  if (Shift > 0)
    D.shiftLeft(Shift);
  else
    H.shiftLeft(-Shift);

  const int Order = compare(D, H);
  return Order > 0 || (Order == 0 && (Sticky || (M & 1)));
}

} // namespace dragon4::parse
