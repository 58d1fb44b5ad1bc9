//===- tests/parse/parse_halfway_test.cpp ----------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The binary32/64 halfway comparison (parse/halfway.h) against two
/// implementations that share no code with it: the exact bignum reader
/// (readFloat) and libstdc++'s std::from_chars.  Pinned cases sit exactly
/// on, one unit in the last digit beside, and a sticky digit past the
/// 800-digit cap of a halfway point -- in the normal range with an even
/// and an odd lower neighbour, in the subnormal range, at the
/// subnormal/normal boundary, and between the largest finite value and
/// infinity -- and know their rounding direction analytically.  A seeded
/// sweep of near-halfway literals, 20 to 40 digits printed with %.*Le as
/// the repository benchmark builds them, checks the same three-way
/// agreement.  Every case must take ParsePath::ExactFallback.
///
//===----------------------------------------------------------------------===//

#include "parse/parse.h"

#include "fp/ieee_traits.h"
#include "reader/reader.h"
#include "testgen/random_floats.h"

#include <gtest/gtest.h>

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

using namespace dragon4;
using namespace dragon4::parse;

namespace {

/// A decimal in scientific form: Digits[0].Digits[1..] * 10^Exp.
struct Sci {
  std::string Digits;
  int Exp = 0;

  std::string literal(bool Negative = false) const {
    std::string Text = Negative ? "-" : "";
    Text += Digits[0];
    if (Digits.size() > 1) {
      Text += '.';
      Text.append(Digits, 1);
    }
    return Text + "e" + std::to_string(Exp);
  }

  size_t significantDigits() const {
    return Digits.find_last_not_of('0') + 1;
  }
};

/// Parses snprintf's "%.*Le" output.
Sci fromPrintf(const char *Buf) {
  Sci S;
  const char *P = Buf;
  for (; *P != 'e'; ++P)
    if (*P >= '0' && *P <= '9')
      S.Digits += *P;
  S.Exp = std::atoi(P + 1);
  return S;
}

/// The exact decimal expansion of the halfway point between \p Lower and
/// its successor (which may be infinity), trailing zeros stripped.  The
/// midpoint needs one bit more than the format, so x87 extended holds it
/// exactly, and 800 digits print every binary64 halfway point exactly.
template <typename T> Sci exactMidpoint(T Lower) {
  using Traits = IeeeTraits<T>;
  const long double Next = static_cast<long double>(
      Traits::fromBits(Traits::toBits(Lower) + 1)); // May be infinity.
  long double Mid;
  if (std::isinf(Next)) // MAX + ulp/2: 2^MaxExp - ulp(MAX)/2.
    Mid = static_cast<long double>(Lower) +
          (static_cast<long double>(Lower) -
           static_cast<long double>(std::nextafter(Lower, T(0)))) /
              2;
  else
    Mid = (static_cast<long double>(Lower) + Next) / 2;
  std::vector<char> Buf(1000);
  std::snprintf(Buf.data(), Buf.size(), "%.800Le", Mid);
  Sci S = fromPrintf(Buf.data());
  S.Digits.resize(S.significantDigits());
  return S;
}

/// Adds \p Delta (+1 or -1) to the last digit, carrying or borrowing.
Sci bumpLastDigit(Sci S, int Delta) {
  for (size_t I = S.Digits.size(); I-- > 0;) {
    int D = S.Digits[I] - '0' + Delta;
    if (D >= 0 && D <= 9) {
      S.Digits[I] = static_cast<char>('0' + D);
      return S;
    }
    S.Digits[I] = Delta > 0 ? '0' : '9';
  }
  S.Digits.insert(S.Digits.begin(), '1'); // 99..9 + 1.
  S.Digits.pop_back();
  ++S.Exp;
  return S;
}

Sci zeroPadTo(Sci S, size_t Digits) {
  S.Digits.resize(Digits, '0');
  return S;
}

/// Zeros out to position \p At (1-based), then a single 1.
Sci stickyAt(Sci S, size_t At) {
  S.Digits.resize(At - 1, '0');
  S.Digits += '1';
  return S;
}

template <typename T> typename IeeeTraits<T>::Bits bitsOf(T V) {
  return IeeeTraits<T>::toBits(V);
}

/// parseFloat == readFloat == std::from_chars, through the halfway rung.
template <typename T>
void expectThreeWay(const std::string &Text, const std::string &Label) {
  ParseResult<T> R = parseFloat<T>(Text, nullptr);
  ASSERT_TRUE(R.ok()) << Label << ": " << Text;
  EXPECT_EQ(R.Consumed, Text.size()) << Label;
  EXPECT_EQ(R.Path, ParsePath::ExactFallback) << Label << ": " << Text;

  std::optional<T> Reader = readFloat<T>(Text);
  ASSERT_TRUE(Reader.has_value()) << Label;
  EXPECT_EQ(bitsOf(R.Value), bitsOf(*Reader)) << Label << ": " << Text;

  T Std{};
  auto [Ptr, Ec] = std::from_chars(Text.data(), Text.data() + Text.size(), Std);
  // from_chars reports a result that rounds to zero or infinity as out of
  // range without storing it; glibc's strto* supplies the rounded value.
  if (Ec == std::errc::result_out_of_range) {
    if constexpr (std::is_same_v<T, float>)
      Std = std::strtof(Text.c_str(), nullptr);
    else
      Std = std::strtod(Text.c_str(), nullptr);
  } else {
    ASSERT_EQ(Ec, std::errc()) << Label;
  }
  EXPECT_EQ(Ptr, Text.data() + Text.size()) << Label;
  EXPECT_EQ(bitsOf(R.Value), bitsOf(Std)) << Label << ": " << Text;
}

template <typename T> T successor(T V) {
  return IeeeTraits<T>::fromBits(IeeeTraits<T>::toBits(V) + 1);
}

/// Every pinned shape around the halfway point above \p Lower, each with
/// its analytically known result.
template <typename T> void checkMidpoint(T Lower, const std::string &Name) {
  const T Upper = successor(Lower);
  const bool LowerEven = (bitsOf(Lower) & 1) == 0;
  const T Even = LowerEven ? Lower : Upper;
  const Sci Mid = exactMidpoint(Lower);
  ASSERT_GT(Mid.Digits.size(), 19u) << Name << ": not a fallback literal";
  ASSERT_LT(Mid.Digits.size(), 800u) << Name;

  struct Shape {
    Sci Literal;
    T Expected;
    const char *What;
  };
  const Shape Shapes[] = {
      {Mid, Even, "exact midpoint"},
      {bumpLastDigit(Mid, +1), Upper, "midpoint +1 ulp(last digit)"},
      {bumpLastDigit(Mid, -1), Lower, "midpoint -1 ulp(last digit)"},
      {zeroPadTo(Mid, 1000), Even, "midpoint zero-padded to 1000 digits"},
      {zeroPadTo(Mid, 800), Even, "midpoint zero-padded to 800 digits"},
      {stickyAt(Mid, 801), Upper, "midpoint + sticky digit 801"},
      {stickyAt(Mid, 1000), Upper, "midpoint + sticky digit 1000"},
      {stickyAt(bumpLastDigit(Mid, -1), 900), Lower,
       "midpoint -1 + sticky digit 900"},
  };
  for (const Shape &S : Shapes) {
    for (bool Negative : {false, true}) {
      const std::string Text = S.Literal.literal(Negative);
      const std::string Label = Name + ", " + S.What + (Negative ? ", -" : "");
      expectThreeWay<T>(Text, Label);
      const T Expected = Negative ? -S.Expected : S.Expected;
      EXPECT_EQ(bitsOf(parseFloat<T>(Text, nullptr).Value), bitsOf(Expected))
          << Label;
    }
  }
}

template <typename T> void checkPinned() {
  using Limits = std::numeric_limits<T>;
  const T Tiny = Limits::denorm_min();
  const T MinNormal = Limits::min();
  const T MaxSubnormal = std::nextafter(MinNormal, T(0));

  checkMidpoint<T>(T(1), "1 (even lower)");
  checkMidpoint<T>(successor(T(1)), "succ(1) (odd lower)");
  checkMidpoint<T>(T(0.1), "0.1");
  checkMidpoint<T>(successor(T(0.1)), "succ(0.1)");
  checkMidpoint<T>(T(1e30), "1e30");
  checkMidpoint<T>(successor(T(1e30)), "succ(1e30)");
  checkMidpoint<T>(T(3e-30), "3e-30");
  checkMidpoint<T>(successor(T(3e-30)), "succ(3e-30)");
  // Just below a binade: the successor carries into the exponent.
  checkMidpoint<T>(std::nextafter(T(2), T(0)), "pred(2) (carry)");
  // Subnormals, half the smallest subnormal, and the boundary.
  checkMidpoint<T>(T(0), "0 (half the smallest subnormal)");
  checkMidpoint<T>(Tiny, "smallest subnormal (odd lower)");
  checkMidpoint<T>(successor(Tiny), "2nd subnormal (even lower)");
  checkMidpoint<T>(T(Tiny * 12345), "subnormal 12345");
  checkMidpoint<T>(T(Tiny * 12346), "subnormal 12346");
  checkMidpoint<T>(MaxSubnormal, "largest subnormal (subnormal/normal)");
  checkMidpoint<T>(MinNormal, "smallest normal");
  // The largest finite value and infinity: a tie goes to infinity (the
  // largest mantissa is odd).
  checkMidpoint<T>(Limits::max(), "MAX/infinity");
  checkMidpoint<T>(std::nextafter(Limits::max(), T(0)), "pred(MAX)");
}

TEST(ParseHalfway, PinnedBinary64) { checkPinned<double>(); }
TEST(ParseHalfway, PinnedBinary32) { checkPinned<float>(); }

/// A random finite non-negative value of \p T.
template <typename T> T uniformValue(SplitMix64 &Rng) {
  using Traits = IeeeTraits<T>;
  for (;;) {
    auto Bits = static_cast<typename Traits::Bits>(Rng.next());
    Bits &= ~(typename Traits::Bits(1) << (sizeof(Bits) * 8 - 1));
    T V = Traits::fromBits(Bits);
    if (std::isfinite(V))
      return V;
  }
}

/// 20 to 40 significant digits of the midpoint between a random value and
/// its successor, printed with %.*Le.  Literals that print with at most
/// 19 significant digits (the midpoint rounded onto a 19-digit value, or a
/// midpoint that short to begin with) are decided by the fast path and
/// are skipped; all others take the halfway comparison.
template <typename T> void sweep(uint64_t Seed, const char *Name) {
  SplitMix64 Rng(Seed);
  constexpr int Cases = 100000;
  int Kept = 0, Skipped = 0;
  char Buf[96];
  while (Kept < Cases) {
    const T V = uniformValue<T>(Rng);
    const int Digits = 20 + static_cast<int>(Rng.below(21));
    const bool Negative = Rng.below(2);
    const T Next = successor(V);
    if (std::isinf(Next)) {
      ++Skipped;
      continue;
    }
    const long double Mid = (static_cast<long double>(V) + Next) / 2;
    std::snprintf(Buf, sizeof Buf, "%s%.*Le", Negative ? "-" : "",
                  Digits - 1, Mid);
    if (fromPrintf(Buf).significantDigits() <= 19) {
      ++Skipped;
      continue;
    }
    ++Kept;
    expectThreeWay<T>(Buf, std::string(Name) + " sweep");
    if (::testing::Test::HasFailure())
      return; // One reproducer is enough.
  }
  // Short literals come only from midpoints (2m+1) * 2^k with small |k|:
  // ~29% of random binary32 values, far fewer binary64 ones.
  EXPECT_LT(Skipped, Cases / 2) << Name;
}

TEST(ParseHalfway, SeededSweepBinary64) {
  sweep<double>(0x4a1f3a9e0001ull, "binary64");
}

TEST(ParseHalfway, SeededSweepBinary32) {
  sweep<float>(0x4a1f3a9e0002ull, "binary32");
}

} // namespace
