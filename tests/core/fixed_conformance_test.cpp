//===- tests/core/fixed_conformance_test.cpp -------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Conformance suite for fixed-format output (Section 4): '#' marking of
/// insignificant positions, carry propagation when rounding at absolute
/// and relative positions -- including the all-nines carry-out that grows
/// a new leading digit -- and digit-for-digit agreement with the
/// rational-arithmetic reference implementation across a targeted grid and
/// the whole positive binary16 range.  Relative (significant-digit) output
/// is checked against a fixed point found by the reference alone, so a
/// wrong but self-consistent scale cannot pass.
///
//===----------------------------------------------------------------------===//

#include "core/fixed_format.h"

#include "core/reference.h"
#include "fp/binary16.h"
#include "fp/ieee_traits.h"
#include "testgen/random_floats.h"

#include <gtest/gtest.h>

#include <map>

using namespace dragon4;

namespace {

std::string fixedAbs(double V, int Position,
                     const FixedFormatOptions &Options = {}) {
  DigitString D = fixedDigitsAbsolute(V, Position, Options);
  return D.digitsAsText() + "@" + std::to_string(D.K);
}

std::string fixedRel(double V, int NumDigits,
                     const FixedFormatOptions &Options = {}) {
  DigitString D = fixedDigitsRelative(V, NumDigits, Options);
  return D.digitsAsText() + "@" + std::to_string(D.K);
}

/// The rational reference's fixed-format outputs for one value, memoized
/// by position so a sweep over digit counts pays for each position once.
class ReferenceFixed {
public:
  ReferenceFixed(uint64_t F, int E, int Precision, int MinExponent,
                 const FixedFormatOptions &Options)
      : F(F), E(E), Precision(Precision), MinExponent(MinExponent),
        Options(Options),
        Flags(BoundaryFlags::resolve(Options.Boundaries, F)),
        FreeK(referenceFreeFormat(F, E, Precision, MinExponent, Options.Base,
                                  Flags, Options.Ties)
                  .K) {}

  /// The reference's output at absolute position \p J.
  const DigitString &absolute(int J) {
    auto It = ByPosition.find(J);
    if (It == ByPosition.end())
      It = ByPosition
               .emplace(J, referenceFixedFormat(F, E, Precision, MinExponent,
                                                Options.Base, Flags,
                                                Options.Ties, J))
               .first;
    return It->second;
  }

  /// Relative output by the reference alone: the least fixed point of
  /// K -> K(J = K - NumDigits), where K(J) is the scale of absolute(J),
  /// started at the reference's free-format K.  The candidates only grow;
  /// a shrinking one is reported as a failure (and ends the search)
  /// rather than looping.
  DigitString relative(int NumDigits) {
    int K = FreeK;
    for (;;) {
      const int J = K - NumDigits;
      const DigitString &Ref = absolute(J);
      if (Ref.K == J + NumDigits)
        return Ref;
      EXPECT_GT(Ref.K, K) << "reference scale fell from " << K << " at J="
                          << J;
      if (Ref.K <= K)
        return Ref;
      K = Ref.K;
    }
  }

private:
  uint64_t F;
  int E;
  int Precision;
  int MinExponent;
  FixedFormatOptions Options;
  BoundaryFlags Flags;
  int FreeK;
  std::map<int, DigitString> ByPosition;
};

// --- '#' insignificant-position marking ---------------------------------

TEST(FixedConformance, MarksInsignificantPositions) {
  // 1/3 to ten significant places: only the digits a reader needs are
  // printed; the rest are marks (the paper's denormal-printing example).
  DigitString Third = fixedDigitsRelative(1.0 / 3.0, 25);
  EXPECT_EQ(Third.width(), 25);
  EXPECT_GT(Third.TrailingMarks, 0);
  // The leading digits are the familiar 0.333... pattern (the double
  // 1.0/3.0 diverges from repeating 3s around digit 17, so check 15).
  ASSERT_GE(Third.Digits.size(), 15u);
  for (size_t I = 0; I < 15; ++I)
    EXPECT_EQ(Third.Digits[I], 3) << "digit " << I;

  // The minimum subnormal has ~one decimal digit of information; asking
  // for many positions must mark, not fabricate, the rest.
  DigitString Tiny = fixedDigitsRelative(5e-324, 10);
  EXPECT_GT(Tiny.TrailingMarks, 0);
  EXPECT_LT(Tiny.Digits.size(), 10u);

  // A value exactly representable at the requested position needs no
  // marks at all.
  DigitString Exact = fixedDigitsAbsolute(0.25, -2);
  EXPECT_EQ(Exact.TrailingMarks, 0);
  EXPECT_EQ(Exact.digitsAsText(), "25");
  EXPECT_EQ(Exact.K, 0);
}

// --- carry propagation at the rounding position -------------------------

TEST(FixedConformance, CarryAtAbsolutePosition) {
  // 0.96 rounded to one place after the point: 0.96 -> 1.0 (carry crosses
  // the radix point and bumps K).
  EXPECT_EQ(fixedAbs(0.96, -1), "10@1");
  // 0.94 stays below the midpoint.
  EXPECT_EQ(fixedAbs(0.94, -1), "9@0");
  // 123.456 to integer precision: carry into the last kept digit only.
  EXPECT_EQ(fixedAbs(123.456, 0), "123@3");
  EXPECT_EQ(fixedAbs(123.654, 0), "124@3");
}

TEST(FixedConformance, CarryAtRelativePosition) {
  // Two significant digits of 194.9999...: the carry stops inside the
  // kept digits.
  EXPECT_EQ(fixedRel(195.0, 2), "20@3");
  EXPECT_EQ(fixedRel(194.0, 2), "19@3");
  // One digit: 0.95 the double is 0.94999... (below the tie), 0.96 is
  // 0.95999... (above it) -- the rounding decision follows the *value*,
  // not the literal.
  EXPECT_EQ(fixedRel(0.95, 1), "9@0");
  EXPECT_EQ(fixedRel(0.96, 1), "1@1");
}

TEST(FixedConformance, AllNinesCarryOut) {
  // Every kept digit is 9 and the dropped tail rounds up: the carry
  // ripples off the top, producing "1" with K bumped by one.  This is the
  // fixup step of Section 4 growing a digit (9.999 -> "10.00"-shaped).
  EXPECT_EQ(fixedRel(9.999, 3), "100@2");
  EXPECT_EQ(fixedAbs(9.999, -1), "100@2");
  EXPECT_EQ(fixedAbs(99.99, 0), "100@3");
  EXPECT_EQ(fixedAbs(0.9999, -2), "100@1");
  // Carry out of a subnormal-adjacent tiny value.
  EXPECT_EQ(fixedRel(9.995e-10, 2), "10@-8");
}

TEST(FixedConformance, PositionBeyondValueYieldsZeroOrMark) {
  // Rounding 0.04 at integer precision: zero digits of output, but the
  // result must still be a well-formed (possibly zero/marked) string.
  DigitString D = fixedDigitsAbsolute(0.04, 0);
  EXPECT_LE(D.Digits.size(), 1u);
  if (!D.Digits.empty()) {
    EXPECT_EQ(D.Digits[0], 0);
  }
}

// --- tie handling at the requested position -----------------------------

TEST(FixedConformance, ExactHalfwayTies) {
  // 0.5 at integer precision is an exact writer-side tie; the default
  // RoundUp policy picks 1, RoundDown picks 0, RoundEven picks 0.  (A
  // zero result still occupies the kept units position, hence K = 1.)
  FixedFormatOptions Up;
  EXPECT_EQ(fixedAbs(0.5, 0, Up), "1@1");
  FixedFormatOptions Down;
  Down.Ties = TieBreak::RoundDown;
  EXPECT_EQ(fixedAbs(0.5, 0, Down), "0@1");
  FixedFormatOptions Even;
  Even.Ties = TieBreak::RoundEven;
  EXPECT_EQ(fixedAbs(0.5, 0, Even), "0@1");
  EXPECT_EQ(fixedAbs(1.5, 0, Even), "2@1");
  EXPECT_EQ(fixedAbs(2.5, 0, Even), "2@1");
}

// --- differential agreement with the rational reference -----------------

TEST(FixedConformance, AgreesWithReferenceOnGrid) {
  SplitMix64 Rng(77);
  std::vector<double> Values = {0.1,    1.0 / 3.0, 9.999,   0.5,
                                123.456, 1e-30,     6.02e23, 5e-324,
                                0.96,   2.5,       1048576.0};
  for (double V : randomNormalDoubles(40, Rng.next()))
    Values.push_back(V);
  for (double V : randomSubnormalDoubles(10, Rng.next()))
    Values.push_back(V);

  FixedFormatOptions Options;
  for (double V : Values) {
    Decomposed D = decompose(V);
    ReferenceFixed Reference(D.F, D.E, IeeeTraits<double>::Precision,
                             IeeeTraits<double>::MinExponent, Options);
    for (int Position : {-20, -10, -2, -1, 0, 1, 5}) {
      DigitString Fast = fixedDigitsAbsolute(V, Position, Options);
      EXPECT_EQ(Fast, Reference.absolute(Position))
          << "value " << V << " position " << Position;
    }
    for (int NumDigits : {1, 2, 3, 5, 12, 17, 25}) {
      DigitString Fast = fixedDigitsRelative(V, NumDigits, Options);
      EXPECT_EQ(Fast, Reference.relative(NumDigits))
          << "value " << V << " digits " << NumDigits;
    }
  }
}

/// Every finite positive binary16 at NumDigits 1-17 under default options,
/// against the reference fixed point.  Quarter Q takes the bit patterns
/// congruent to Q mod 4, which spreads the costly subnormals evenly.
class FixedConformanceBinary16 : public ::testing::TestWithParam<uint32_t> {};

TEST_P(FixedConformanceBinary16, RelativeAgreesWithReference) {
  using Traits = IeeeTraits<Binary16>;
  constexpr uint32_t FirstInf = 0x7c00;
  FixedFormatOptions Options;
  for (uint32_t Bits = 1 + GetParam(); Bits < FirstInf; Bits += 4) {
    Binary16 H = Binary16::fromBits(static_cast<uint16_t>(Bits));
    Decomposed D = decompose(H);
    ReferenceFixed Reference(D.F, D.E, Traits::Precision, Traits::MinExponent,
                             Options);
    for (int NumDigits = 1; NumDigits <= 17; ++NumDigits) {
      DigitString Fast = fixedDigitsRelative(H, NumDigits, Options);
      ASSERT_EQ(Fast, Reference.relative(NumDigits))
          << "bits 0x" << std::hex << Bits << std::dec << " digits "
          << NumDigits;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Quarters, FixedConformanceBinary16,
                         ::testing::Range(0u, 4u));

} // namespace
