//===- tests/fastpath/ryu_test.cpp -----------------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Ryu fast path against the exact Burger-Dybvig loop.  binary16 is
/// small enough to sweep the full encoding space under the whole symmetric
/// options matrix (three boundary modes x three tie breaks); binary32 gets
/// a strided sweep.  Every successful Ryu conversion must be byte-identical
/// to the exact algorithm, and -- asserted separately so a correctness
/// regression and a minimality regression fail with different messages --
/// never longer than the Dragon4 output.  The RyuLadder cases drive the
/// whole shortest ladder through toShortest and compare its bytes with the
/// exact loop's digits rendered by the same rules.
///
//===----------------------------------------------------------------------===//

#include "fastpath/ryu.h"

#include "core/free_format.h"
#include "format/dtoa.h"
#include "format/option_maps.h"
#include "fp/binary16.h"
#include "fp/ieee_traits.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace dragon4;

namespace {

struct OptionCombo {
  BoundaryMode Boundaries;
  TieBreak Ties;
};

/// The full symmetric options matrix: every boundary mode Ryu models,
/// crossed with every writer tie strategy.
constexpr OptionCombo SymmetricCombos[] = {
    {BoundaryMode::Conservative, TieBreak::RoundUp},
    {BoundaryMode::Conservative, TieBreak::RoundEven},
    {BoundaryMode::Conservative, TieBreak::RoundDown},
    {BoundaryMode::NearestEven, TieBreak::RoundUp},
    {BoundaryMode::NearestEven, TieBreak::RoundEven},
    {BoundaryMode::NearestEven, TieBreak::RoundDown},
    {BoundaryMode::BothInclusive, TieBreak::RoundUp},
    {BoundaryMode::BothInclusive, TieBreak::RoundEven},
    {BoundaryMode::BothInclusive, TieBreak::RoundDown},
};

const char *comboName(const OptionCombo &Combo) {
  switch (Combo.Boundaries) {
  case BoundaryMode::Conservative:
    switch (Combo.Ties) {
    case TieBreak::RoundUp:
      return "conservative/up";
    case TieBreak::RoundEven:
      return "conservative/even";
    case TieBreak::RoundDown:
      return "conservative/down";
    }
    break;
  case BoundaryMode::NearestEven:
    switch (Combo.Ties) {
    case TieBreak::RoundUp:
      return "nearest-even/up";
    case TieBreak::RoundEven:
      return "nearest-even/even";
    case TieBreak::RoundDown:
      return "nearest-even/down";
    }
    break;
  case BoundaryMode::BothInclusive:
    switch (Combo.Ties) {
    case TieBreak::RoundUp:
      return "both-inclusive/up";
    case TieBreak::RoundEven:
      return "both-inclusive/even";
    case TieBreak::RoundDown:
      return "both-inclusive/down";
    }
    break;
  default:
    break;
  }
  return "?";
}

bool isFiniteNonZero(Binary16 Value) {
  FpClass Class = classify(Value);
  return Class == FpClass::Normal || Class == FpClass::Subnormal;
}

/// The exact loop alone, rendered by the shared rules: the oracle the
/// ladder tests compare toShortest against.
std::string exactText(Binary16 Value, const PrintOptions &Options) {
  return renderAuto(shortestDigits(Value, freeOptionsFrom(Options)),
                    signBit(Value), renderOptionsFrom(Options));
}

/// Runs Ryu and the exact loop on one finite non-zero value and compares.
/// Returns false (after recording a gtest failure) on any divergence.
/// \p Digits is caller-owned scratch so sweeps do not reallocate per value.
template <typename T>
bool checkOne(T Value, uint64_t Bits, const OptionCombo &Combo,
              std::vector<uint8_t> &Digits) {
  using Traits = IeeeTraits<T>;
  Decomposed D = decompose(Value);
  bool AcceptBounds = false;
  if (!ryuEligible(10, Combo.Boundaries, (D.F & 1) == 0, AcceptBounds)) {
    ADD_FAILURE() << "symmetric combo " << comboName(Combo)
                  << " not Ryu-eligible, bits 0x" << std::hex << Bits;
    return false;
  }
  int K = 0;
  if (!ryuShortestInto(D.F, D.E, Traits::Precision, Traits::MinExponent,
                       AcceptBounds, Combo.Ties, Digits, K)) {
    ADD_FAILURE() << "Ryu fell back on in-range input, bits 0x" << std::hex
                  << Bits << " combo " << comboName(Combo);
    return false;
  }
  FreeFormatOptions Options;
  Options.Boundaries = Combo.Boundaries;
  Options.Ties = Combo.Ties;
  DigitString Exact = freeFormatDigits(D.F, D.E, Traits::Precision,
                                       Traits::MinExponent, Options);
  // Minimality first: a Ryu result longer than Dragon4's is a shortness
  // bug even if some prefix agrees.
  if (Digits.size() > Exact.Digits.size()) {
    ADD_FAILURE() << "Ryu emitted " << Digits.size() << " digits, Dragon4 "
                  << Exact.Digits.size() << ", bits 0x" << std::hex << Bits
                  << " combo " << comboName(Combo);
    return false;
  }
  if (Digits != Exact.Digits || K != Exact.K) {
    DigitString Ours;
    Ours.Digits = Digits;
    Ours.K = K;
    ADD_FAILURE() << "Ryu " << Ours.digitsAsText() << "e" << K << " != exact "
                  << Exact.digitsAsText() << "e" << Exact.K << ", bits 0x"
                  << std::hex << Bits << " combo " << comboName(Combo);
    return false;
  }
  return true;
}

/// Full binary16 encoding space (sign included -- digit generation works on
/// the magnitude, so this doubles as a check that the sign bit never leaks
/// into the path), all nine symmetric option combinations.
TEST(RyuBinary16, FullSpaceMatchesExactAllSymmetricOptions) {
  std::vector<uint8_t> Digits;
  int Failures = 0;
  for (uint32_t Bits = 0; Bits <= 0xffff; ++Bits) {
    Binary16 Value = Binary16::fromBits(static_cast<uint16_t>(Bits));
    FpClass Class = classify(Value);
    if (Class != FpClass::Normal && Class != FpClass::Subnormal)
      continue;
    for (const OptionCombo &Combo : SymmetricCombos) {
      if (!checkOne(Value, Bits, Combo, Digits) && ++Failures >= 8) {
        FAIL() << "stopping after " << Failures << " mismatches";
      }
    }
  }
  EXPECT_EQ(Failures, 0);
}

/// Strided walk of the binary32 encoding space (coprime stride so the
/// samples spread across every binade), one combo per boundary mode.
TEST(RyuBinary32, StridedMatchesExact) {
  constexpr OptionCombo Combos[] = {
      {BoundaryMode::Conservative, TieBreak::RoundUp},
      {BoundaryMode::NearestEven, TieBreak::RoundEven},
      {BoundaryMode::BothInclusive, TieBreak::RoundDown},
  };
  std::vector<uint8_t> Digits;
  int Failures = 0;
  for (uint64_t Bits = 0; Bits <= 0xffffffffull; Bits += 65537) {
    float Value = IeeeTraits<float>::fromBits(static_cast<uint32_t>(Bits));
    FpClass Class = classify(Value);
    if (Class != FpClass::Normal && Class != FpClass::Subnormal)
      continue;
    for (const OptionCombo &Combo : Combos) {
      if (!checkOne(Value, Bits, Combo, Digits) && ++Failures >= 8) {
        FAIL() << "stopping after " << Failures << " mismatches";
      }
    }
  }
  EXPECT_EQ(Failures, 0);
}

/// Asymmetric reader models cannot be expressed by Ryu's AcceptBounds
/// flag and must report ineligible (the engine then takes the exact loop).
TEST(RyuEligibility, AsymmetricBoundariesRejected) {
  bool AcceptBounds = false;
  EXPECT_FALSE(
      ryuEligible(10, BoundaryMode::LowInclusive, true, AcceptBounds));
  EXPECT_FALSE(
      ryuEligible(10, BoundaryMode::LowInclusive, false, AcceptBounds));
  EXPECT_FALSE(
      ryuEligible(10, BoundaryMode::HighInclusive, true, AcceptBounds));
  EXPECT_FALSE(
      ryuEligible(10, BoundaryMode::HighInclusive, false, AcceptBounds));
}

/// Ryu is a base-10 algorithm; any other base takes the exact path.
TEST(RyuEligibility, NonDecimalBaseRejected) {
  bool AcceptBounds = false;
  EXPECT_FALSE(ryuEligible(2, BoundaryMode::Conservative, true, AcceptBounds));
  EXPECT_FALSE(ryuEligible(16, BoundaryMode::NearestEven, true, AcceptBounds));
  EXPECT_FALSE(
      ryuEligible(36, BoundaryMode::BothInclusive, false, AcceptBounds));
}

/// AcceptBounds resolution: Conservative always excludes the endpoints,
/// BothInclusive always admits them, NearestEven follows mantissa parity.
TEST(RyuEligibility, AcceptBoundsResolution) {
  bool AcceptBounds = true;
  ASSERT_TRUE(
      ryuEligible(10, BoundaryMode::Conservative, true, AcceptBounds));
  EXPECT_FALSE(AcceptBounds);
  ASSERT_TRUE(
      ryuEligible(10, BoundaryMode::BothInclusive, false, AcceptBounds));
  EXPECT_TRUE(AcceptBounds);
  ASSERT_TRUE(ryuEligible(10, BoundaryMode::NearestEven, true, AcceptBounds));
  EXPECT_TRUE(AcceptBounds);
  ASSERT_TRUE(ryuEligible(10, BoundaryMode::NearestEven, false, AcceptBounds));
  EXPECT_FALSE(AcceptBounds);
}

/// The one shortest ladder (Ryu -> exact loop), reached through
/// toShortest, against the exact loop alone rendered by the same rules:
/// every finite binary16 encoding, both signs, under the default options.
/// A wrong dispatch (Ryu taken where it does not model the semantics, or
/// a bad fallback) shows up as a byte difference here.
TEST(RyuLadder, Binary16FullSpaceEqualsExact) {
  const PrintOptions Options;
  for (uint32_t Bits = 0; Bits <= 0xffff; ++Bits) {
    Binary16 Value = Binary16::fromBits(static_cast<uint16_t>(Bits));
    if (!isFiniteNonZero(Value))
      continue;
    ASSERT_EQ(toShortest(Value, Options), exactText(Value, Options))
        << "bits 0x" << std::hex << Bits;
  }
}

/// Ladder vs exact over the full symmetric options matrix, strided so the
/// test stays cheap: the per-combo digit behavior is already swept
/// exhaustively above; this guards the dispatch for every symmetric
/// reader model and tie rule.
TEST(RyuLadder, Binary16StridedAllSymmetricOptions) {
  for (uint32_t Bits = 1; Bits <= 0xffff; Bits += 7) {
    Binary16 Value = Binary16::fromBits(static_cast<uint16_t>(Bits));
    if (!isFiniteNonZero(Value))
      continue;
    for (const OptionCombo &Combo : SymmetricCombos) {
      PrintOptions Options;
      Options.Boundaries = Combo.Boundaries;
      Options.Ties = Combo.Ties;
      ASSERT_EQ(toShortest(Value, Options), exactText(Value, Options))
          << "bits 0x" << std::hex << Bits << " combo " << comboName(Combo);
    }
  }
}

/// Asymmetric boundary modes route around Ryu entirely; the ladder must
/// still give the exact answer.
TEST(RyuLadder, AsymmetricModesFallThrough) {
  for (uint32_t Bits = 1; Bits <= 0xffff; Bits += 31) {
    Binary16 Value = Binary16::fromBits(static_cast<uint16_t>(Bits));
    if (!isFiniteNonZero(Value))
      continue;
    for (BoundaryMode Mode :
         {BoundaryMode::LowInclusive, BoundaryMode::HighInclusive}) {
      for (TieBreak Ties :
           {TieBreak::RoundUp, TieBreak::RoundEven, TieBreak::RoundDown}) {
        PrintOptions Options;
        Options.Boundaries = Mode;
        Options.Ties = Ties;
        ASSERT_EQ(toShortest(Value, Options), exactText(Value, Options))
            << "bits 0x" << std::hex << Bits;
      }
    }
  }
}

} // namespace
