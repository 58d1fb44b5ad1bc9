//===- tests/format/printf_compat_test.cpp -------------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The printf-compatible formatter, validated byte for byte against the
/// C library (glibc prints correctly rounded decimal output, so equality
/// is the specification): conversions e/E/f/F/g/G across precisions,
/// magnitudes, flags, and widths, plus the special values.
///
//===----------------------------------------------------------------------===//

#include "format/printf_compat.h"

#include "testgen/random_floats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>

using namespace dragon4;

namespace {

/// The C library's answer for a full specification string.
std::string libc(double Value, const std::string &Spec) {
  char Buffer[512];
  int Written =
      std::snprintf(Buffer, sizeof(Buffer), Spec.c_str(), Value);
  EXPECT_GT(Written, 0);
  EXPECT_LT(Written, static_cast<int>(sizeof(Buffer)));
  return std::string(Buffer, static_cast<size_t>(Written));
}

void expectMatches(double Value, const std::string &Spec) {
  EXPECT_EQ(formatPrintf(Value, Spec.c_str()), libc(Value, Spec))
      << "spec " << Spec << " value " << Value;
}

TEST(PrintfCompat, HandPickedValues) {
  for (const char *Spec :
       {"%e", "%f", "%g", "%.0e", "%.0f", "%.0g", "%.3e", "%.3f", "%.3g",
        "%.17e", "%.17g", "%.20f", "%E", "%G"}) {
    for (double V : {0.0, -0.0, 1.0, -1.0, 0.5, 1.5, 0.1, 123.456,
                     9.9999999, 1e-5, 1e-4, 100000.0, 1e6, 12345678.9,
                     3.141592653589793, 2.2250738585072014e-308, 5e-324,
                     1.7976931348623157e308, 6.02214076e23}) {
      expectMatches(V, Spec);
      expectMatches(-V, Spec);
    }
  }
}

TEST(PrintfCompat, GStyleSwitchBoundaries) {
  // %g switches to scientific at exponent < -4 or >= precision; probe
  // both sides of both boundaries at several precisions.
  for (int Precision : {1, 2, 6, 10}) {
    std::string Spec = "%." + std::to_string(Precision) + "g";
    for (double V : {1e-6, 1e-5, 1.234e-5, 1e-4, 1.2e-4, 1e-3, 0.1, 1.0,
                     9.999, 10.0, 99.99, 1e2, 1e5, 1e6, 1e7, 123456.0,
                     999999.4, 999999.6}) {
      expectMatches(V, Spec);
    }
  }
}

TEST(PrintfCompat, TiesRoundToEvenLikeTheLibrary) {
  // Exact decimal halfway points (representable in binary) must round to
  // even, as glibc does.
  expectMatches(0.125, "%.2f");
  expectMatches(0.375, "%.2f");
  expectMatches(0.625, "%.2f");
  expectMatches(2.5, "%.0f");
  expectMatches(3.5, "%.0f");
  expectMatches(0.5, "%.0f");
  expectMatches(1.25, "%.1e");
  expectMatches(1.75, "%.1e");
  expectMatches(0.125, "%.2g");
}

TEST(PrintfCompat, HighPrecisionPrintsTrueExpansion) {
  // Past the value's information, printf prints the exact binary
  // expansion's digits; ours must match digit for digit.
  expectMatches(0.1, "%.25f");
  expectMatches(0.1, "%.30e");
  expectMatches(1.0 / 3.0, "%.40f");
  expectMatches(5e-324, "%.40e");
  expectMatches(1e22, "%.5f");
  expectMatches(1.7976931348623157e308, "%.2f"); // 300+ digit integer part.
}

TEST(PrintfCompat, FlagsAndWidth) {
  for (const char *Spec :
       {"%+f", "% f", "%+.2e", "%12.3f", "%-12.3f|", "%012.3f", "%+012.4e",
        "%#.0f", "%#g", "%#.3g", "%08.2f", "%1.1e"}) {
    std::string Cleaned = Spec;
    bool Bar = Cleaned.back() == '|';
    if (Bar)
      Cleaned.pop_back();
    for (double V : {3.14159, -3.14159, 0.0, -0.0, 12345.678}) {
      EXPECT_EQ(formatPrintf(V, Cleaned.c_str()), libc(V, Cleaned))
          << Cleaned << " of " << V;
    }
  }
}

TEST(PrintfCompat, SpecialValues) {
  double Inf = std::numeric_limits<double>::infinity();
  double NaN = std::numeric_limits<double>::quiet_NaN();
  for (const char *Spec : {"%f", "%e", "%g", "%E", "%10f", "%-10g"}) {
    expectMatches(Inf, Spec);
    expectMatches(-Inf, Spec);
    expectMatches(NaN, Spec);
  }
}

TEST(PrintfCompat, RandomSweepAgainstLibc) {
  SplitMix64 Rng(424243);
  for (int I = 0; I < 2000; ++I) {
    double V;
    switch (Rng.below(3)) {
    case 0: // Human scale.
      V = static_cast<double>(Rng.below(2000000000)) / 1000.0;
      break;
    case 1: // Full normal range.
      V = randomNormalDoubles(1, Rng.next())[0];
      break;
    default: // Subnormals.
      V = randomSubnormalDoubles(1, Rng.next())[0];
      break;
    }
    if (Rng.below(2))
      V = -V;
    int Precision = static_cast<int>(Rng.below(21));
    char Conversion = "efgEG"[Rng.below(5)];
    std::string Spec =
        "%." + std::to_string(Precision) + std::string(1, Conversion);
    // %.Nf of huge magnitudes produces thousands of characters; printf
    // handles it, and so must we, but cap the test's buffer use.
    if ((Conversion == 'f' || Conversion == 'F') && std::fabs(V) >= 1e100)
      continue;
    expectMatches(V, Spec);
  }
}

TEST(PrintfCompat, DefaultPrecisionIsSix) {
  EXPECT_EQ(formatPrintf(3.14159265, "e"), libc(3.14159265, "%e"));
  EXPECT_EQ(formatPrintf(3.14159265, "f"), libc(3.14159265, "%f"));
  EXPECT_EQ(formatPrintf(3.14159265, "g"), libc(3.14159265, "%g"));
}

TEST(PrintfCompat, StructSpecInterface) {
  PrintfSpec Spec;
  Spec.Conversion = 'f';
  Spec.Precision = 2;
  Spec.Width = 10;
  Spec.ForceSign = true;
  EXPECT_EQ(formatPrintf(3.14159, Spec), "     +3.14");
  Spec.ZeroPad = true;
  EXPECT_EQ(formatPrintf(3.14159, Spec), "+000003.14");
  Spec.LeftJustify = true;
  EXPECT_EQ(formatPrintf(3.14159, Spec), "+3.14     ");
}

TEST(PrintfCompatDeath, OverflowingFieldsAreMalformed) {
  // Width and precision past INT_MAX are rejected rather than wrapped.
  EXPECT_DEATH((void)formatPrintf(1.0, "%99999999999f"),
               "malformed printf specification");
  EXPECT_DEATH((void)formatPrintf(1.0, "%.99999999999e"),
               "malformed printf specification");
  EXPECT_DEATH((void)formatPrintf(1.0, "%2147483648g"),
               "malformed printf specification");
}

} // namespace
