//===- tests/format/surface_equivalence_test.cpp - One core, many surfaces ---===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// The tentpole guarantee of the sink refactor: every output surface is an
// instantiation of one writer-generic core, so bytes cannot drift between
// them.  This test proves it the hard way -- the full binary16 encoding
// space and a strided binary32 sweep through all five shortest-form
// surfaces at once:
//
//   toShortest            (StringSink)
//   engine::format        (BufferSink)
//   BatchEngine StringTable slots (BufferSink per slot, worker threads)
//   RecordStream          (StreamSink)
//   dragon4_to_chars      (C ABI over BufferSink)
//
// plus printf's string-vs-buffer pair on a randomized corpus, and the
// engine-routed precision surfaces (toPrecision, toExponential) against
// the core-plus-renderer composition they replaced.
//
//===----------------------------------------------------------------------===//

#include "dragon4.h"
#include "format/option_maps.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

using namespace dragon4;
namespace eng = dragon4::engine;

namespace {

/// Runs one value through every shortest-form surface and requires
/// byte-identical output; \p Reference is toShortest's answer.
template <typename T>
void expectAllSurfacesAgree(T Value, const std::string &Reference,
                            eng::Scratch &S, eng::RecordStream &Stream) {
  char Buf[DRAGON4_MAX_CHARS10];
  size_t Len = eng::format(Value, Buf, sizeof(Buf), PrintOptions{}, S);
  ASSERT_LE(Len, sizeof(Buf));
  ASSERT_EQ(std::string(Buf, Len), Reference) << "engine::format drifted";

  Stream.clear();
  size_t StreamLen = Stream.push(Value);
  ASSERT_EQ(std::string(Stream.bytes()), Reference)
      << "RecordStream drifted";
  ASSERT_EQ(StreamLen, Reference.size());

  uint64_t Lo = 0, Hi = 0;
  FormatTraits<T>::encodingBits(Value, Lo, Hi);
  size_t AbiLen = 0;
  ASSERT_EQ(dragon4_to_chars(
                static_cast<dragon4_format>(FormatTraits<T>::Id), Lo, Hi,
                nullptr, Buf, sizeof(Buf), &AbiLen),
            DRAGON4_OK);
  ASSERT_EQ(std::string(Buf, AbiLen), Reference)
      << "dragon4_to_chars drifted";
}

/// The batch surface over a whole corpus at once (its own worker threads
/// and per-worker scratches), then per-value agreement for the rest.
template <typename T>
void sweepSurfaces(const std::vector<T> &Values) {
  eng::BatchEngine<T> Engine(2);
  eng::StringTable Table;
  Engine.convert(std::span<const T>(Values), Table, PrintOptions{});
  ASSERT_EQ(Table.size(), Values.size());

  eng::Scratch S;
  eng::RecordStream Stream(S);
  for (size_t I = 0; I < Values.size(); ++I) {
    std::string Reference = toShortest(Values[I]);
    ASSERT_EQ(std::string(Table.view(I)), Reference)
        << "StringTable slot " << I << " drifted";
    ASSERT_NO_FATAL_FAILURE(
        expectAllSurfacesAgree(Values[I], Reference, S, Stream));
  }
}

TEST(SurfaceEquivalence, FullBinary16Space) {
  // Every one of the 65536 encodings, NaNs and infinities included.
  std::vector<Binary16> Values;
  Values.reserve(1u << 16);
  for (uint32_t Bits = 0; Bits < (1u << 16); ++Bits)
    Values.push_back(Binary16::fromBits(static_cast<uint16_t>(Bits)));
  sweepSurfaces(Values);
}

TEST(SurfaceEquivalence, StridedBinary32) {
  // A prime stride walks every binade and low-byte pattern; ~42k
  // encodings keeps the test inside the tier-1 budget.
  std::vector<float> Values;
  for (uint64_t Bits = 0; Bits < (1ull << 32); Bits += 102261)
    Values.push_back(
        FormatTraits<float>::fromEncoding(static_cast<uint32_t>(Bits), 0));
  sweepSurfaces(Values);
}

TEST(SurfaceEquivalence, RandomizedDoublesAndWideFormats) {
  sweepSurfaces(randomBitsDoubles(4096, 0x5e1f0001));
  {
    SplitMix64 Rng(0x5e1f0002);
    std::vector<long double> Values;
    for (int I = 0; I < 512; ++I)
      Values.push_back(
          std::ldexp(static_cast<long double>(Rng.next() | (1ull << 63)),
                     static_cast<int>(Rng.below(8000)) - 4000 - 63));
    sweepSurfaces(Values);
  }
  {
    SplitMix64 Rng(0x5e1f0003);
    std::vector<Binary128> Values;
    for (int I = 0; I < 512; ++I) {
      uint64_t Hi = (Rng.next() & 0x0000FFFFFFFFFFFFull) |
                    ((1 + Rng.below(0x7FFD)) << 48);
      Values.push_back(Binary128::fromBits(Hi, Rng.next()));
    }
    sweepSurfaces(Values);
  }
}

TEST(SurfaceEquivalence, NonDefaultOptionsStayUnified) {
  // The surfaces must agree under every option mapping, not only the
  // defaults -- base, marks, boundaries, ties, and markers all flow
  // through the same PrintOptions into the same core.
  std::vector<PrintOptions> OptionSets;
  {
    PrintOptions Hex;
    Hex.Base = 16;
    Hex.ExponentMarker = '^';
    Hex.UppercaseDigits = true;
    OptionSets.push_back(Hex);
    PrintOptions Conservative;
    Conservative.Boundaries = BoundaryMode::Conservative;
    OptionSets.push_back(Conservative);
    PrintOptions Zeros;
    Zeros.Marks = MarkStyle::Zeros;
    Zeros.Ties = TieBreak::RoundEven;
    OptionSets.push_back(Zeros);
  }
  std::vector<double> Values = randomBitsDoubles(1024, 0x5e1f0004);
  eng::Scratch S;
  for (const PrintOptions &Options : OptionSets) {
    eng::RecordStream Stream(S, '\n', Options);
    for (double V : Values) {
      std::string Reference = toShortest(V, Options);
      char Buf[128];
      size_t Len = eng::format(V, Buf, sizeof(Buf), Options, S);
      ASSERT_EQ(std::string(Buf, Len), Reference);
      Stream.clear();
      Stream.push(V);
      ASSERT_EQ(std::string(Stream.bytes()), Reference);
    }
  }
}

TEST(SurfaceEquivalence, PrintfStringAndBufferSurfacesAgree) {
  const char *Specs[] = {"%e",      "%f",     "%g",     "%.17e", "%.0f",
                         "%#g",     "%+012e", "%-20.3f", "%15G",  "%.40f"};
  std::vector<double> Values = randomBitsDoubles(512, 0x5e1f0005);
  Values.push_back(0.0);
  Values.push_back(-0.0);
  Values.push_back(1e300);
  Values.push_back(-1e-300);
  for (const char *Spec : Specs) {
    for (double V : Values) {
      std::string Str = formatPrintf(V, Spec);
      // %.40f of a ~1e300 double runs past 350 characters; 512 keeps the
      // "full buffer" half of the check genuinely untruncated.
      char Buf[512];
      size_t Len = formatPrintf(V, Spec, Buf, sizeof(Buf));
      ASSERT_EQ(Len, Str.size()) << Spec;
      ASSERT_EQ(std::string(Buf, Len < sizeof(Buf) ? Len : sizeof(Buf)),
                Str)
          << Spec;

      // And the truncated surface: a short buffer gets the exact prefix
      // and still reports the full length.
      char Short[8];
      size_t ShortLen = formatPrintf(V, Spec, Short, sizeof(Short));
      ASSERT_EQ(ShortLen, Str.size()) << Spec;
      size_t Prefix = ShortLen < sizeof(Short) ? ShortLen : sizeof(Short);
      ASSERT_EQ(std::string(Short, Prefix), Str.substr(0, Prefix)) << Spec;
    }
  }
}

TEST(SurfaceEquivalence, FixedSurfacesAgree) {
  eng::Scratch S;
  std::vector<double> Values = randomNormalDoubles(512, 0x5e1f0006);
  const int Precisions[] = {0, 2, 17};
  for (double V : Values) {
    uint64_t Lo = 0, Hi = 0;
    FormatTraits<double>::encodingBits(V, Lo, Hi);
    for (int P : Precisions) {
      std::string Reference = toFixed(V, P);
      char Buf[512];
      size_t Len = eng::formatFixed(V, P, Buf, sizeof(Buf), PrintOptions{}, S);
      ASSERT_EQ(std::string(Buf, Len), Reference);
      size_t AbiLen = 0;
      ASSERT_EQ(dragon4_to_chars_fixed(DRAGON4_FORMAT_BINARY64, Lo, Hi, P,
                                       nullptr, Buf, sizeof(Buf), &AbiLen),
                DRAGON4_OK);
      ASSERT_EQ(std::string(Buf, AbiLen), Reference);
    }
  }
}

template <typename T> bool isFiniteNonZero(T Value) {
  const FpClass Class = classify(Value);
  return Class == FpClass::Normal || Class == FpClass::Subnormal;
}

/// toPrecision(v, n) and toExponential(v, n - 1) for every n in [1, 17]
/// against the composition they used before they ran on the engine's
/// fixed-format frame: the core Section 4 digits, rendered by the
/// std::string renderers.  Both pieces stay in the public API, so the
/// composition is the oracle.  Returns false after a gtest failure.
template <typename T>
bool precisionSurfacesMatch(T Value, uint32_t Bits,
                            const PrintOptions &Options) {
  const bool Negative = signBit(Value);
  const RenderOptions Render = renderOptionsFrom(Options);
  for (int N = 1; N <= 17; ++N) {
    const DigitString D =
        fixedDigitsRelative(Value, N, fixedOptionsFrom(Options));
    EXPECT_EQ(toPrecision(Value, N, Options), renderAuto(D, Negative, Render))
        << "toPrecision, bits 0x" << std::hex << Bits << std::dec
        << " digits " << N << " base " << Options.Base;
    EXPECT_EQ(toExponential(Value, N - 1, Options),
              renderScientific(D, Negative, Render))
        << "toExponential, bits 0x" << std::hex << Bits << std::dec
        << " digits " << N << " base " << Options.Base;
    if (::testing::Test::HasFailure())
      return false;
  }
  return true;
}

/// The option variations the precision surfaces are swept under: both
/// mark styles, every tie rule, and bases 2, 10 and 16.
std::vector<PrintOptions> precisionOptionSets() {
  std::vector<PrintOptions> Sets;
  for (MarkStyle Marks : {MarkStyle::Hash, MarkStyle::Zeros})
    for (TieBreak Ties :
         {TieBreak::RoundUp, TieBreak::RoundEven, TieBreak::RoundDown})
      for (unsigned Base : {2u, 10u, 16u}) {
        PrintOptions Options;
        Options.Marks = Marks;
        Options.Ties = Ties;
        Options.Base = Base;
        if (Base > 14)
          Options.ExponentMarker = '^';
        Sets.push_back(Options);
      }
  return Sets;
}

/// Every binary16 encoding under the default options, a quarter of the
/// encoding space per instance so the quarters run in parallel.
class PrecisionSurfacesBinary16 : public ::testing::TestWithParam<uint32_t> {
};

TEST_P(PrecisionSurfacesBinary16, FullSpaceEqualsComposition) {
  const PrintOptions Options;
  const uint32_t First = GetParam() << 14;
  for (uint32_t Bits = First; Bits < First + (1u << 14); ++Bits) {
    const Binary16 Value = Binary16::fromBits(static_cast<uint16_t>(Bits));
    if (!isFiniteNonZero(Value))
      continue;
    ASSERT_TRUE(precisionSurfacesMatch(Value, Bits, Options));
  }
}

INSTANTIATE_TEST_SUITE_P(Quarters, PrecisionSurfacesBinary16,
                         ::testing::Range(0u, 4u));

TEST(PrecisionSurfaces, Binary16StridedOptionVariations) {
  for (const PrintOptions &Options : precisionOptionSets()) {
    for (uint32_t Bits = 1; Bits <= 0xffff; Bits += 61) {
      const Binary16 Value = Binary16::fromBits(static_cast<uint16_t>(Bits));
      if (!isFiniteNonZero(Value))
        continue;
      ASSERT_TRUE(precisionSurfacesMatch(Value, Bits, Options));
    }
  }
}

TEST(PrecisionSurfaces, StridedBinary32OptionVariations) {
  for (const PrintOptions &Options : precisionOptionSets()) {
    for (uint64_t Bits = 1; Bits < (1ull << 32); Bits += 10000019) {
      const float Value =
          FormatTraits<float>::fromEncoding(static_cast<uint32_t>(Bits), 0);
      if (!isFiniteNonZero(Value))
        continue;
      ASSERT_TRUE(precisionSurfacesMatch(Value, static_cast<uint32_t>(Bits),
                                         Options));
    }
  }
}

/// toPrecision and toExponential run on the calling thread's Scratch, so
/// they are counted there like every other engine conversion.
TEST(PrecisionSurfaces, ChargeTheThreadScratchStats) {
  const eng::EngineStats Before = eng::threadScratch().stats();
  EXPECT_EQ(toPrecision(1.0 / 3.0, 10), "0.3333333333");
  EXPECT_EQ(toExponential(2.5f, 3), "2.500e+0");
  EXPECT_EQ(toPrecision(-0.0, 3), "-0.00");
  EXPECT_EQ(toExponential(std::numeric_limits<double>::infinity(), 2),
            "inf");
  const eng::EngineStats &After = eng::threadScratch().stats();
  EXPECT_EQ(After.Conversions - Before.Conversions, 2u);
  EXPECT_EQ(After.SlowPathDirect - Before.SlowPathDirect, 2u);
  EXPECT_EQ(After.Specials - Before.Specials, 2u);
  const auto Double = static_cast<int>(FormatId::Binary64);
  const auto Float = static_cast<int>(FormatId::Binary32);
  EXPECT_EQ(After.FormatConversions[Double] - Before.FormatConversions[Double],
            1u);
  EXPECT_EQ(After.FormatConversions[Float] - Before.FormatConversions[Float],
            1u);
}

} // namespace
