//===- tests/format/render_test.cpp -------------------------------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//

#include "engine/engine.h"
#include "format/render.h"
#include "format/render_core.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

using namespace dragon4;

namespace {

DigitString makeDigits(std::vector<uint8_t> Digits, int K, int Marks = 0) {
  DigitString D;
  D.Digits = std::move(Digits);
  D.K = K;
  D.TrailingMarks = Marks;
  return D;
}

TEST(RenderPositional, IntegerForms) {
  EXPECT_EQ(renderPositional(makeDigits({1, 2, 3}, 3), false), "123");
  EXPECT_EQ(renderPositional(makeDigits({1, 2, 3}, 3), true), "-123");
  EXPECT_EQ(renderPositional(makeDigits({5}, 1), false), "5");
  EXPECT_EQ(renderPositional(makeDigits({0}, 1), false), "0");
}

TEST(RenderPositional, FractionForms) {
  EXPECT_EQ(renderPositional(makeDigits({3}, 0), false), "0.3");
  EXPECT_EQ(renderPositional(makeDigits({3}, -2), false), "0.003");
  EXPECT_EQ(renderPositional(makeDigits({1, 2, 3, 4}, 2), false), "12.34");
  EXPECT_EQ(renderPositional(makeDigits({1, 2, 3, 4}, 2), true), "-12.34");
}

TEST(RenderPositional, FillerZerosWhenStoppingLeftOfThePoint) {
  // 123 at the hundreds place of a 5-digit number: "12300".
  EXPECT_EQ(renderPositional(makeDigits({1, 2, 3}, 5), false), "12300");
}

TEST(RenderPositional, MarksRenderInTheirPositions) {
  EXPECT_EQ(renderPositional(makeDigits({1, 0, 0}, 3, 2), false), "100.##");
  EXPECT_EQ(renderPositional(makeDigits({3, 3}, 0, 3), false), "0.33###");
  EXPECT_EQ(renderPositional(makeDigits({1}, 3, 2), false), "1##");
  // Zero digits, one mark (the "entirely insignificant" fixed case).
  EXPECT_EQ(renderPositional(makeDigits({}, 1, 1), false), "#");
}

TEST(RenderPositional, MarkCharIsConfigurable) {
  RenderOptions Options;
  Options.MarkChar = '0';
  EXPECT_EQ(renderPositional(makeDigits({1, 0, 0}, 3, 2), false, Options),
            "100.00");
}

TEST(RenderScientific, BasicForms) {
  EXPECT_EQ(renderScientific(makeDigits({1, 2, 3}, 3), false), "1.23e+2");
  EXPECT_EQ(renderScientific(makeDigits({5}, -323), false), "5e-324");
  EXPECT_EQ(renderScientific(makeDigits({1}, 24), false), "1e+23");
  EXPECT_EQ(renderScientific(makeDigits({1, 7}, 309), true),
            "-1.7e+308");
}

TEST(RenderScientific, MarksAndMarker) {
  EXPECT_EQ(renderScientific(makeDigits({3, 3, 3}, 0, 4), false),
            "3.33####e-1");
  RenderOptions Options;
  Options.ExponentMarker = '^';
  EXPECT_EQ(renderScientific(makeDigits({1, 10, 15}, 2, 0), false, Options),
            "1.af^+1");
  Options.UppercaseDigits = true;
  EXPECT_EQ(renderScientific(makeDigits({1, 10, 15}, 2, 0), false, Options),
            "1.AF^+1");
}

TEST(RenderAuto, SwitchesOnMagnitude) {
  RenderOptions Options; // Positional for -5 < K <= 21.
  EXPECT_EQ(renderAuto(makeDigits({1}, 1), false, Options), "1");
  EXPECT_EQ(renderAuto(makeDigits({1}, 21), false, Options),
            "100000000000000000000");
  EXPECT_EQ(renderAuto(makeDigits({1}, 22), false, Options), "1e+21");
  EXPECT_EQ(renderAuto(makeDigits({1}, -4), false, Options), "0.00001");
  EXPECT_EQ(renderAuto(makeDigits({1}, -5), false, Options), "1e-6");
}

/// The decimal digits of \p Significand, zero-padded on the left to
/// \p Length, one element per digit: the digit-span source's input,
/// built here by plain string formatting.
std::vector<uint8_t> spanDigits(uint64_t Significand, int Length) {
  std::string Text = std::to_string(Significand);
  Text.insert(0, static_cast<size_t>(Length) - Text.size(), '0');
  std::vector<uint8_t> Digits;
  for (char C : Text)
    Digits.push_back(static_cast<uint8_t>(C - '0'));
  return Digits;
}

/// Significands of every length 1-17: the smallest and largest values of
/// that length, one with interior zeros, and a pseudo-random one.
std::vector<std::pair<uint64_t, int>> decimalCorpus() {
  std::vector<std::pair<uint64_t, int>> Out;
  uint64_t State = 0x5eed0123456789abull;
  uint64_t Low = 1;
  for (int Length = 1; Length <= 17; ++Length, Low *= 10) {
    const uint64_t High = Low * 10 - 1;
    State = State * 6364136223846793005ull + 1442695040888963407ull;
    Out.push_back({Low, Length});
    Out.push_back({High, Length});
    Out.push_back({Low + Low / 2 + (Length > 2 ? 7 : 0), Length});
    Out.push_back({Low + (State >> 11) % (High - Low + 1), Length});
  }
  return Out;
}

/// Renders one input through the decimal source into every sink model and
/// checks each against \p Expected (the digit-span rendering): bytes,
/// written() counts, and for BufferSink every capacity from 0 to one past
/// the length -- the prefix written, the bytes past it untouched, and
/// required() exact.
template <size_t Capacity>
void checkDecimalSource(uint64_t Significand, int Length, int K,
                        bool Negative, const RenderOptions &Options,
                        const std::string &Expected) {
  const std::string Where = "sig " + std::to_string(Significand) + " len " +
                            std::to_string(Length) + " K " +
                            std::to_string(K) + " neg " +
                            std::to_string(Negative) + " cap " +
                            std::to_string(Capacity);
  auto Render = [&](auto &Out) {
    render_detail::renderDecimalAutoInto<Capacity>(Out, Significand, Length,
                                                   K, Negative, Options);
  };

  StringSink Str;
  Render(Str);
  ASSERT_EQ(Str.Out, Expected) << Where;

  std::vector<char> Store = {'#', '#'};
  StreamSink Stream(Store);
  Render(Stream);
  EXPECT_EQ(Stream.written(), Expected.size()) << Where;
  EXPECT_EQ(std::string(Store.begin() + 2, Store.end()), Expected) << Where;

  CountingSink Counter;
  Render(Counter);
  EXPECT_EQ(Counter.written(), Expected.size()) << Where;

  const size_t Len = Expected.size();
  for (size_t Cap = 0; Cap <= Len + 1; ++Cap) {
    std::vector<char> Buf(Cap + 4, '\x7f'); // Canary past the capacity.
    BufferSink Bounded(Buf.data(), Cap);
    Render(Bounded);
    EXPECT_EQ(Bounded.required(), Len) << Where << " buffer " << Cap;
    EXPECT_EQ(Bounded.overflowed(), Cap < Len) << Where << " buffer " << Cap;
    const size_t Written = Cap < Len ? Cap : Len;
    EXPECT_EQ(std::string(Buf.data(), Written), Expected.substr(0, Written))
        << Where << " buffer " << Cap;
    for (size_t I = Written; I < Buf.size(); ++I)
      ASSERT_EQ(Buf[I], '\x7f') << Where << " buffer " << Cap << " byte " << I;
  }
}

TEST(RenderDecimalSource, MatchesDigitSpanSourceThroughEverySink) {
  // K spans both edges of the default positional window (-5, 21] with
  // room on each side; a custom marker proves the options reach the
  // decimal source.  Capacity 24 is the engine's binary64 stack buffer;
  // capacity 6 forces the re-layout straight into the sink.
  static_assert(engine::maxShortestBufferSize<double>(10) == 24);
  RenderOptions Custom;
  Custom.ExponentMarker = 'E';
  size_t Checked = 0;
  for (const RenderOptions &Options : {RenderOptions{}, Custom}) {
    for (auto [Significand, Length] : decimalCorpus()) {
      const std::vector<uint8_t> Digits = spanDigits(Significand, Length);
      for (int K = -8; K <= 25; ++K) {
        for (bool Negative : {false, true}) {
          StringSink Span;
          render_detail::renderAutoInto(Span, Digits, K, /*TrailingMarks=*/0,
                                        Negative, Options);
          checkDecimalSource<24>(Significand, Length, K, Negative, Options,
                                 Span.Out);
          checkDecimalSource<6>(Significand, Length, K, Negative, Options,
                                Span.Out);
          ++Checked;
        }
      }
    }
  }
  EXPECT_EQ(Checked, 2u * 17 * 4 * 34 * 2);
}

TEST(RenderDecimalSource, WindowEdgesAndMarker) {
  // Spot values pinned as text, independent of the span source.
  auto Render = [](uint64_t Significand, int Length, int K, bool Negative,
                   char Marker) {
    RenderOptions Options;
    Options.ExponentMarker = Marker;
    StringSink Out;
    render_detail::renderDecimalAutoInto<24>(Out, Significand, Length, K,
                                             Negative, Options);
    return Out.Out;
  };
  EXPECT_EQ(Render(1, 1, -4, false, 'e'), "0.00001");
  EXPECT_EQ(Render(1, 1, -5, false, 'e'), "1e-6");
  EXPECT_EQ(Render(1, 1, 21, false, 'e'), "100000000000000000000");
  EXPECT_EQ(Render(1, 1, 22, true, 'E'), "-1E+21");
  EXPECT_EQ(Render(17976931348623157ull, 17, 309, true, 'e'),
            "-1.7976931348623157e+308");
  EXPECT_EQ(Render(12345, 5, 3, false, 'e'), "123.45");
  EXPECT_EQ(Render(5, 1, -323, false, '^'), "5^-324");
}

} // namespace
