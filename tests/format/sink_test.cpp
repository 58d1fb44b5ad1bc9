//===- tests/format/sink_test.cpp - The Sink concept and its four models ----===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
//
// Unit coverage for format/sink.h: the concept itself, the snprintf-like
// overflow contract of BufferSink (count everything, write a prefix,
// report required()), StreamSink's mid-stream relative accounting, and
// cross-sink agreement -- the same renderer driven into all four sinks
// must produce the same bytes and the same written() count.
//
//===----------------------------------------------------------------------===//

#include "format/render_core.h"
#include "format/sink.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace dragon4;

namespace {

// The concept is the compile-time contract every surface builds on; a
// sink losing a member is a build break here, not a drift downstream.
static_assert(Sink<StringSink>);
static_assert(Sink<BufferSink>);
static_assert(Sink<StreamSink>);
static_assert(Sink<CountingSink>);
static_assert(!Sink<int>);
static_assert(!Sink<std::string>);

// sinkOverflowed is the one truncation probe: bounded sinks report,
// unbounded sinks are constant false.
static_assert(!sinkOverflowed(CountingSink{}));

/// Drives one fixed emission script against any sink.
template <typename W> void emitScript(W &Out) {
  Out.put('-');
  Out.literal("12");
  Out.put('.');
  Out.fill(3, '0');
  Out.append("e+07!", 4); // Bulk write: only the first four bytes.
}

constexpr const char *ScriptText = "-12.000e+07";
constexpr size_t ScriptLength = 11;

TEST(Sink, AllFourSinksAgreeOnBytesAndLength) {
  StringSink Str;
  emitScript(Str);
  EXPECT_EQ(Str.Out, ScriptText);
  EXPECT_EQ(Str.written(), ScriptLength);

  char Buf[32] = {};
  BufferSink Bounded(Buf, sizeof(Buf));
  emitScript(Bounded);
  EXPECT_EQ(std::string(Buf, Bounded.written()), ScriptText);
  EXPECT_EQ(Bounded.written(), ScriptLength);
  EXPECT_FALSE(Bounded.overflowed());

  std::vector<char> Store;
  StreamSink Stream(Store);
  emitScript(Stream);
  EXPECT_EQ(std::string(Store.begin(), Store.end()), ScriptText);
  EXPECT_EQ(Stream.written(), ScriptLength);

  CountingSink Counter;
  emitScript(Counter);
  EXPECT_EQ(Counter.written(), ScriptLength);
}

TEST(Sink, BufferSinkWritesExactPrefixOnOverflow) {
  // Every capacity from 0 to the full length: the written prefix must be
  // exactly the first Cap bytes of the full rendering and required()
  // must still be the full length.
  for (size_t Cap = 0; Cap <= ScriptLength + 2; ++Cap) {
    std::vector<char> Buf(Cap + 4, '\x7f'); // Canary past the capacity.
    BufferSink Out(Buf.data(), Cap);
    emitScript(Out);
    EXPECT_EQ(Out.required(), ScriptLength) << "cap " << Cap;
    EXPECT_EQ(Out.overflowed(), Cap < ScriptLength) << "cap " << Cap;
    size_t Written = Cap < ScriptLength ? Cap : ScriptLength;
    EXPECT_EQ(std::string(Buf.data(), Written),
              std::string(ScriptText).substr(0, Written))
        << "cap " << Cap;
    for (size_t I = Written; I < Buf.size(); ++I)
      EXPECT_EQ(Buf[I], '\x7f') << "byte past the write at " << I;
  }
}

TEST(Sink, BufferSinkZeroCapacityIsAPureSizeQuery) {
  BufferSink Out(nullptr, 0);
  emitScript(Out);
  EXPECT_EQ(Out.required(), ScriptLength);
  EXPECT_TRUE(Out.overflowed());
  EXPECT_TRUE(sinkOverflowed(Out));
}

TEST(Sink, StreamSinkCountsRelativeToConstruction) {
  std::vector<char> Store = {'a', 'b', 'c'};
  StreamSink Out(Store);
  EXPECT_EQ(Out.written(), 0u);
  emitScript(Out);
  EXPECT_EQ(Out.written(), ScriptLength);
  EXPECT_EQ(Store.size(), 3 + ScriptLength);
  EXPECT_EQ(std::string(Store.begin(), Store.begin() + 3), "abc");
  EXPECT_FALSE(sinkOverflowed(Out));
}

TEST(Sink, RendererProducesIdenticalBytesThroughEverySink) {
  // The real renderer (not a synthetic script): positional, scientific,
  // and auto forms through render_core against all sinks at once.
  const std::vector<uint8_t> Digits = {1, 7, 9, 7, 6, 9};
  RenderOptions Options;
  const int Ks[] = {-6, -1, 0, 1, 4, 6, 12, 25};
  for (int K : Ks) {
    for (bool Negative : {false, true}) {
      StringSink Str;
      render_detail::renderAutoInto(Str, Digits, K, 0, Negative, Options);

      char Buf[64];
      BufferSink Bounded(Buf, sizeof(Buf));
      render_detail::renderAutoInto(Bounded, Digits, K, 0, Negative, Options);

      std::vector<char> Store;
      StreamSink Stream(Store);
      render_detail::renderAutoInto(Stream, Digits, K, 0, Negative, Options);

      CountingSink Counter;
      render_detail::renderAutoInto(Counter, Digits, K, 0, Negative, Options);

      EXPECT_EQ(std::string(Buf, Bounded.written()), Str.Out)
          << "K " << K << " neg " << Negative;
      EXPECT_EQ(std::string(Store.begin(), Store.end()), Str.Out)
          << "K " << K << " neg " << Negative;
      EXPECT_EQ(Counter.written(), Str.Out.size())
          << "K " << K << " neg " << Negative;
    }
  }
}

TEST(Sink, StoreDecimalDigitsMatchesManualExpansion) {
  std::vector<uint8_t> Digits;
  render_detail::storeDecimalDigits(907060504, 9, Digits);
  ASSERT_EQ(Digits.size(), 9u);
  const uint8_t Expected[] = {9, 0, 7, 0, 6, 0, 5, 0, 4};
  for (int I = 0; I < 9; ++I)
    EXPECT_EQ(Digits[static_cast<size_t>(I)], Expected[I]) << "digit " << I;

  // Leading-zero widths (Ryu emits a fixed Length): zeros are stored.
  render_detail::storeDecimalDigits(42, 4, Digits);
  ASSERT_EQ(Digits.size(), 4u);
  EXPECT_EQ(Digits[0], 0);
  EXPECT_EQ(Digits[1], 0);
  EXPECT_EQ(Digits[2], 4);
  EXPECT_EQ(Digits[3], 2);
}

} // namespace
