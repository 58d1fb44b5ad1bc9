//===- perfbench/harness/parse.cpp - Parsing workload --------------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// dragon4_from_chars against std::from_chars on binary64 and binary32
/// text: shortest literals, short decimal-origin literals, literals of more
/// than 19 significant digits, and a small share of near-halfway literals
/// that force the exact reader fallback.  The read side beside the write
/// side: a shared-table change that helps output but costs input shows here.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "abi/dragon4_to_chars.h"
#include "parse/parse.h"
#include "reader/reader.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string_view>

namespace perfbench {
namespace {

constexpr size_t Count = size_t(1) << 17;
constexpr size_t Chunk = 256;
/// Fallback literals cost microseconds each; their pure chunks are short.
constexpr size_t FallbackChunk = 16;
constexpr uint8_t B32 = DRAGON4_FORMAT_BINARY32;
constexpr uint8_t B64 = DRAGON4_FORMAT_BINARY64;

/// A random finite, non-zero binary64 (\p Wide) or binary32 value, as a
/// double.
double uniformValue(Rng &G, bool Wide) {
  for (;;) {
    if (Wide) {
      uint64_t Bits = G.next();
      if (((Bits >> 52) & 0x7ff) == 0x7ff || (Bits << 1) == 0)
        continue;
      double V;
      std::memcpy(&V, &Bits, sizeof V);
      return V;
    }
    uint32_t Bits = static_cast<uint32_t>(G.next());
    if (((Bits >> 23) & 0xff) == 0xff || (Bits & 0x7fffffffu) == 0)
      continue;
    float V;
    std::memcpy(&V, &Bits, sizeof V);
    return V;
  }
}

std::string shortestText(Rng &G, bool Wide) {
  char Buf[64];
  double V = uniformValue(G, Wide);
  auto R = Wide ? std::to_chars(Buf, Buf + sizeof Buf, V)
                : std::to_chars(Buf, Buf + sizeof Buf, static_cast<float>(V));
  return std::string(Buf, R.ptr);
}

/// 20 to 29 random significant digits, scientific.
std::string longText(Rng &G, bool Wide) {
  const int Digits = 20 + static_cast<int>(G.below(10));
  std::string Text = G.below(2) ? "-" : "";
  Text.push_back(static_cast<char>('1' + G.below(9)));
  Text.push_back('.');
  for (int I = 1; I < Digits; ++I)
    Text.push_back(static_cast<char>('0' + G.below(10)));
  const int Span = Wide ? 300 : 36;
  Text += 'e';
  Text += std::to_string(static_cast<int>(G.below(2 * Span + 1)) - Span);
  return Text;
}

/// 20 to 29 digits of the midpoint between a value and its successor:
/// truncated to 19 digits, the bracketing values round differently, so
/// only the exact reader can decide.
std::string nearHalfwayText(Rng &G, bool Wide) {
  const int Digits = 20 + static_cast<int>(G.below(10));
  char Buf[80];
  for (;;) {
    const double V = std::fabs(uniformValue(G, Wide));
    if (Wide) {
      const double Next = std::nextafter(V, INFINITY);
      if (std::isinf(Next))
        continue;
      // The midpoint needs 54 bits: exact in x87 extended precision.
      const long double Mid = (static_cast<long double>(V) + Next) / 2;
      std::snprintf(Buf, sizeof Buf, "%.*Le", Digits - 1, Mid);
    } else {
      const float F = static_cast<float>(V);
      const float Next = std::nextafter(F, INFINITY);
      if (std::isinf(Next))
        continue;
      const double Mid = (static_cast<double>(F) + Next) / 2; // Exact.
      std::snprintf(Buf, sizeof Buf, "%.*e", Digits - 1, Mid);
    }
    return Buf;
  }
}

class Parse final : public ChunkedWorkload {
public:
  Parse() : ChunkedWorkload(Count, Chunk) {}

  void generate(uint64_t Seed, Results &R) override {
    Rng G(Seed);
    const std::vector<double> Mix = {0.40, 0.30, 0.25, 0.05};
    const char *ClassNames[] = {"shortest", "decimal_short", "long_20_29",
                                "near_halfway"};
    size_t PerClass[4][2] = {};
    Format.resize(Count);
    Offset.resize(Count + 1);
    for (size_t I = 0; I < Count; ++I) {
      const bool Wide = G.below(10) < 7; // 70% binary64.
      const size_t Class = G.pick(Mix);
      ++PerClass[Class][Wide];
      Format[I] = Wide ? B64 : B32;
      Offset[I] = static_cast<uint32_t>(Text.size());
      switch (Class) {
      case 0:
        Text += shortestText(G, Wide);
        break;
      case 1:
        Text += decimalText(G, 7, -6, 9);
        break;
      case 2:
        Text += longText(G, Wide);
        break;
      default:
        Text += nearHalfwayText(G, Wide);
        break;
      }
    }
    Offset[Count] = static_cast<uint32_t>(Text.size());
    for (int C = 0; C < 4; ++C)
      for (int W = 0; W < 2; ++W)
        R.Inputs.emplace_back(std::string(ClassNames[C]) +
                                  (W ? " b64" : " b32"),
                              static_cast<double>(PerClass[C][W]) / Count);
    // The path the library takes on each literal, for the pure chunks of
    // the traced run and the realized fallback share.
    for (size_t I = 0; I < Count; ++I) {
      const bool Fallback =
          pathOf(I) == dragon4::parse::ParsePath::ExactFallback;
      (Fallback ? FallbackIdx : FastIdx).push_back(static_cast<uint32_t>(I));
    }
    R.Inputs.emplace_back("parse.fallback_share",
                          static_cast<double>(FallbackIdx.size()) / Count);
    LibBits.resize(Chunk);
    RefBits.resize(Chunk);
    LibOk.resize(Chunk);
    RefOk.resize(Chunk);
  }

  void coldSetup() override {
    // A fast-path literal per format, and one just past the halfway point
    // 2^53 + 1 (2^24 + 1) that only the exact reader can decide.
    const std::pair<uint8_t, std::string_view> Literals[] = {
        {B64, "0.1"},
        {B32, "0.1"},
        {B64, "9007199254740993.00000000001"},
        {B32, "16777217.00000000000000000001"}};
    uint64_t Lo = 0, Hi = 0;
    for (const auto &[F, Text] : Literals)
      dragon4_from_chars(static_cast<dragon4_format>(F), Text.data(),
                         Text.size(), &Lo, &Hi, nullptr);
  }

  double trace(uint64_t DeadlineNs, Tracer &T, Results &R) override {
    const uint16_t ChunkName = T.intern("parse.chunk");
    const uint16_t Abi = T.intern("abi.from_chars");
    const uint16_t ParseFloat = T.intern("parse.parse_float");
    const uint16_t Ref = T.intern("ref.from_chars");
    const uint16_t Fast = T.intern("parse.fast");
    const uint16_t Fallback = T.intern("parse.fallback");
    const uint16_t Reader = T.intern("reader.read_float");
    size_t FastCursor = 0, FallbackCursor = 0;
    warmUp();
    while (nowNs() < DeadlineNs) {
      const size_t Begin = nextChunk();
      const size_t P = T.open(ChunkName, 0, Chunk);
      const uint32_t Pid = T.idOf(P);

      size_t Span = T.open(Abi, Pid, Chunk);
      timeLib(Begin);
      T.close(Span);

      uint32_t Fallbacks = 0;
      Span = T.open(ParseFloat, Pid, Chunk);
      for (size_t I = Begin; I < Begin + Chunk; ++I)
        Fallbacks += pathOf(I) == dragon4::parse::ParsePath::ExactFallback;
      T.close(Span, Fallbacks);

      Span = T.open(Ref, Pid, Chunk);
      timeRef(Begin);
      T.close(Span);

      const size_t FastFrom = nextStep(FastCursor, FastIdx.size(), Chunk);
      Span = T.open(Fast, Pid, Chunk);
      for (size_t I = FastFrom; I < FastFrom + Chunk; ++I)
        pathOf(FastIdx[I]);
      T.close(Span);

      const size_t SlowFrom =
          nextStep(FallbackCursor, FallbackIdx.size(), FallbackChunk);
      Span = T.open(Fallback, Pid, FallbackChunk);
      for (size_t I = SlowFrom; I < SlowFrom + FallbackChunk; ++I)
        pathOf(FallbackIdx[I]);
      T.close(Span);

      Span = T.open(Reader, Pid, FallbackChunk);
      for (size_t I = SlowFrom; I < SlowFrom + FallbackChunk; ++I) {
        const uint32_t J = FallbackIdx[I];
        if (Format[J] == B64)
          dragon4::readFloat<double>(text(J));
        else
          dragon4::readFloat<float>(text(J));
      }
      T.close(Span);

      T.close(P);
      R.Failed += failures(Begin);
      R.Attempted += Chunk;
    }

    const auto Chunks = T.chunks("parse.chunk");
    auto &L = R.Layers;
    L["abi.from_chars_self_ns"] =
        medianSelfNs(Chunks, "abi.from_chars", {"parse.parse_float"});
    L["parse.fast_ns"] = medianChildNs(Chunks, "parse.fast");
    L["parse.fallback_ns"] = medianChildNs(Chunks, "parse.fallback");
    L["parse.fallback_share"] = childShare(Chunks, "parse.parse_float");
    L["reader.read_float_ns"] = medianChildNs(Chunks, "reader.read_float");
    L["ref.from_chars_ns"] = medianChildNs(Chunks, "ref.from_chars");
    return medianChildNs(Chunks, "abi.from_chars") / L["ref.from_chars_ns"];
  }

private:
  std::string_view text(size_t I) const {
    return {Text.data() + Offset[I], Offset[I + 1] - Offset[I]};
  }

  dragon4::parse::ParsePath pathOf(size_t I) const {
    return Format[I] == B64
               ? dragon4::parse::parseFloat<double>(text(I), nullptr).Path
               : dragon4::parse::parseFloat<float>(text(I), nullptr).Path;
  }

  uint64_t timeLib(size_t Begin) override {
    const uint64_t Start = nowNs();
    for (size_t I = 0; I < Chunk; ++I) {
      const std::string_view T = text(Begin + I);
      uint64_t Lo = 0, Hi = 0;
      size_t Consumed = 0;
      LibOk[I] = dragon4_from_chars(
                     static_cast<dragon4_format>(Format[Begin + I]), T.data(),
                     T.size(), &Lo, &Hi, &Consumed) == DRAGON4_OK &&
                 Consumed == T.size();
      LibBits[I] = Lo;
    }
    return nowNs() - Start;
  }

  uint64_t timeRef(size_t Begin) override {
    const uint64_t Start = nowNs();
    for (size_t I = 0; I < Chunk; ++I) {
      const std::string_view T = text(Begin + I);
      const char *End = T.data() + T.size();
      if (Format[Begin + I] == B64) {
        double V = 0;
        auto [Ptr, Ec] = std::from_chars(T.data(), End, V);
        RefOk[I] = Ec == std::errc() && Ptr == End;
        std::memcpy(&RefBits[I], &V, sizeof V);
      } else {
        float V = 0;
        auto [Ptr, Ec] = std::from_chars(T.data(), End, V);
        RefOk[I] = Ec == std::errc() && Ptr == End;
        uint32_t Bits;
        std::memcpy(&Bits, &V, sizeof V);
        RefBits[I] = Bits;
      }
    }
    return nowNs() - Start;
  }

  /// Bit equality with std::from_chars over the last chunk.
  uint64_t failures(size_t) const override {
    uint64_t Failed = 0;
    for (size_t I = 0; I < Chunk; ++I)
      Failed += !LibOk[I] || !RefOk[I] || LibBits[I] != RefBits[I];
    return Failed;
  }

  std::string Text;
  std::vector<uint32_t> Offset;
  std::vector<uint8_t> Format;
  std::vector<uint32_t> FastIdx, FallbackIdx;
  std::vector<uint64_t> LibBits, RefBits;
  std::vector<uint8_t> LibOk, RefOk;
};

} // namespace

std::unique_ptr<Workload> makeParse() { return std::make_unique<Parse>(); }

} // namespace perfbench
