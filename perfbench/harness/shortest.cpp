//===- perfbench/harness/shortest.cpp - Shortest-output workload ---------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// dragon4_to_chars (the C ABI over the thread-local scratch) against
/// std::to_chars shortest, single thread, over 1 Mi mixed-format values
/// (8 MiB of encodings, past L2).  Ryu, render, the engine wrapper and the
/// ABI do nearly all the work; bigint, parse and the pool do none.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "abi/dragon4_to_chars.h"
#include "engine/engine.h"
#include "fastpath/ryu.h"
#include "fp/binary16.h"
#include "fp/ieee_traits.h"

#include <charconv>
#include <cstring>

namespace perfbench {
namespace {

using dragon4::Binary16;

constexpr size_t Count = size_t(1) << 20;
constexpr size_t Chunk = 512;
constexpr size_t Slot = 32;
// Format codes are the C ABI's dragon4_format values.
constexpr uint8_t B16 = DRAGON4_FORMAT_BINARY16;
constexpr uint8_t B32 = DRAGON4_FORMAT_BINARY32;
constexpr uint8_t B64 = DRAGON4_FORMAT_BINARY64;

template <typename To, typename From> To bitCast(From V) {
  static_assert(sizeof(To) == sizeof(From));
  To Out;
  std::memcpy(&Out, &V, sizeof Out);
  return Out;
}

void refToChars(uint8_t Format, uint64_t Bits, char *Out) {
  if (Format == B64)
    std::to_chars(Out, Out + Slot, bitCast<double>(Bits));
  else if (Format == B32)
    std::to_chars(Out, Out + Slot, bitCast<float>(static_cast<uint32_t>(Bits)));
  else // No binary16 to_chars in libstdc++: the widened float is the yardstick.
    std::to_chars(Out, Out + Slot, halfToFloat(static_cast<uint16_t>(Bits)));
}

size_t engineFormat(uint8_t Format, uint64_t Bits, char *Out,
                    dragon4::engine::Scratch &S) {
  namespace engine = dragon4::engine;
  if (Format == B64)
    return engine::format(bitCast<double>(Bits), Out, Slot, S);
  if (Format == B32)
    return engine::format(bitCast<float>(static_cast<uint32_t>(Bits)), Out,
                          Slot, S);
  return engine::format(Binary16::fromBits(static_cast<uint16_t>(Bits)), Out,
                        Slot, S);
}

template <typename T> dragon4::Decomposed decomposeAs(uint64_t Bits) {
  if constexpr (std::is_same_v<T, Binary16>)
    return dragon4::decompose(Binary16::fromBits(static_cast<uint16_t>(Bits)));
  else if constexpr (std::is_same_v<T, float>)
    return dragon4::decompose(bitCast<float>(static_cast<uint32_t>(Bits)));
  else
    return dragon4::decompose(bitCast<double>(Bits));
}

/// The library's own digit rung, called the way the engine calls it.
template <typename T>
bool ryuDigits(dragon4::Decomposed D, std::vector<uint8_t> &Digits) {
  using Traits = dragon4::IeeeTraits<T>;
  bool AcceptBounds = false;
  int K = 0;
  return dragon4::ryuEligible(10, dragon4::BoundaryMode::NearestEven,
                              (D.F & 1) == 0, AcceptBounds) &&
         dragon4::ryuShortestInto(D.F, D.E, Traits::Precision,
                                  Traits::MinExponent, AcceptBounds,
                                  dragon4::TieBreak::RoundUp, Digits, K);
}

class Shortest final : public ChunkedWorkload {
public:
  explicit Shortest(uint64_t DelayTurns)
      : ChunkedWorkload(Count, Chunk), DelayTurns(DelayTurns) {}

  void generate(uint64_t Seed, Results &R) override {
    Rng G(Seed);
    // Class mix: uniform-bit binary64 (17 digits, scientific), binary64 of
    // decimal origin (<= 7 digits, positional: rendering weighs more),
    // uniform-bit binary32 and binary16.
    const std::vector<double> Mix = {0.50, 0.25, 0.15, 0.10};
    const char *ClassNames[] = {"b64_uniform", "b64_decimal", "b32_uniform",
                                "b16_uniform"};
    size_t PerClass[4] = {};
    Bits.resize(Count);
    Format.resize(Count);
    for (size_t I = 0; I < Count; ++I) {
      size_t Class = G.pick(Mix);
      ++PerClass[Class];
      switch (Class) {
      case 0:
        Format[I] = B64;
        do
          Bits[I] = G.next();
        while (((Bits[I] >> 52) & 0x7ff) == 0x7ff ||
               (Bits[I] << 1) == 0);
        break;
      case 1: {
        Format[I] = B64;
        std::string Text = decimalText(G, 7, -4, 9);
        double V = 0;
        std::from_chars(Text.data(), Text.data() + Text.size(), V);
        Bits[I] = bitCast<uint64_t>(V);
        break;
      }
      case 2:
        Format[I] = B32;
        do
          Bits[I] = G.next() & 0xffffffffu;
        while (((Bits[I] >> 23) & 0xff) == 0xff ||
               (Bits[I] & 0x7fffffffu) == 0);
        break;
      default:
        Format[I] = B16;
        do
          Bits[I] = G.next() & 0xffffu;
        while (((Bits[I] >> 10) & 0x1f) == 0x1f || (Bits[I] & 0x7fffu) == 0);
        break;
      }
      ByFormat[Format[I]].push_back(static_cast<uint32_t>(I));
    }
    for (int C = 0; C < 4; ++C)
      R.Inputs.emplace_back(ClassNames[C],
                            static_cast<double>(PerClass[C]) / Count);
    LibOut.resize(Chunk * Slot);
    RefOut.resize(Chunk * Slot);
    LibLen.resize(Chunk);
  }

  void coldSetup() override {
    char Out[Slot];
    size_t Len = 0;
    // 0.1 in each format.
    dragon4_to_chars(DRAGON4_FORMAT_BINARY64, 0x3fb999999999999aull, 0,
                     nullptr, Out, Slot, &Len);
    dragon4_to_chars(DRAGON4_FORMAT_BINARY32, 0x3dcccccdu, 0, nullptr, Out,
                     Slot, &Len);
    dragon4_to_chars(DRAGON4_FORMAT_BINARY16, 0x2e66u, 0, nullptr, Out, Slot,
                     &Len);
  }

  double trace(uint64_t DeadlineNs, Tracer &T, Results &R) override {
    const uint16_t ChunkName = T.intern("shortest.chunk");
    const uint16_t Abi = T.intern("abi.to_chars");
    const uint16_t Engine = T.intern("engine.format");
    const uint16_t Decompose = T.intern("fp.decompose");
    const uint16_t Ryu = T.intern("fastpath.ryu_digits");
    const uint16_t Ref = T.intern("ref.to_chars");
    const uint16_t PerFormat[3] = {T.intern("engine.format_b16"),
                                   T.intern("engine.format_b32"),
                                   T.intern("engine.format_b64")};
    dragon4::engine::Scratch S;
    std::vector<dragon4::Decomposed> Parts(Chunk);
    std::vector<uint8_t> Digits;
    size_t FormatCursor[3] = {};
    warmUp();
    while (nowNs() < DeadlineNs) {
      const size_t Begin = nextChunk();
      const size_t P = T.open(ChunkName, 0, Chunk);
      const uint32_t Pid = T.idOf(P);

      size_t Span = T.open(Abi, Pid, Chunk);
      timeLib(Begin);
      T.close(Span);

      char Out[Slot];
      Span = T.open(Engine, Pid, Chunk);
      for (size_t I = Begin; I < Begin + Chunk; ++I)
        engineFormat(Format[I], Bits[I], Out, S);
      T.close(Span);

      Span = T.open(Decompose, Pid, Chunk);
      for (size_t I = 0; I < Chunk; ++I) {
        const size_t J = Begin + I;
        Parts[I] = Format[J] == B64   ? decomposeAs<double>(Bits[J])
                   : Format[J] == B32 ? decomposeAs<float>(Bits[J])
                                      : decomposeAs<Binary16>(Bits[J]);
      }
      T.close(Span);

      uint32_t Accepted = 0;
      Span = T.open(Ryu, Pid, Chunk);
      for (size_t I = 0; I < Chunk; ++I) {
        const uint8_t F = Format[Begin + I];
        Accepted += F == B64   ? ryuDigits<double>(Parts[I], Digits)
                    : F == B32 ? ryuDigits<float>(Parts[I], Digits)
                               : ryuDigits<Binary16>(Parts[I], Digits);
      }
      T.close(Span, Accepted);

      Span = T.open(Ref, Pid, Chunk);
      timeRef(Begin);
      T.close(Span);

      for (uint8_t F : {B16, B32, B64}) {
        const std::vector<uint32_t> &Pool = ByFormat[F];
        const size_t From = nextStep(FormatCursor[F], Pool.size(), Chunk);
        Span = T.open(PerFormat[F], Pid, Chunk);
        for (size_t I = From; I < From + Chunk; ++I)
          engineFormat(F, Bits[Pool[I]], Out, S);
        T.close(Span);
      }
      T.close(P);
      R.Failed += failures(Begin);
      R.Attempted += Chunk;
    }

    const auto Chunks = T.chunks("shortest.chunk");
    auto &L = R.Layers;
    L["abi.to_chars_self_ns"] =
        medianSelfNs(Chunks, "abi.to_chars", {"engine.format"});
    L["format.render_self_ns"] = medianSelfNs(
        Chunks, "engine.format", {"fastpath.ryu_digits", "fp.decompose"});
    L["engine.format_b64_ns"] = medianChildNs(Chunks, "engine.format_b64");
    L["engine.format_b32_ns"] = medianChildNs(Chunks, "engine.format_b32");
    L["engine.format_b16_ns"] = medianChildNs(Chunks, "engine.format_b16");
    L["fastpath.ryu_digits_ns"] = medianChildNs(Chunks, "fastpath.ryu_digits");
    L["fastpath.ryu_hit_share"] = childShare(Chunks, "fastpath.ryu_digits");
    L["fp.decompose_ns"] = medianChildNs(Chunks, "fp.decompose");
    L["ref.to_chars_ns"] = medianChildNs(Chunks, "ref.to_chars");
    return medianChildNs(Chunks, "abi.to_chars") / L["ref.to_chars_ns"];
  }

private:
  uint64_t timeLib(size_t Begin) override {
    const uint64_t Start = nowNs();
    for (size_t I = 0; I < Chunk; ++I) {
      size_t Len = 0;
      if (dragon4_to_chars(static_cast<dragon4_format>(Format[Begin + I]),
                           Bits[Begin + I], 0, nullptr, &LibOut[I * Slot],
                           Slot, &Len) != DRAGON4_OK)
        Len = 0; // Fails the check.
      LibLen[I] = static_cast<uint32_t>(Len);
      if (DelayTurns)
        spin(DelayTurns);
    }
    return nowNs() - Start;
  }

  uint64_t timeRef(size_t Begin) override {
    const uint64_t Start = nowNs();
    for (size_t I = 0; I < Chunk; ++I)
      refToChars(Format[Begin + I], Bits[Begin + I], &RefOut[I * Slot]);
    return nowNs() - Start;
  }

  uint64_t failures(size_t Begin) const override {
    uint64_t Failed = 0;
    for (size_t I = 0; I < Chunk; ++I)
      Failed += !checkShortest(Format[Begin + I], Bits[Begin + I],
                               {&LibOut[I * Slot], LibLen[I]});
    return Failed;
  }

  const uint64_t DelayTurns;
  std::vector<uint64_t> Bits;
  std::vector<uint8_t> Format;
  std::vector<uint32_t> ByFormat[3];
  std::vector<char> LibOut, RefOut;
  std::vector<uint32_t> LibLen;
};

} // namespace

std::unique_ptr<Workload> makeShortest(uint64_t DelayTurns) {
  return std::make_unique<Shortest>(DelayTurns);
}

} // namespace perfbench
