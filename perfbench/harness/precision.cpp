//===- perfbench/harness/precision.cpp - Precision-output workload -------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// formatPrintf(v, spec, buf, n) against glibc snprintf on a seeded mix of
/// %.17g, %.6e, %g, %.6f and %.2f.  Fixed-format digit generation on
/// bignums is most of the cost; Ryu does nothing.  Long outputs also run
/// the render layer, so a render change tuned for short strings shows here.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "baselines/fixed17.h"
#include "core/fixed_format.h"
#include "fastpath/fixed_fast.h"
#include "format/printf_compat.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {
namespace {

constexpr size_t Count = size_t(1) << 15;
constexpr size_t Chunk = 32;
constexpr size_t Slot = 48;

struct SpecInfo {
  const char *Text;
  char Conversion;
  int Precision;
  double Weight;
};
constexpr SpecInfo Specs[] = {{"%.17g", 'g', 17, 0.25},
                              {"%.6e", 'e', 6, 0.20},
                              {"%g", 'g', 6, 0.20},
                              {"%.6f", 'f', 6, 0.20},
                              {"%.2f", 'f', 2, 0.15}};
constexpr size_t SpecCount = sizeof(Specs) / sizeof(Specs[0]);

/// Significant digits a %e / %g conversion asks the digit layer for.
int relativeDigits(const SpecInfo &S) {
  return S.Conversion == 'e' ? S.Precision + 1
                             : (S.Precision < 1 ? 1 : S.Precision);
}

class Precision final : public ChunkedWorkload {
public:
  Precision() : ChunkedWorkload(Count, Chunk) {}

  void generate(uint64_t Seed, Results &R) override {
    Rng G(Seed);
    std::vector<double> Weights;
    for (const SpecInfo &S : Specs)
      Weights.push_back(S.Weight);
    size_t PerClass[SpecCount][2] = {};
    Values.resize(Count);
    Spec.resize(Count);
    for (size_t I = 0; I < Count; ++I) {
      const size_t S = G.pick(Weights);
      Spec[I] = static_cast<uint8_t>(S);
      // %f takes decimal-origin magnitudes (1e-3 .. 1e7) so its outputs
      // stay realistic; %e / %g take half uniform-bit binary64, half
      // decimal-origin values over a wider range.
      const bool Fixed = Specs[S].Conversion == 'f';
      const bool Uniform = !Fixed && G.below(2) == 0;
      ++PerClass[S][Uniform];
      if (Uniform) {
        uint64_t Bits;
        do
          Bits = G.next();
        while (((Bits >> 52) & 0x7ff) == 0x7ff || (Bits << 1) == 0);
        std::memcpy(&Values[I], &Bits, sizeof Bits);
      } else {
        std::string Text =
            Fixed ? decimalText(G, 7, -3, 6) : decimalText(G, 7, -10, 15);
        std::from_chars(Text.data(), Text.data() + Text.size(), Values[I]);
      }
      if (Fixed)
        BySpec[2].push_back(static_cast<uint32_t>(I));
      else if (S < 2)
        BySpec[S].push_back(static_cast<uint32_t>(I));
      if (!Fixed)
        Relative.push_back(static_cast<uint32_t>(I));
    }
    for (size_t S = 0; S < SpecCount; ++S)
      for (int U = 0; U < 2; ++U)
        if (PerClass[S][U])
          R.Inputs.emplace_back(std::string(Specs[S].Text) +
                                    (U ? " uniform" : " decimal"),
                                static_cast<double>(PerClass[S][U]) / Count);
    LibOut.resize(Chunk * Slot);
    RefOut.resize(Chunk * Slot);
    LibLen.resize(Chunk);
    RefLen.resize(Chunk);
  }

  void coldSetup() override {
    char Out[Slot];
    for (const SpecInfo &S : Specs)
      dragon4::formatPrintf(1234.5678, S.Text, Out, Slot);
  }

  double trace(uint64_t DeadlineNs, Tracer &T, Results &R) override {
    const uint16_t ChunkName = T.intern("precision.chunk");
    const uint16_t Printf = T.intern("format.printf");
    const uint16_t Digits = T.intern("format.printf_digits");
    const uint16_t Core = T.intern("core.fixed_digits");
    const uint16_t Fast = T.intern("fastpath.fixed_fast");
    const uint16_t Ref = T.intern("ref.snprintf");
    const uint16_t PerSpec[3] = {T.intern("format.printf_g17"),
                                 T.intern("format.printf_e"),
                                 T.intern("format.printf_f")};
    size_t SpecCursor[3] = {};
    size_t RelativeCursor = 0;
    char Out[Slot];
    warmUp();
    while (nowNs() < DeadlineNs) {
      const size_t Begin = nextChunk();
      const size_t P = T.open(ChunkName, 0, Chunk);
      const uint32_t Pid = T.idOf(P);

      size_t Span = T.open(Printf, Pid, Chunk);
      timeLib(Begin);
      T.close(Span);

      // The exact digit generators formatPrintf calls, as it calls them.
      Span = T.open(Digits, Pid, Chunk);
      for (size_t I = Begin; I < Begin + Chunk; ++I) {
        const SpecInfo &S = Specs[Spec[I]];
        if (S.Conversion == 'f')
          dragon4::straightforwardDigitsAbsolute(
              Values[I], -S.Precision, 10, dragon4::TieBreak::RoundEven);
        else
          dragon4::straightforwardDigits(Values[I], relativeDigits(S), 10,
                                         dragon4::TieBreak::RoundEven);
      }
      T.close(Span);

      Span = T.open(Core, Pid, Chunk);
      for (size_t I = Begin; I < Begin + Chunk; ++I) {
        const SpecInfo &S = Specs[Spec[I]];
        if (S.Conversion == 'f')
          dragon4::fixedDigitsAbsolute(Values[I], -S.Precision);
        else
          dragon4::fixedDigitsRelative(Values[I], relativeDigits(S));
      }
      T.close(Span);

      const size_t From = nextStep(RelativeCursor, Relative.size(), Chunk);
      uint32_t Accepted = 0;
      Span = T.open(Fast, Pid, Chunk);
      for (size_t I = From; I < From + Chunk; ++I) {
        const uint32_t J = Relative[I];
        Accepted += dragon4::fastFixedDigits(std::fabs(Values[J]),
                                             relativeDigits(Specs[Spec[J]]))
                        .has_value();
      }
      T.close(Span, Accepted);

      Span = T.open(Ref, Pid, Chunk);
      timeRef(Begin);
      T.close(Span);

      for (int K = 0; K < 3; ++K) {
        const std::vector<uint32_t> &Pool = BySpec[K];
        const size_t Start = nextStep(SpecCursor[K], Pool.size(), Chunk);
        Span = T.open(PerSpec[K], Pid, Chunk);
        for (size_t I = Start; I < Start + Chunk; ++I)
          dragon4::formatPrintf(Values[Pool[I]], Specs[Spec[Pool[I]]].Text,
                                Out, Slot);
        T.close(Span);
      }
      T.close(P);
      R.Failed += failures(Begin);
      R.Attempted += Chunk;
    }

    const auto Chunks = T.chunks("precision.chunk");
    auto &L = R.Layers;
    L["format.printf_self_ns"] =
        medianSelfNs(Chunks, "format.printf", {"format.printf_digits"});
    L["format.printf_digits_ns"] =
        medianChildNs(Chunks, "format.printf_digits");
    L["format.printf_g17_ns"] = medianChildNs(Chunks, "format.printf_g17");
    L["format.printf_e_ns"] = medianChildNs(Chunks, "format.printf_e");
    L["format.printf_f_ns"] = medianChildNs(Chunks, "format.printf_f");
    L["core.fixed_digits_ns"] = medianChildNs(Chunks, "core.fixed_digits");
    L["fastpath.fixed_fast_ns"] = medianChildNs(Chunks, "fastpath.fixed_fast");
    L["fastpath.fixed_fast_accept_share"] =
        childShare(Chunks, "fastpath.fixed_fast");
    L["ref.snprintf_ns"] = medianChildNs(Chunks, "ref.snprintf");
    return medianChildNs(Chunks, "format.printf") / L["ref.snprintf_ns"];
  }

private:
  uint64_t timeLib(size_t Begin) override {
    const uint64_t Start = nowNs();
    for (size_t I = 0; I < Chunk; ++I)
      LibLen[I] = static_cast<uint32_t>(
          dragon4::formatPrintf(Values[Begin + I], Specs[Spec[Begin + I]].Text,
                                &LibOut[I * Slot], Slot));
    return nowNs() - Start;
  }

  uint64_t timeRef(size_t Begin) override {
    const uint64_t Start = nowNs();
    for (size_t I = 0; I < Chunk; ++I)
      RefLen[I] = static_cast<uint32_t>(
          std::snprintf(&RefOut[I * Slot], Slot, Specs[Spec[Begin + I]].Text,
                        Values[Begin + I]));
    return nowNs() - Start;
  }

  /// Byte equality with snprintf, over the last chunk both sides wrote.
  uint64_t failures(size_t) const override {
    uint64_t Failed = 0;
    for (size_t I = 0; I < Chunk; ++I)
      Failed += LibLen[I] != RefLen[I] || LibLen[I] >= Slot ||
                std::memcmp(&LibOut[I * Slot], &RefOut[I * Slot],
                            LibLen[I]) != 0;
    return Failed;
  }

  std::vector<double> Values;
  std::vector<uint8_t> Spec;
  /// Indices by spec group: %.17g, %.6e, %f (both precisions).
  std::vector<uint32_t> BySpec[3];
  std::vector<uint32_t> Relative; ///< Indices of the %e / %g inputs.
  std::vector<char> LibOut, RefOut;
  std::vector<uint32_t> LibLen, RefLen;
};

} // namespace

std::unique_ptr<Workload> makePrecision() {
  return std::make_unique<Precision>();
}

} // namespace perfbench
