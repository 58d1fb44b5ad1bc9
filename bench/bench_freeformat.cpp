//===- bench/bench_freeformat.cpp - Free-format conversion costs --------------===//
//
// Part of libdragon4. SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end shortest-output conversion cost: by magnitude, by format,
/// by base, and against the Steele & White baseline; plus rendering cost.
/// The digit-core rows time the shortest ladder's front rung (Schubfach)
/// against the retired Ryu removal loop, digits only: no render, no
/// engine.
///
//===----------------------------------------------------------------------===//

#include "baselines/grisu.h"
#include "baselines/ryu_loop.h"
#include "baselines/steele_white.h"
#include "core/free_format.h"
#include "fastpath/ryu.h"
#include "format/dtoa.h"
#include "fp/binary16.h"

#include "bench_gbench.h"

#include <cstdio>

using namespace dragon4;

namespace {

const double TestValues[] = {3.14159, 1.5e-5, 6.02214076e23, 1.7e308,
                             5e-324};

void BM_ShortestDouble(benchmark::State &State) {
  double V = TestValues[State.range(0)];
  for (auto _ : State) {
    DigitString D = shortestDigits(V);
    benchmark::DoNotOptimize(D);
  }
  char Label[32];
  std::snprintf(Label, sizeof(Label), "%g", V);
  State.SetLabel(Label);
}
BENCHMARK(BM_ShortestDouble)->DenseRange(0, 4);

void BM_ShortestFloat(benchmark::State &State) {
  float V = 3.14159f;
  for (auto _ : State) {
    DigitString D = shortestDigits(V);
    benchmark::DoNotOptimize(D);
  }
}
BENCHMARK(BM_ShortestFloat);

void BM_ShortestHalf(benchmark::State &State) {
  Binary16 V = Binary16::fromDouble(3.14159);
  for (auto _ : State) {
    DigitString D = shortestDigits(V);
    benchmark::DoNotOptimize(D);
  }
}
BENCHMARK(BM_ShortestHalf);

void BM_ShortestExtended80(benchmark::State &State) {
  long double V = 3.14159265358979323846L;
  for (auto _ : State) {
    DigitString D = shortestDigits(V);
    benchmark::DoNotOptimize(D);
  }
}
BENCHMARK(BM_ShortestExtended80);

void BM_ShortestBinary128(benchmark::State &State) {
  Binary128 V = Binary128::fromDouble(3.141592653589793);
  for (auto _ : State) {
    DigitString D = shortestDigits(V);
    benchmark::DoNotOptimize(D);
  }
}
BENCHMARK(BM_ShortestBinary128);

void BM_ShortestByBase(benchmark::State &State) {
  FreeFormatOptions Options;
  Options.Base = static_cast<unsigned>(State.range(0));
  for (auto _ : State) {
    DigitString D = shortestDigits(3.141592653589793, Options);
    benchmark::DoNotOptimize(D);
  }
}
BENCHMARK(BM_ShortestByBase)->Arg(2)->Arg(10)->Arg(16)->Arg(36);

void BM_SteeleWhiteDouble(benchmark::State &State) {
  double V = TestValues[State.range(0)];
  for (auto _ : State) {
    DigitString D = steeleWhiteDigits(V);
    benchmark::DoNotOptimize(D);
  }
  char Label[32];
  std::snprintf(Label, sizeof(Label), "%g", V);
  State.SetLabel(Label);
}
BENCHMARK(BM_SteeleWhiteDouble)->DenseRange(0, 4);

void BM_GrisuFastDouble(benchmark::State &State) {
  // The Grisu3 fast path with exact fallback (Loitsch 2010, the follow-on
  // to the paper): typically ~10x the exact path on the happy path.
  double V = TestValues[State.range(0)];
  for (auto _ : State) {
    DigitString D = shortestDigitsFast(V);
    benchmark::DoNotOptimize(D);
  }
  char Label[32];
  std::snprintf(Label, sizeof(Label), "%g", V);
  State.SetLabel(Label);
}
BENCHMARK(BM_GrisuFastDouble)->DenseRange(0, 4);

/// The digits-only row shared by the two shortest digit cores: decompose
/// once, then time the core alone under the default reader model.
template <typename Core>
void digitCoreRow(benchmark::State &State, Core DigitCore) {
  double V = TestValues[State.range(0)];
  Decomposed D = decompose(V);
  using Traits = IeeeTraits<double>;
  const bool AcceptBounds = (D.F & 1) == 0; // NearestEven.
  for (auto _ : State) {
    uint64_t Significand = 0;
    int Length = 0;
    int K = 0;
    bool Ok = DigitCore(D.F, D.E, Traits::Precision, Traits::MinExponent,
                        AcceptBounds, TieBreak::RoundUp, Significand, Length,
                        K);
    benchmark::DoNotOptimize(Ok);
    benchmark::DoNotOptimize(Significand);
    benchmark::DoNotOptimize(K);
  }
  char Label[32];
  std::snprintf(Label, sizeof(Label), "%g", V);
  State.SetLabel(Label);
}

void BM_DigitCoreSchubfachDouble(benchmark::State &State) {
  digitCoreRow(State, ryuShortestDecimal);
}
BENCHMARK(BM_DigitCoreSchubfachDouble)->DenseRange(0, 4);

void BM_DigitCoreRyuLoopDouble(benchmark::State &State) {
  digitCoreRow(State, ryuLoopShortestDecimal);
}
BENCHMARK(BM_DigitCoreRyuLoopDouble)->DenseRange(0, 4);

void BM_ToShortestString(benchmark::State &State) {
  for (auto _ : State) {
    std::string Text = toShortest(3.141592653589793);
    benchmark::DoNotOptimize(Text);
  }
}
BENCHMARK(BM_ToShortestString);

void BM_SnprintfReference(benchmark::State &State) {
  // The C library's %.17g, as the familiar cost yardstick.
  char Buffer[64];
  for (auto _ : State) {
    int Written =
        std::snprintf(Buffer, sizeof(Buffer), "%.17g", 3.141592653589793);
    benchmark::DoNotOptimize(Written);
    benchmark::DoNotOptimize(Buffer);
  }
}
BENCHMARK(BM_SnprintfReference);

} // namespace

D4_GBENCH_MAIN("bench_freeformat")
